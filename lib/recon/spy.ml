(** Spy automata (Section 4).

    Reconfigure-TMs should be children of user transactions (to get
    the right atomicity: reconfiguration may happen between two of the
    user's logical accesses) but must run spontaneously and
    transparently — user programs neither invoke them nor see their
    returns.  The paper solves this modelling conflict by associating
    a {e spy} automaton with each user transaction: "the spy wakes up
    with the associated transaction and nondeterministically invokes
    reconfigure-TMs until the associated transaction requests to
    commit".

    Concretely, the spy's inputs are CREATE(U) and REQUEST_COMMIT(U,v)
    (both operations of U, shared by identification) plus the returns
    of the reconfigure-TMs it spawned; its outputs are the
    REQUEST_CREATE operations of those reconfigure-TMs.  Jointly, U
    and spy(U) behave like a single well-formed transaction automaton
    for U.  The spy stops requesting once U has requested to commit,
    preserving well-formedness of U's combined projection. *)

open Ioa
module Config = Quorum.Config

type state = {
  user : Txn.t;
  menu : (string * Config.t) list;  (** (item, configuration) it may fire *)
  max_recons : int;
  awake : bool;
  stopped : bool;  (** U has requested to commit *)
  requested : Txn.t list;  (** recon-TMs requested so far *)
}

let recon_children st =
  (* one candidate name per (item, config) pair and slot *)
  List.concat_map
    (fun (item, config) ->
      List.init st.max_recons (fun slot ->
          Tm.recon_name ~parent:st.user ~item ~config ~slot))
    st.menu

let is_my_recon st t =
  (not (Txn.is_root t))
  && Txn.equal (Txn.parent t) st.user
  && Tm.is_recon_tm t

let transition (st : state) (a : Action.t) : state option =
  match a with
  | Action.Create t when Txn.equal t st.user -> Some { st with awake = true }
  | Action.Request_commit (t, _) when Txn.equal t st.user ->
      Some { st with stopped = true }
  | Action.Request_create t when is_my_recon st t ->
      if
        st.awake && (not st.stopped)
        && (not (List.exists (Txn.equal t) st.requested))
        && List.length st.requested < st.max_recons
        && List.exists (Txn.equal t) (recon_children st)
      then Some { st with requested = t :: st.requested }
      else None
  | Action.Commit (t, _) | Action.Abort t ->
      if is_my_recon st t then Some st else None
  | _ -> None

let enabled (st : state) : Action.t list =
  if (not st.awake) || st.stopped || List.length st.requested >= st.max_recons
  then []
  else
    List.filter_map
      (fun t ->
        if List.exists (Txn.equal t) st.requested then None
        else Some (Action.Request_create t))
      (recon_children st)

(** [make ~user ~menu ()] attaches a spy to user transaction [user]
    able to fire at most [max_recons] reconfigurations drawn from
    [menu]. *)
let make ~(user : Txn.t) ~(menu : (string * Config.t) list)
    ?(max_recons = 1) () : Component.t =
  let state =
    { user; menu; max_recons; awake = false; stopped = false; requested = [] }
  in
  Automaton.make
    ~name:(Fmt.str "spy:%s" (Txn.to_string user))
    ~is_input:(fun a ->
      match a with
      | Action.Create t | Action.Request_commit (t, _) -> Txn.equal t user
      | Action.Commit (t, _) | Action.Abort t -> is_my_recon state t
      | Action.Request_create _ -> false)
    ~is_output:(fun a ->
      match a with
      | Action.Request_create t -> is_my_recon state t
      | _ -> false)
    ~state ~transition ~enabled
    ~pp:(fun st ->
      Fmt.str "spy %a: awake=%b stopped=%b fired=%d" Txn.pp st.user st.awake
        st.stopped (List.length st.requested))
    ()
