(** Transaction managers for the reconfigurable algorithm (Section 4).

    All three TM kinds share one skeleton built on coordinators:

    - a {e read-TM} runs a query coordinator and returns the value it
      reports (the one with the highest version number, read from a
      read-quorum of the highest-generation configuration);
    - a {e write-TM} runs a query coordinator to learn (t, c), then a
      push coordinator installing [(t + 1, value(T))] on a
      write-quorum of [c], and returns [nil];
    - a {e reconfigure-TM} (parameterized by the new configuration
      [c']) runs a query to learn (v, t, c, g), then pushes the
      current data [(t, v)] to a write-quorum of the {e new}
      configuration [c'], then pushes the announcement [(g + 1, c')]
      to a write-quorum of the {e old} configuration [c] — following
      Gifford as simplified by the paper's footnote 6 (writing the new
      configuration to an old write-quorum only), and returns [nil].

    If a coordinator is aborted by the scheduler before being created,
    the TM retries with a fresh coordinator name (bounded attempts). *)

open Ioa
module Config = Quorum.Config

type kind = Quorum.Logical.kind =
  | Read
  | Write of Value.t
  | Reconfigure of Config.t

(** The name of a reconfigure-TM for [item] installing [config], as a
    child of user transaction [parent].  [slot] distinguishes repeated
    reconfigurations by the same user transaction. *)
let recon_name ~parent ~item ~config ~slot =
  Txn.child parent
    (Txn.Param ("recon:" ^ item, Value.Pair (Value.Config config, Value.Int slot)))

let recon_info (t : Txn.t) : (string * Config.t * int) option =
  match Txn.last_seg t with
  | Some (Txn.Param (tag, Value.Pair (Value.Config c, Value.Int slot)))
    when String.length tag > 6 && String.sub tag 0 6 = "recon:" ->
      Some (String.sub tag 6 (String.length tag - 6), c, slot)
  | _ -> None

let is_recon_tm t = recon_info t <> None

(** Is [t] a TM of [item], and of which kind?  Reconfigure-TMs are
    recognised by their name, read- and write-TMs as in Section 3. *)
let kind_of (item : Quorum.Item.t) (t : Txn.t) : kind option =
  match recon_info t with
  | Some (name, config, _) when String.equal name item.name ->
      Some (Reconfigure config)
  | Some _ -> None
  | None -> Quorum.Logical.tm_kind item t

(* The push stages of each TM kind, given the query result. *)
let stages ~kind (r : Value.recon_state) : (Value.t * Config.t) list =
  match kind with
  | Read -> []
  | Write v -> [ (Value.Versioned (r.Value.version + 1, v), r.Value.config) ]
  | Reconfigure c' ->
      [
        (Value.Versioned (r.Value.version, r.Value.data), c');
        ( Value.Gen_config { gen = r.Value.generation + 1; cfg = c' },
          r.Value.config );
      ]

type state = {
  self : Txn.t;
  item : Quorum.Item.t;
  kind : kind;
  max_attempts : int;
  awake : bool;
  done_ : bool;
  q_requested : int;
  result : Value.recon_state option;
  push_requested : (Txn.t * int) list;  (** push coordinator name, stage *)
  completed_stages : int list;
}

let is_child st t =
  (not (Txn.is_root t)) && Txn.equal (Txn.parent t) st.self

let stage_attempts st stage =
  List.length (List.filter (fun (_, s) -> s = stage) st.push_requested)

let n_stages st =
  match st.result with
  | None -> ( match st.kind with Read -> 0 | Write _ -> 1 | Reconfigure _ -> 2)
  | Some r -> List.length (stages ~kind:st.kind r)

let stage_spec st stage =
  match st.result with
  | None -> None
  | Some r -> List.nth_opt (stages ~kind:st.kind r) stage

(* The next stage that may be worked on: the smallest incomplete one,
   available only once all earlier stages completed. *)
let current_stage st =
  match st.result with
  | None -> None
  | Some _ ->
      let rec go s =
        if s >= n_stages st then None
        else if List.mem s st.completed_stages then go (s + 1)
        else Some s
      in
      go 0

let all_pushes_done st =
  match st.result with
  | None -> false
  | Some _ -> current_stage st = None

let commit_value st =
  match (st.kind, st.result) with
  | Read, Some r -> Some r.Value.data
  | (Write _ | Reconfigure _), Some _ -> Some Value.Nil
  | _, None -> None

let can_request_commit st =
  st.awake && (not st.done_) && st.result <> None && all_pushes_done st

let transition (st : state) (a : Action.t) : state option =
  match a with
  | Action.Create t when Txn.equal t st.self -> Some { st with awake = true }
  | Action.Request_create t when is_child st t -> (
      if (not st.awake) || st.done_ then None
      else
        match Coordinator.role_of t with
        | Some Coordinator.Query -> (
            match Txn.last_seg t with
            | Some (Txn.Param (_, Value.Int k))
              when k = st.q_requested && st.result = None
                   && k < st.max_attempts ->
                Some { st with q_requested = st.q_requested + 1 }
            | _ -> None)
        | Some (Coordinator.Push { payload; target }) -> (
            match current_stage st with
            | Some stage -> (
                match stage_spec st stage with
                | Some (p, tg)
                  when Value.equal p payload && Config.equal tg target
                       && stage_attempts st stage < st.max_attempts
                       && not (List.mem_assoc t st.push_requested) ->
                    Some
                      { st with push_requested = (t, stage) :: st.push_requested }
                | _ -> None)
            | None -> None)
        | None -> None)
  | Action.Commit (t, v) when is_child st t -> (
      match Coordinator.role_of t with
      | Some Coordinator.Query -> (
          match (st.result, v) with
          | None, Value.Recon_state r -> Some { st with result = Some r }
          | _ -> Some st)
      | Some (Coordinator.Push _) -> (
          match List.assoc_opt t st.push_requested with
          | Some stage when not (List.mem stage st.completed_stages) ->
              Some { st with completed_stages = stage :: st.completed_stages }
          | _ -> Some st)
      | None -> Some st)
  | Action.Abort t when is_child st t -> Some st
  | Action.Request_commit (t, v) when Txn.equal t st.self -> (
      match commit_value st with
      | Some cv when can_request_commit st && Value.equal v cv ->
          Some { st with done_ = true; awake = false }
      | _ -> None)
  | _ -> None

let enabled (st : state) : Action.t list =
  if (not st.awake) || st.done_ then []
  else
    let queries =
      if st.result = None && st.q_requested < st.max_attempts then
        [ Action.Request_create
            (Coordinator.query_name ~tm:st.self ~attempt:st.q_requested) ]
      else []
    in
    let pushes =
      match current_stage st with
      | Some stage -> (
          match stage_spec st stage with
          | Some (payload, target) ->
              let n = stage_attempts st stage in
              if n < st.max_attempts then
                [ Action.Request_create
                    (Coordinator.push_name ~tm:st.self ~payload ~target
                       ~slot:((stage * st.max_attempts) + n)) ]
              else []
          | None -> [])
      | None -> []
    in
    let commit =
      match commit_value st with
      | Some cv when can_request_commit st ->
          [ Action.Request_commit (st.self, cv) ]
      | _ -> []
    in
    queries @ pushes @ commit

(** Build a TM component (and its coordinator family). *)
let make ~(self : Txn.t) ~(item : Quorum.Item.t) ~(kind : kind)
    ?(max_attempts = 3) () : Component.t list =
  let state =
    {
      self;
      item;
      kind;
      max_attempts;
      awake = false;
      done_ = false;
      q_requested = 0;
      result = None;
      push_requested = [];
      completed_stages = [];
    }
  in
  let is_coord_child t = is_child state t && Coordinator.is_coordinator t in
  let tm =
    Automaton.make
      ~name:(Fmt.str "recon-tm:%s" (Txn.to_string self))
      ~is_input:(fun a ->
        match a with
        | Action.Create t -> Txn.equal t self
        | Action.Commit (t, _) | Action.Abort t -> is_coord_child t
        | Action.Request_create _ | Action.Request_commit _ -> false)
      ~is_output:(fun a ->
        match a with
        | Action.Request_create t -> is_coord_child t
        | Action.Request_commit (t, _) -> Txn.equal t self
        | Action.Create _ | Action.Commit _ | Action.Abort _ -> false)
      ~state ~transition ~enabled
      ~pp:(fun st ->
        Fmt.str "recon-tm %a: awake=%b result=%b stages=%d/%d" Txn.pp st.self
          st.awake (st.result <> None)
          (List.length st.completed_stages)
          (n_stages st))
      ()
  in
  [ tm; Coordinator.family ~tm:self ~item ~max_attempts () ]
