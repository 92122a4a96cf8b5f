(** Transaction managers (Section 3.1), transcribed from the paper's
    read-TM and write-TM automaton definitions.

    A TM [T] for logical item [x] is a read-TM or a write-TM; which
    one, and the value [value(T)] a write-TM installs, are read off
    the TM's own name.  Both kinds start with the same read phase:
    invoke read accesses to the DMs for [x], keeping the data with the
    highest version number seen, until COMMITs have arrived from some
    read-quorum.  A read-TM then requests to commit, returning the
    kept value.  A write-TM instead invokes write accesses carrying
    [(vn + 1, value(T))], and once COMMITs have arrived from a
    write-quorum it requests to commit with value [nil].

    Faithful subtlety: some read accesses of a write-TM may commit
    only after write accesses have been invoked, possibly returning
    data this very TM wrote.  To keep the TM from seeing its own
    writes and bumping the version number again, the COMMIT of a read
    access updates the state {e only if no write access has been
    requested yet} ([write_requested = {}] in the paper's
    postcondition).  A read-TM requests no write access, so for it the
    rule never applies.

    State components (paper names): awake, data (an element of
    [D_x = N x V_x]), read_requested, write_requested (subsets of
    [acc(x)]), read, written (subsets of [dm(x)]).

    The paper's automata are maximally nondeterministic — they may
    keep invoking accesses to arbitrary DMs forever.  Executable runs
    bound the number of attempts per DM and kind ([max_attempts]);
    this only restricts nondeterminism, so every execution produced is
    an execution of the paper's automaton (cf. the paper's own remark
    that "all of our results apply even if such heuristics are
    added"). *)

open Ioa

type state = {
  self : Txn.t;
  value : Value.t option;  (** [Some value(T)] for a write-TM *)
  dms : string list;
  config : Config.t;
  max_attempts : int;
  awake : bool;
  data_vn : int;
  data_value : Value.t;
  read_requested : Txn.Set.t;
  write_requested : Txn.Set.t;
  read : string list;  (** DMs from which a read COMMIT has been received *)
  written : string list;  (** DMs from which a write COMMIT has been received *)
}

let attempts_at set d =
  Txn.Set.fold
    (fun t acc ->
      match Txn.obj_of t with
      | Some o when String.equal o d -> acc + 1
      | _ -> acc)
    set 0

let is_child_access st t =
  (not (Txn.is_root t))
  && Txn.equal (Txn.parent t) st.self
  && List.exists (fun d -> Txn.obj_of t = Some d) st.dms

let read_quorum_seen st = Config.read_covered st.config st.read

(* A read-TM returns the kept data; a write-TM returns [nil]. *)
let commit_value st = if Option.is_none st.value then st.data_value else Value.Nil

let can_request_commit st =
  st.awake
  &&
  match st.value with
  | None -> read_quorum_seen st
  | Some _ -> Config.write_covered st.config st.written

let add dm dms = if List.mem dm dms then dms else dm :: dms

let transition (st : state) (a : Action.t) : state option =
  match a with
  | Action.Create t when Txn.equal t st.self -> Some { st with awake = true }
  | Action.Request_create t when is_child_access st t -> (
      match (Txn.kind_of t, st.value) with
      | Some Txn.Read, _ ->
          if st.awake && not (Txn.Set.mem t st.read_requested) then
            Some { st with read_requested = Txn.Set.add t st.read_requested }
          else None
      | Some Txn.Write, Some v ->
          (* Precondition: a read-quorum has been read, the access
             carries exactly (vn + 1, value(T)), and it is fresh. *)
          if
            st.awake && read_quorum_seen st
            && Option.equal Value.equal (Txn.data_of t)
                 (Some (Value.Versioned (st.data_vn + 1, v)))
            && not (Txn.Set.mem t st.write_requested)
          then Some { st with write_requested = Txn.Set.add t st.write_requested }
          else None
      | (Some Txn.Write | None), _ -> None)
  | Action.Commit (t, d) when is_child_access st t -> (
      let dm = Option.get (Txn.obj_of t) in
      if Txn.kind_of t = Some Txn.Write then Some { st with written = add dm st.written }
      else if not (Txn.Set.is_empty st.write_requested) then Some st
      else
        (* COMMIT(T', d): add O(T') to read; keep the highest-versioned
           data seen. *)
        match d with
        | Value.Versioned (vn, v) when vn > st.data_vn ->
            Some { st with read = add dm st.read; data_vn = vn; data_value = v }
        | _ -> Some { st with read = add dm st.read })
  | Action.Abort t when is_child_access st t ->
      (* ABORT(T') has no postconditions: the TM simply never hears
         from that access. *)
      Some st
  | Action.Request_commit (t, v) when Txn.equal t st.self ->
      if can_request_commit st && Value.equal v (commit_value st) then
        Some { st with awake = false }
      else None
  | Action.Create _ | Action.Request_create _ | Action.Commit _
  | Action.Abort _ | Action.Request_commit _ ->
      None

let enabled (st : state) : Action.t list =
  if not st.awake then []
  else
    let requests kind set data =
      List.filter_map
        (fun d ->
          let seq = attempts_at set d in
          if seq < st.max_attempts then
            Some
              (Action.Request_create
                 (Txn.child st.self (Txn.Access { obj = d; kind; data; seq })))
          else None)
        st.dms
    in
    let reads =
      (* stop invoking read accesses once a read-quorum has answered
         (a restriction of nondeterminism only) *)
      if read_quorum_seen st then []
      else requests Txn.Read st.read_requested Value.Nil
    in
    let writes =
      match st.value with
      | Some v
        when read_quorum_seen st
             && not (Config.write_covered st.config st.written) ->
          requests Txn.Write st.write_requested
            (Value.Versioned (st.data_vn + 1, v))
      | Some _ | None -> []
    in
    let commit =
      if can_request_commit st then
        [ Action.Request_commit (st.self, commit_value st) ]
      else []
    in
    reads @ writes @ commit

(** [make ~self ~item ()] builds the TM automaton named [self] for
    logical item [item]: a write-TM when [self] names a write access
    (whose data is [value(T)]), a read-TM otherwise. *)
let make ~(self : Txn.t) ~(item : Item.t) ?(max_attempts = 3) () :
    Component.t =
  let value =
    match Logical.tm_kind item self with Some (Logical.Write v) -> Some v | _ -> None
  in
  let state =
    {
      self;
      value;
      dms = item.Item.dms;
      config = item.Item.config;
      max_attempts;
      awake = false;
      data_vn = 0;
      data_value = item.Item.initial;
      read_requested = Txn.Set.empty;
      write_requested = Txn.Set.empty;
      read = [];
      written = [];
    }
  in
  let kind = if Option.is_none value then "read-tm" else "write-tm" in
  let pp_dms = Fmt.(list ~sep:(any ",") string) in
  Automaton.make
    ~name:(Fmt.str "%s:%s" kind (Txn.to_string self))
    ~is_input:(fun a ->
      match a with
      | Action.Create t -> Txn.equal t self
      | Action.Commit (t, _) | Action.Abort t -> is_child_access state t
      | Action.Request_create _ | Action.Request_commit _ -> false)
    ~is_output:(fun a ->
      match a with
      | Action.Request_create t -> is_child_access state t
      | Action.Request_commit (t, _) -> Txn.equal t self
      | Action.Create _ | Action.Commit _ | Action.Abort _ -> false)
    ~state ~transition ~enabled
    ~pp:(fun st ->
      Fmt.str "%s %a: awake=%b vn=%d read={%a}%s" kind Txn.pp st.self st.awake
        st.data_vn pp_dms st.read
        (if Option.is_none value then "" else Fmt.str " written={%a}" pp_dms st.written))
    ()
