(** Well-formedness of operation sequences (Section 2.2).

    The paper defines well-formedness recursively, separately for
    sequences of operations of a (non-access) transaction and for
    sequences of operations of a basic object, and proves (via
    [Lynch-Merritt]) that all serial schedules are well-formed
    (Lemma 5 instantiates this for system B).  We implement both
    definitions as incremental checkers, plus a whole-schedule checker
    that projects onto every primitive, so Lemma 5 can be validated
    mechanically on generated executions. *)

(** {1 Transaction well-formedness}

    For a sequence of operations of transaction [T]:
    - CREATE(T) occurs at most once;
    - a return for child [T'] requires a prior REQUEST_CREATE(T') and
      no prior return for [T'];
    - REQUEST_CREATE(T') occurs at most once per child, only after
      CREATE(T), and not after a REQUEST_COMMIT for [T];
    - REQUEST_COMMIT for [T] occurs at most once, after CREATE(T). *)

module Txn_check = struct
  type t = {
    who : Txn.t;
    created : bool;
    requested_commit : bool;
    req_created : Txn.Set.t;  (** children whose creation was requested *)
    returned : Txn.Set.t;  (** children that have returned *)
  }

  let init who =
    {
      who;
      created = false;
      requested_commit = false;
      req_created = Txn.Set.empty;
      returned = Txn.Set.empty;
    }

  let fail fmt = Fmt.kstr (fun s -> Error s) fmt

  let step (st : t) (a : Action.t) : (t, string) result =
    let t = st.who in
    match a with
    | Action.Create t' when Txn.equal t t' ->
        if st.created then fail "%a created twice" Txn.pp t
        else Ok { st with created = true }
    | Action.Commit (c, _) | Action.Abort c ->
        if Txn.is_root c || not (Txn.equal (Txn.parent c) t) then
          fail "return for %a delivered to non-parent %a" Txn.pp c Txn.pp t
        else if not (Txn.Set.mem c st.req_created) then
          fail "return for unrequested child %a at %a" Txn.pp c Txn.pp t
        else if Txn.Set.mem c st.returned then
          fail "second return for child %a at %a" Txn.pp c Txn.pp t
        else Ok { st with returned = Txn.Set.add c st.returned }
    | Action.Request_create c ->
        if Txn.is_root c || not (Txn.equal (Txn.parent c) t) then
          fail "%a requested creation of non-child %a" Txn.pp t Txn.pp c
        else if Txn.Set.mem c st.req_created then
          fail "%a requested child %a twice" Txn.pp t Txn.pp c
        else if st.requested_commit then
          fail "%a requested child %a after its own REQUEST_COMMIT" Txn.pp t
            Txn.pp c
        else if not st.created then
          fail "%a requested child %a before being created" Txn.pp t Txn.pp c
        else Ok { st with req_created = Txn.Set.add c st.req_created }
    | Action.Request_commit (t', _) when Txn.equal t t' ->
        if st.requested_commit then
          fail "%a requested commit twice" Txn.pp t
        else if not st.created then
          fail "%a requested commit before being created" Txn.pp t
        else Ok { st with requested_commit = true }
    | Action.Create _ | Action.Request_commit _ ->
        fail "operation %a not of transaction %a" Action.pp a Txn.pp t
end

(** {1 Basic object well-formedness}

    Schedules of a basic object alternate CREATE and REQUEST_COMMIT
    starting with a CREATE, each (CREATE, REQUEST_COMMIT) pair names
    the same access, and each access is created at most once. *)

module Object_check = struct
  type t = {
    obj : string;
    pending : Txn.t option;  (** access created but not yet committed *)
    created : Txn.Set.t;  (** all accesses ever created *)
  }

  let init obj = { obj; pending = None; created = Txn.Set.empty }

  let fail fmt = Fmt.kstr (fun s -> Error s) fmt

  let step (st : t) (a : Action.t) : (t, string) result =
    match a with
    | Action.Create t -> (
        match st.pending with
        | Some p ->
            fail "object %s: CREATE(%a) while %a is pending" st.obj Txn.pp t
              Txn.pp p
        | None ->
            if Txn.Set.mem t st.created then
              fail "object %s: access %a created twice" st.obj Txn.pp t
            else
              Ok
                {
                  st with
                  pending = Some t;
                  created = Txn.Set.add t st.created;
                })
    | Action.Request_commit (t, _) -> (
        match st.pending with
        | Some p when Txn.equal p t -> Ok { st with pending = None }
        | Some p ->
            fail "object %s: REQUEST_COMMIT(%a) but pending access is %a"
              st.obj Txn.pp t Txn.pp p
        | None ->
            fail "object %s: REQUEST_COMMIT(%a) with no pending access" st.obj
              Txn.pp t)
    | Action.Request_create _ | Action.Commit _ | Action.Abort _ ->
        fail "object %s: operation %a not an object operation" st.obj
          Action.pp a
end

(** {1 Whole-schedule well-formedness}

    A sequence of operations of a system is well-formed iff its
    projection at every primitive (every transaction automaton and
    every basic object) is well-formed.  The caller supplies
    [is_access], the system-type information saying which transaction
    names are accesses (leaves handled by objects) in this system. *)

type state = {
  is_access : Txn.t -> bool;
  txns : Txn_check.t Txn.Map.t;
  objs : (string * Object_check.t) list;
}

let ( let* ) = Result.bind

let txn_step st who a =
  let chk =
    match Txn.Map.find_opt who st.txns with
    | Some c -> c
    | None -> Txn_check.init who
  in
  let* chk = Txn_check.step chk a in
  Ok { st with txns = Txn.Map.add who chk st.txns }

let obj_step st obj a =
  let chk =
    match List.assoc_opt obj st.objs with
    | Some c -> c
    | None -> Object_check.init obj
  in
  let* chk = Object_check.step chk a in
  Ok { st with objs = (obj, chk) :: List.remove_assoc obj st.objs }

(** Route one operation to every primitive whose signature contains
    it, stepping each projection checker. *)
let step (st : state) (a : Action.t) : (state, string) result =
  let t = Action.txn a in
  match a with
  | Action.Request_create _ ->
      (* Output of parent(t); parent is always a non-access txn. *)
      if Txn.is_root t then Error "REQUEST_CREATE of the root"
      else txn_step st (Txn.parent t) a
  | Action.Create _ ->
      if st.is_access t then
        match Txn.obj_of t with
        | Some obj -> obj_step st obj a
        | None -> Error (Fmt.str "access %a has no object" Txn.pp t)
      else txn_step st t a
  | Action.Request_commit _ ->
      if st.is_access t then
        match Txn.obj_of t with
        | Some obj -> obj_step st obj a
        | None -> Error (Fmt.str "access %a has no object" Txn.pp t)
      else txn_step st t a
  | Action.Commit _ | Action.Abort _ ->
      (* Input of parent(t): only meaningful when the parent is a
         non-access transaction (always true in our systems). *)
      if Txn.is_root t then Error "return operation for the root"
      else
        let p = Txn.parent t in
        if st.is_access p then
          Error (Fmt.str "return for %a delivered to access parent" Txn.pp t)
        else txn_step st p a

let checker ~is_access =
  { Checker.init = { is_access; txns = Txn.Map.empty; objs = [] }; step }

(** [check ~is_access sched] validates a whole schedule; [Ok ()] means
    every primitive projection is well-formed. *)
let check ~is_access (sched : Schedule.t) : (unit, string) result =
  Result.map ignore (Checker.fold (checker ~is_access) sched)
