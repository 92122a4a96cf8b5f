(** Logical access sequences, logical state, and current version
    number (Section 3.1 definitions), computed from schedules.

    These three definitions drive every invariant:
    - [access(x, b)]: the subsequence of CREATE and REQUEST_COMMIT
      operations for members of [tm(x)];
    - [logical-state(x, b)]: [value(T)] of the last write-TM
      REQUEST_COMMIT in [access(x, b)], or [i_x] if none — the value a
      logical read is expected to return;
    - [current-vn(x, b)]: the highest version number among the data
      of the last committed write access to each DM, or 0. *)

open Ioa

(** How a TM name classifies: a read, a write of [value(T)], or (in
    Section 4) a reconfiguration to a new configuration. *)
type kind = Read | Write of Value.t | Reconfigure of Config.t

(* Is [t] a member of tm(x) for this item, and of which kind? *)
let tm_kind (item : Item.t) (t : Txn.t) : kind option =
  match (Txn.obj_of t, Txn.kind_of t, Txn.data_of t) with
  | Some obj, Some Txn.Read, _ when String.equal obj item.Item.name -> Some Read
  | Some obj, Some Txn.Write, Some v when String.equal obj item.Item.name ->
      Some (Write v)
  | _ -> None

let is_tm item t = Option.is_some (tm_kind item t)

(* Is [t] a (write) access to one of this item's DMs? *)
let replica_access_dm (item : Item.t) (t : Txn.t) : string option =
  match Txn.obj_of t with
  | Some obj when List.mem obj item.Item.dms -> Some obj
  | _ -> None

(** [access_sequence item sched] is [access(x, b)]. *)
let access_sequence (item : Item.t) (sched : Schedule.t) : Schedule.t =
  Schedule.project
    (fun a ->
      match a with
      | Action.Create t | Action.Request_commit (t, _) -> is_tm item t
      | Action.Request_create _ | Action.Commit _ | Action.Abort _ -> false)
    sched

(** [logical_state item sched] is [logical-state(x, b)]. *)
let logical_state (item : Item.t) (sched : Schedule.t) : Value.t =
  List.fold_left
    (fun acc a ->
      match a with
      | Action.Request_commit (t, _) -> (
          match tm_kind item t with Some (Write v) -> v | _ -> acc)
      | _ -> acc)
    item.Item.initial sched

(** [current_vn item sched] is [current-vn(x, b)]: fold the schedule
    tracking, per DM, the version number of the last committed write
    access; take the maximum (0 when no write has committed). *)
let current_vn (item : Item.t) (sched : Schedule.t) : int =
  let last =
    List.fold_left
      (fun acc a ->
        match a with
        | Action.Request_commit (t, _)
          when Txn.kind_of t = Some Txn.Write -> (
            match replica_access_dm item t with
            | Some dm -> (
                match Txn.data_of t with
                | Some (Value.Versioned (vn, _)) ->
                    (dm, vn) :: List.remove_assoc dm acc
                | _ -> acc)
            | None -> acc)
        | _ -> acc)
      [] sched
  in
  List.fold_left (fun m (_, vn) -> Int.max m vn) 0 last

(** The (version, value) state of every DM of [item] after [sched]
    (recomputed from the schedule, initial = (0, i_x)). *)
let dm_states (item : Item.t) (sched : Schedule.t) :
    (string * (int * Value.t)) list =
  List.map
    (fun dm ->
      match
        Serial.Rw_object.data_after ~name:dm ~initial:(Item.dm_initial item)
          sched
      with
      | Value.Versioned (vn, v) -> (dm, (vn, v))
      | other -> (dm, (0, other)))
    item.Item.dms

(** Lemma 6 bookkeeping for one item, stepped one operation at a time
    by both sections' invariant checkers. *)
type tracker = {
  pending_tm : Txn.t option;  (** TM created, REQUEST_COMMIT pending *)
  access_len : int;  (** the length of [access(x, b)] *)
  logical : Value.t;  (** [logical-state(x, b)] *)
}

let tracker (item : Item.t) =
  { pending_tm = None; access_len = 0; logical = item.Item.initial }

let fail fmt = Fmt.kstr (fun s -> Error s) fmt

let track classify (item : Item.t) tr (a : Action.t) =
  match a with
  | Action.Create t when Option.is_some (classify t) -> (
      match tr.pending_tm with
      | Some p ->
          fail "Lemma 6 violated for %s: CREATE(%a) while %a pending"
            item.Item.name Txn.pp t Txn.pp p
      | None -> Ok { tr with pending_tm = Some t; access_len = tr.access_len + 1 })
  | Action.Request_commit (t, v) -> (
      match (classify t, tr.pending_tm) with
      | None, _ -> Ok tr
      | Some kind, Some p when Txn.equal p t -> (
          let tr = { tr with pending_tm = None; access_len = tr.access_len + 1 } in
          match kind with
          | Write value -> Ok { tr with logical = value }
          | Read when not (Value.equal v tr.logical) ->
              fail
                "Lemma 8.2 violated for %s: read-TM %a returned %a, \
                 logical-state is %a"
                item.Item.name Txn.pp t Value.pp v Value.pp tr.logical
          | Read | Reconfigure _ -> Ok tr)
      | Some _, Some p ->
          fail "Lemma 6 violated for %s: REQUEST_COMMIT(%a) while %a pending"
            item.Item.name Txn.pp t Txn.pp p
      | Some _, None ->
          fail "Lemma 6 violated for %s: REQUEST_COMMIT(%a) with no CREATE"
            item.Item.name Txn.pp t)
  | _ -> Ok tr
