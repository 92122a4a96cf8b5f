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

(* Is [t] a member of tm(x) for this item, and of which kind? *)
let tm_kind (item : Item.t) (t : Txn.t) : Txn.kind option =
  match (Txn.obj_of t, Txn.kind_of t) with
  | Some obj, Some k when String.equal obj item.Item.name -> Some k
  | _ -> None

let is_tm item t = tm_kind item t <> None

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
      | Action.Request_commit (t, _) when tm_kind item t = Some Txn.Write -> (
          match Txn.data_of t with Some v -> v | None -> acc)
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
