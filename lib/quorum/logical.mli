(** The Section 3.1 definitions, computed from schedules:
    [access(x,b)], [logical-state(x,b)] and [current-vn(x,b)]. *)

open Ioa

(** How a TM name classifies: a read, a write of [value(T)] (the data
    its name carries), or (Section 4 only) a reconfiguration. *)
type kind = Read | Write of Value.t | Reconfigure of Config.t

val tm_kind : Item.t -> Txn.t -> kind option
(** Membership (and kind) in [tm(x)] for this item. *)

val is_tm : Item.t -> Txn.t -> bool

val replica_access_dm : Item.t -> Txn.t -> string option
(** The DM accessed, when the name is an access to one of this item's
    DMs. *)

val access_sequence : Item.t -> Schedule.t -> Schedule.t
(** [access(x, b)]: the CREATE and REQUEST_COMMIT operations of
    members of [tm(x)]. *)

val logical_state : Item.t -> Schedule.t -> Value.t
(** [logical-state(x, b)]: the value of the last write-TM
    REQUEST_COMMIT, or [i_x]. *)

val current_vn : Item.t -> Schedule.t -> int
(** [current-vn(x, b)]: the maximum version among the last committed
    write access of each DM, or 0. *)

val dm_states : Item.t -> Schedule.t -> (string * (int * Value.t)) list
(** Every DM's (version, value) after the schedule, reconstructed. *)

(** Lemma 6 bookkeeping for one item, shared by both sections'
    invariant checkers: [access(x, b)] must alternate CREATE and
    REQUEST_COMMIT of one TM at a time, a write-TM's REQUEST_COMMIT
    sets [logical-state(x, b)] to [value(T)], and a read-TM's returns
    it (Lemma 8.2). *)
type tracker = private {
  pending_tm : Txn.t option;  (** TM created, REQUEST_COMMIT pending *)
  access_len : int;  (** the length of [access(x, b)] *)
  logical : Value.t;  (** [logical-state(x, b)] *)
}

val tracker : Item.t -> tracker
(** The empty access sequence: [logical-state = i_x]. *)

val track :
  (Txn.t -> kind option) -> Item.t -> tracker -> Action.t ->
  (tracker, string) result
(** [track classify item tr a] steps [tr] by [a], where [classify]
    says which names are TMs of [item] and of which kind.  [Error]
    names the violated lemma. *)
