(** The operations (actions) of nested transaction systems
    (paper Section 2.2): the five operation families relating a
    transaction, its parent, and the scheduler. *)

type t =
  | Request_create of Txn.t  (** output of [parent(T)] *)
  | Create of Txn.t  (** output of the scheduler, "wakes up" [T] *)
  | Request_commit of Txn.t * Value.t  (** output of [T] (or its object) *)
  | Commit of Txn.t * Value.t  (** output of the scheduler, input of the parent *)
  | Abort of Txn.t  (** output of the scheduler, input of the parent *)

val txn : t -> Txn.t
(** The transaction the operation is about. *)

val is_return_for : Txn.t -> t -> bool
(** Is this a return operation (COMMIT or ABORT) for the given
    transaction? *)

val is_return : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
