(** Schedules — finite sequences of operations — with the projection
    operators of the paper ([sigma|A] and friends). *)

type t = Action.t list

val empty : t
val length : t -> int

val project : (Action.t -> bool) -> t -> t
(** Keep the operations satisfying the predicate. *)

val project_txn : Txn.t -> t -> t
(** Operations about the given transaction itself. *)

val view_of : Txn.t -> t -> t
(** The "view" of a transaction automaton: its CREATE, its own
    requests, and its children's returns — the projection Theorem 10's
    condition 2 compares. *)

val equal : t -> t -> bool
val pp : t Fmt.t

val project_subtree : Txn.t -> t -> t
(** Operations of (reflexive) descendants. *)

val erase : (Txn.t -> bool) -> t -> t
(** Drop operations whose transaction satisfies the predicate — the
    Theorem 10 construction. *)
