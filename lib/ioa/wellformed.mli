(** Well-formedness of operation sequences (paper Section 2.2):
    incremental checkers for transaction projections, basic-object
    projections, and whole schedules. *)

(** Per-transaction well-formedness: created at most once, no repeated
    or conflicting child returns, no requests before creation or after
    the own REQUEST_COMMIT, etc. *)
module Txn_check : sig
  type t

  val init : Txn.t -> t
  val step : t -> Action.t -> (t, string) result
end

(** Per-basic-object well-formedness: alternating CREATE /
    REQUEST_COMMIT pairs naming the same access, each access created
    at most once. *)
module Object_check : sig
  type t

  val init : string -> t
  val step : t -> Action.t -> (t, string) result
end

type state
(** Whole-schedule checker state: one projection checker per primitive
    encountered. *)

val checker : is_access:(Txn.t -> bool) -> state Checker.t
(** Route each operation to every primitive whose signature contains
    it.  [is_access] is the system-type information saying which names
    are accesses (handled by objects) in this system. *)

val check : is_access:(Txn.t -> bool) -> Schedule.t -> (unit, string) result
(** Validate a whole schedule: every primitive projection well-formed. *)
