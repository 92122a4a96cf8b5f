(** End-to-end harness for the reconfigurable system: run with
    Section 3's seeded driver, then check well-formedness, the
    Section 4 invariants, and the simulation — Section 3's checks with
    Section 4's invariants and erase predicate. *)

open Ioa

val run :
  ?max_steps:int -> ?abort_rate:float -> seed:int -> Description.t ->
  System.run_result
(** {!Quorum.Harness.run} the reconfigurable system (defaults: 40,000
    steps, abort rate 0.05). *)

type report = {
  seed : int;
  steps : int;
  quiescent : bool;
  recons_fired : int;
  logical_states : (string * Value.t) list;
}

val count_recons : Schedule.t -> int
(** Committed reconfigure-TMs in a schedule. *)

val check_all : Description.t -> Schedule.t -> (unit, string) result
(** {!Quorum.Harness.check} with the Section 4 invariants and
    {!Description.erased_in_projection}.  Never raises. *)

val run_and_check :
  ?params:Gen.params ->
  ?max_steps:int ->
  ?abort_rate:float ->
  seed:int ->
  unit ->
  (report, string) result
