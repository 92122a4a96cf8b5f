(** End-to-end harness: drive system B, then run every checker the
    paper's results demand — Lemma 5 (well-formedness), Lemmas 6-8
    (invariants), Theorem 10 (simulation). *)

open Ioa

val run :
  max_steps:int -> abort_rate:float -> ?tracer:Obs.Trace.t -> seed:int ->
  System.t -> System.run_result
(** The seeded driver both sections use: {!Ioa.System.completion_biased}
    choices; when anything else is enabled, the scheduler's spontaneous
    aborts stay on the menu only with probability [abort_rate].  A
    [tracer] records the step-by-step action trail (category
    "ioa"). *)

val run_b :
  ?max_steps:int -> ?abort_rate:float -> ?tracer:Obs.Trace.t -> seed:int ->
  Description.t -> System.run_result
(** {!run} system B (defaults: 20,000 steps, abort rate 0.1). *)

type report = {
  seed : int;
  steps : int;
  quiescent : bool;
  items : int;
  logical_states : (string * Value.t) list;
}

val checker :
  Description.t -> 'st Checker.t -> (Wellformed.state * 'st) Checker.t
(** Lemma 5 (well-formedness of B's schedules) paired with an invariant
    checker — the one checker the random harness and the exhaustive
    walker both run. *)

val check :
  erase:(Txn.t -> bool) -> Description.t -> 'st Checker.t -> Schedule.t ->
  (unit, string) result
(** Validate the description, fold {!checker} over the schedule, then
    run {!Simulation.check} with [erase].  Never raises. *)

val check_all : Description.t -> Schedule.t -> (unit, string) result
(** All schedule-level checks for one B-schedule: {!check} with
    Lemmas 6-8 and the Section 3 erasure. *)

val run_and_check :
  ?params:Gen.params ->
  ?max_steps:int ->
  ?abort_rate:float ->
  ?tracer:Obs.Trace.t ->
  seed:int ->
  unit ->
  (report, string) result
(** Generate a random description from [seed], run it, check
    everything — the workhorse of the property suite. *)
