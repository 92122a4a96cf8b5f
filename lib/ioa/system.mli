(** Composition of I/O automata (paper Section 2.1) and a seeded
    execution driver resolving the model's nondeterminism. *)

type t
(** A composed system. *)

val compose : Component.t list -> t
(** Compose components.  Output-set disjointness is enforced at
    {!apply} time (an operation owned by several components is
    rejected). *)

val components : t -> Component.t list

val enabled : t -> Action.t list
(** The enabled output operations of the composition. *)

val owners : t -> Action.t -> Component.t list
(** Components having the operation as an output (at most one in a
    well-formed system). *)

val apply : t -> Action.t -> (t, string) result
(** One step: every component with the operation in its signature
    steps; the rest stay put.  Fails when the operation has zero or
    several owners, or the owner's precondition fails. *)

val replay : t -> Schedule.t -> (t, string) result
(** Apply a whole sequence; [Ok] iff it is a schedule of the system —
    the executable meaning of "is a schedule of" used by the
    Theorem 10 checker. *)

type strategy = Qc_util.Prng.t -> Action.t list -> Action.t
(** Picks the next operation among the enabled outputs. *)

val uniform : strategy

val completion_biased : strategy
(** Prefers REQUEST_COMMIT / COMMIT operations with probability 0.7,
    keeping long random executions from ballooning. *)

type run_result = {
  final : t;
  schedule : Schedule.t;
  quiescent : bool;  (** stopped with nothing enabled *)
}

val run :
  ?max_steps:int ->
  ?strategy:strategy ->
  ?tracer:Obs.Trace.t ->
  rng:Qc_util.Prng.t ->
  t ->
  run_result
(** Drive to quiescence or the step bound; the result is by
    construction a schedule of the composition.  With a [tracer],
    every step fires an instant event (category "ioa", timestamped
    with the step index, the rendered operation in the args), so a
    failed check downstream can dump the exact action trail. *)
