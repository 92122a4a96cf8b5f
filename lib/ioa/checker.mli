(** Prefix-incremental schedule checkers.  The randomized harness
    folds one over a whole schedule; the exhaustive walker threads it
    along every branch, so both run the same checks. *)

type 'st t = {
  init : 'st;
  step : 'st -> Action.t -> ('st, string) result;
}

val fold : 'st t -> Schedule.t -> ('st, string) result
(** Step the checker through a whole schedule, stopping at the first
    [Error], which it decorates with the step index and operation. *)
