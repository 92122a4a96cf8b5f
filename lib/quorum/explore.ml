(** Exhaustive exploration of a system's schedule space.

    The paper's results are universally quantified over schedules; the
    randomized harness samples that space, while this module
    {e enumerates} it for small instances: depth-first over every
    enabled output at every state, threading an incremental checker
    state along each branch (prefixes are shared, so each operation is
    checked exactly once).  When the walk completes within the budget,
    the result is an exhaustive proof for that instance — {e every}
    schedule of the composed system satisfies the invariants.

    Costs are exponential; the unit tests run instances small enough
    to finish quickly (one or two DMs, single access attempts,
    optionally without scheduler aborts — abort branching is the
    dominant factor). *)

open Ioa

type stats = {
  schedules : int;  (** maximal schedules reached *)
  prefixes : int;  (** prefixes visited (= operations checked) *)
  exhausted : bool;  (** false when the budget stopped the walk *)
  violation : (Schedule.t * string) option;  (** first failure found *)
}

exception Stop

(** Filter dropping the serial scheduler's spontaneous ABORT
    operations — shrinks the space drastically.  Only restricts
    nondeterminism, so exhaustiveness is relative to abort-free
    schedules; abort paths are covered by a second (smaller or
    budgeted) walk and by the randomized harness. *)
let no_aborts = function Action.Abort _ -> false | _ -> true

(** [run ~budget ~include_aborts sys checker] walks every schedule of
    [sys] (without the scheduler's spontaneous aborts unless
    [include_aborts]), stepping the checker along each branch.  Stops
    at the first violation or after [budget] visited prefixes. *)
let run ?(budget = 1_000_000) ?(include_aborts = false) (sys : System.t)
    (checker : 'st Checker.t) : stats =
  let filter = if include_aborts then fun _ -> true else no_aborts in
  let prefixes = ref 0 and schedules = ref 0 in
  let violation = ref None in
  let rec dfs sys st sched =
    let actions = List.filter filter (System.enabled sys) in
    match actions with
    | [] -> incr schedules
    | actions ->
        List.iter
          (fun a ->
            incr prefixes;
            if !prefixes > budget then raise Stop;
            match System.apply sys a with
            | Error e ->
                violation := Some (List.rev (a :: sched), "apply failed: " ^ e);
                raise Stop
            | Ok sys' -> (
                match checker.step st a with
                | Error e ->
                    violation := Some (List.rev (a :: sched), e);
                    raise Stop
                | Ok st' -> dfs sys' st' (a :: sched)))
          actions
  in
  let completed =
    try
      dfs sys checker.init [];
      true
    with Stop -> false
  in
  {
    schedules = !schedules;
    prefixes = !prefixes;
    exhausted = completed && !violation = None;
    violation = !violation;
  }

(** Exhaustively validate well-formedness (Lemma 5) and the
    replication invariants (Lemmas 6-8) on every (optionally
    abort-free) schedule of system B for [d]. *)
let check_description ?(budget = 1_000_000) ?(include_aborts = false)
    ?(max_attempts = 1) (d : Description.t) : stats =
  run ~budget ~include_aborts
    (System_b.build ~max_attempts d)
    (Harness.checker d (Invariants.checker d))
