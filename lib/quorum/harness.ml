(** End-to-end harness: drive system B, then put the produced
    schedule through every checker the paper's results demand.

    One [run_and_check] call is one data point of the mechanized
    reproduction: Lemma 5 (well-formedness), Lemmas 6/7/8
    (invariants), Theorem 10 (simulation on system A). *)

open Ioa
module Prng = Qc_util.Prng

(** The seeded driver both sections share: completion-biased choices,
    with the serial scheduler's spontaneous aborts damped — with
    probability [1 - abort_rate], ABORT operations leave the menu when
    anything else is enabled, so random executions exercise the
    failure paths without aborting everything.  A [tracer] records the
    step-by-step action trail (category "ioa") — the window a failed
    checker needs into {e which} scheduler step went wrong. *)
let run ~max_steps ~abort_rate ?tracer ~seed (sys : System.t) :
    System.run_result =
  let strategy rng actions =
    match
      List.filter (function Action.Abort _ -> false | _ -> true) actions
    with
    | [] -> System.completion_biased rng actions
    | non_aborts ->
        if Prng.float rng < abort_rate then System.completion_biased rng actions
        else System.completion_biased rng non_aborts
  in
  System.run ~max_steps ~strategy ?tracer ~rng:(Prng.create seed) sys

(** Run system B from a seed. *)
let run_b ?(max_steps = 20_000) ?(abort_rate = 0.1) ?tracer ~seed
    (d : Description.t) : System.run_result =
  run ~max_steps ~abort_rate ?tracer ~seed (System_b.build d)

type report = {
  seed : int;
  steps : int;
  quiescent : bool;
  items : int;
  logical_states : (string * Value.t) list;
}

let ( let* ) = Result.bind

(** Lemma 5 (well-formedness of B's schedules) stepped alongside an
    invariant checker: what the random harness folds over each run and
    the exhaustive walker threads along each branch. *)
let checker (d : Description.t) (invariants : 'st Checker.t) :
    (Wellformed.state * 'st) Checker.t =
  let wf = Wellformed.checker ~is_access:(Description.is_access_b d) in
  {
    init = (wf.init, invariants.init);
    step =
      (fun (w, i) a ->
        let* w =
          Result.map_error (( ^ ) "Lemma 5 (well-formedness): ") (wf.step w a)
        in
        let* i = invariants.step i a in
        Ok (w, i));
  }

(** Validate [d], fold {!checker} over [sched], then run the Theorem 10
    check with the section's erase predicate. *)
let check ~erase (d : Description.t) invariants (sched : Schedule.t) :
    (unit, string) result =
  let* () =
    Result.map_error (( ^ ) "invalid description: ") (Description.validate d)
  in
  let* _ = Checker.fold (checker d invariants) sched in
  Simulation.check ~erase d sched

let check_all (d : Description.t) (sched : Schedule.t) :
    (unit, string) result =
  check ~erase:(Description.is_replica_access d) d (Invariants.checker d) sched

(** Generate a random description from [seed], run it, check
    everything.  The workhorse of the property suite. *)
let run_and_check ?(params = Gen.default_params) ?(max_steps = 20_000)
    ?(abort_rate = 0.1) ?tracer ~seed () : (report, string) result =
  let rng = Prng.create seed in
  let d = Gen.description ~params rng in
  let run = run_b ~max_steps ~abort_rate ?tracer ~seed:(seed lxor 0x5eed) d in
  let* () =
    Result.map_error
      (fun e -> Fmt.str "seed %d: %s" seed e)
      (check_all d run.System.schedule)
  in
  Ok
    {
      seed;
      steps = Schedule.length run.System.schedule;
      quiescent = run.System.quiescent;
      items = List.length d.Description.items;
      logical_states = Invariants.final_logical_states d run.System.schedule;
    }
