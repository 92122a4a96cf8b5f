(** End-to-end harness: drive system B, then put the produced
    schedule through every checker the paper's results demand.

    One [run_and_check] call is one data point of the mechanized
    reproduction: Lemma 5 (well-formedness), Lemmas 6/7/8
    (invariants), Theorem 10 (simulation on system A). *)

open Ioa
module Prng = Qc_util.Prng

(** Driver strategy that dampens the serial scheduler's spontaneous
    aborts: with probability [1 - abort_rate], ABORT operations are
    removed from the menu when anything else is enabled.  This keeps
    random executions from aborting everything while still exercising
    the failure paths. *)
let abort_damped ?(abort_rate = 0.1) (base : System.strategy) :
    System.strategy =
 fun rng actions ->
  let non_aborts =
    List.filter (function Action.Abort _ -> false | _ -> true) actions
  in
  match non_aborts with
  | [] -> base rng actions
  | _ ->
      if Prng.float rng < abort_rate then base rng actions
      else base rng non_aborts

(** Run system B from a seed.  A [tracer] records the step-by-step
    action trail (category "ioa") — the window a failed checker needs
    into {e which} scheduler step went wrong. *)
let run_b ?(max_steps = 20_000) ?(abort_rate = 0.1) ?tracer ~seed
    (d : Description.t) : System.run_result =
  let rng = Prng.create seed in
  let strategy = abort_damped ~abort_rate System.completion_biased in
  System.run ~max_steps ~strategy ?tracer ~rng (System_b.build d)

type report = {
  seed : int;
  steps : int;
  quiescent : bool;
  items : int;
  logical_states : (string * Value.t) list;
}

let ( let* ) = Result.bind

(** All schedule-level checks for one B-schedule. *)
let check_all (d : Description.t) (sched : Schedule.t) :
    (unit, string) result =
  let* () =
    Result.map_error (fun e -> "Lemma 5 (well-formedness): " ^ e)
      (System_b.check_wellformed d sched)
  in
  let* () = Invariants.check d sched in
  let* _ = Simulation.check d sched in
  Ok ()

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
