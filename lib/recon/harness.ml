(** End-to-end harness for the reconfigurable system: Section 3's
    seeded driver, then the same checks as Section 3 — well-formedness
    folded alongside the Section 4 invariants, and the Theorem 10
    simulation onto system A with coordinators and reconfigure-TMs
    erased too. *)

open Ioa
module Prng = Qc_util.Prng

let run ?(max_steps = 40_000) ?(abort_rate = 0.05) ~seed (d : Description.t) :
    System.run_result =
  Quorum.Harness.run ~max_steps ~abort_rate ~seed (System_b.build d)

type report = {
  seed : int;
  steps : int;
  quiescent : bool;
  recons_fired : int;
  logical_states : (string * Value.t) list;
}

let ( let* ) = Result.bind

let count_recons (sched : Schedule.t) =
  List.length
    (List.filter
       (function
         | Action.Request_commit (t, _) -> Tm.is_recon_tm t
         | _ -> false)
       sched)

let check_all (d : Description.t) (sched : Schedule.t) : (unit, string) result
    =
  Quorum.Harness.check
    ~erase:(Description.erased_in_projection d)
    d.plain (Invariants.checker d) sched

let run_and_check ?(params = Gen.default_params) ?(max_steps = 40_000)
    ?(abort_rate = 0.05) ~seed () : (report, string) result =
  let rng = Prng.create seed in
  let d = Gen.description ~params rng in
  let run_res = run ~max_steps ~abort_rate ~seed:(seed lxor 0x5eed) d in
  let* () =
    Result.map_error
      (fun e -> Fmt.str "recon seed %d: %s" seed e)
      (check_all d run_res.System.schedule)
  in
  Ok
    {
      seed;
      steps = Schedule.length run_res.System.schedule;
      quiescent = run_res.System.quiescent;
      recons_fired = count_recons run_res.System.schedule;
      logical_states = Invariants.final_logical_states d run_res.System.schedule;
    }
