(** Exhaustive exploration of the reconfigurable system's schedule
    space with {!Quorum.Explore}'s walker: every schedule of a small
    instance — spy-fired reconfigurations included — stepped through
    {!Quorum.Harness.checker} with the Section 4 invariants, the checker
    {!Harness.check_all} folds. *)

let check_description ?(budget = 1_000_000) ?(include_aborts = false)
    ?(max_attempts = 1) (d : Description.t) : Quorum.Explore.stats =
  Quorum.Explore.run ~budget ~include_aborts
    (System_b.build ~max_attempts d)
    (Quorum.Harness.checker d.plain (Invariants.checker d))
