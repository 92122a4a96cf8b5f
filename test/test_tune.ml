(* Tests for the tuning layer (Store.Ewma, Store.Steer, Store.Autotune):
   EWMA semantics, the tree strategy family, the analytic model's
   closed forms, optimizer properties (qcheck: every pick is legal,
   admissible and minimal among the admissible candidates under the
   model's own objective),
   deterministic steering, byte-identical defaults (pinned digests +
   passive-instrumentation non-interference), and an end-to-end tuned
   cluster run whose audits stay clean across committed switches. *)

module Strategy = Store.Strategy
module Autotune = Store.Autotune
module Ewma = Store.Ewma
module Steer = Store.Steer

let feq = Alcotest.float 1e-9

(* ---------- EWMA ---------- *)

let test_ewma_seeding () =
  let e = Ewma.create ~n:3 in
  Alcotest.(check bool) "unobserved is unknown" false (Ewma.known e 1);
  Alcotest.check feq "unobserved reports 0" 0.0 (Ewma.value e 1);
  Ewma.observe e 1 10.0;
  Alcotest.check feq "first observation seeds directly" 10.0 (Ewma.value e 1);
  Ewma.observe e 1 20.0;
  Alcotest.check feq "then blends at alpha 0.2" 12.0 (Ewma.value e 1);
  Ewma.observe e 1 12.0;
  Alcotest.check feq "converges toward the stream" 12.0 (Ewma.value e 1);
  Alcotest.(check bool) "other indices untouched" false (Ewma.known e 0)

let test_ewma_validation () =
  let expect_invalid f =
    try
      f ();
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> ignore (Ewma.create ~n:0));
  let e = Ewma.create ~n:2 in
  expect_invalid (fun () -> Ewma.observe e 2 1.0);
  expect_invalid (fun () -> ignore (Ewma.value e (-1)))

(* ---------- the tree strategy family ---------- *)

let test_tree_legal () =
  List.iter
    (fun n ->
      let t = Strategy.tree n in
      Alcotest.(check bool)
        (Fmt.str "tree over %d replicas legal" n)
        true (Strategy.legal t))
    [ 4; 5; 6; 7; 9; 12 ];
  Alcotest.(check bool) "2 groups legal too" true
    (Strategy.legal (Strategy.tree ~groups:2 6))

(* independent re-derivation for the uniform 3x3 Kumar instance: a
   mask is a quorum iff at least 2 of the 3 contiguous triples
   contribute at least 2 members *)
let test_tree_9_matches_enumeration () =
  let t = Strategy.tree 9 in
  for m = 0 to 511 do
    let group g = Strategy.popcount ((m lsr (3 * g)) land 0b111) in
    let represented =
      List.length (List.filter (fun g -> group g >= 2) [ 0; 1; 2 ])
    in
    let expect = represented >= 2 in
    if not (Bool.equal expect (t.Strategy.read_ok m)) then
      Alcotest.failf "tree-3/9 disagrees with enumeration on mask %d" m;
    if not (Bool.equal expect (t.Strategy.write_ok m)) then
      Alcotest.failf "tree-3/9 write side disagrees on mask %d" m
  done;
  Alcotest.(check int) "minimal quorum size is 4 of 9" 4 (Strategy.min_read t)

let test_tree_validation () =
  let expect_invalid f =
    try
      f ();
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> ignore (Strategy.tree ~groups:0 5));
  expect_invalid (fun () -> ignore (Strategy.tree ~groups:6 5))

(* ---------- the analytic model ---------- *)

let test_model_majority_closed_forms () =
  let s = Strategy.majority 5 in
  Alcotest.(check bool) "majority-5 legal" true (Strategy.legal s);
  let sc = Autotune.score s ~read_fraction:1.0 ~p_alive:1.0 ~lat:(fun _ -> 1.0) in
  (* pure reads, smallest quorums have 3 of 5 members, uniform pick:
     every replica is touched with probability 3/5 *)
  Alcotest.check feq "pure-read peak load is 3/5" 0.6 sc.Autotune.peak_load;
  Alcotest.check feq "perfect availability at p=1" 1.0
    sc.Autotune.read_availability;
  let sc0 =
    Autotune.score s ~read_fraction:0.0 ~p_alive:1.0 ~lat:(fun _ -> 1.0)
  in
  (* pure writes touch a read quorum (version query) plus a write
     quorum (install): 3/5 + 3/5 *)
  Alcotest.check feq "pure-write peak load is 6/5" 1.2 sc0.Autotune.peak_load

(* every read quorum of one strategy meets every write quorum of
   another — the cross-strategy check behind safe re-strategizing *)
let cross_legal ~reads ~writes =
  let reads = (Strategy.quorums reads `Read).minimal
  and writes = (Strategy.quorums writes `Write).minimal in
  List.for_all (fun r -> List.for_all (fun w -> r land w <> 0) writes) reads

let r2w4 =
  Strategy.make ~name:"read-2/write-4" ~n:5
    ~read_ok:(fun m -> Strategy.popcount m >= 2)
    ~write_ok:(fun m -> Strategy.popcount m >= 4)

let test_model_cross_legal () =
  let maj = Strategy.majority 5 in
  Alcotest.(check bool) "r2 reads meet w4 writes" true
    (cross_legal ~reads:r2w4 ~writes:r2w4);
  (* the hazard the joint transition exists for: read-2 quorums do NOT
     all meet majority (write-3) quorums — switching without a
     migration would read stale data at rest *)
  Alcotest.(check bool) "r2 reads do not all meet majority writes" false
    (cross_legal ~reads:r2w4 ~writes:maj)

let test_joint_strategy () =
  let a = Strategy.majority 5 and b = r2w4 in
  let j = Autotune.joint a b in
  Alcotest.(check bool) "joint is legal" true (Strategy.legal j);
  (* joint quorums satisfy both predicates, so they intersect the old
     strategy's quorums (covering data at rest) and the new one's *)
  Alcotest.(check bool) "joint reads meet old writes" true
    (cross_legal ~reads:j ~writes:a);
  Alcotest.(check bool) "new reads meet joint writes" true
    (cross_legal ~reads:b ~writes:j)

(* ---------- optimizer properties ---------- *)

(* every pick is a legal, admissible candidate that no admissible
   candidate beats under the model's own objective, and there is no
   pick only when no candidate is admissible *)
let prop_optimizer_sound =
  QCheck.Test.make ~count:200
    ~name:"optimizer legal and >= every admissible candidate"
    QCheck.(triple (int_range 1 9) (int_range 0 100) (int_range 0 100_000))
    (fun (n, rf_pct, latseed) ->
      let read_fraction = float_of_int rf_pct /. 100.0 in
      let rng = Qc_util.Prng.create latseed in
      let lats =
        Array.init n (fun _ -> 0.5 +. (10.0 *. Qc_util.Prng.float rng))
      in
      let lat i = lats.(i) in
      let admissible =
        List.filter_map
          (fun s ->
            let sc =
              Autotune.score s ~read_fraction ~p_alive:Autotune.p_alive ~lat
            in
            if Strategy.legal s && Autotune.admissible sc then Some sc
            else None)
          (Autotune.candidates n)
      in
      match (Autotune.choose ~read_fraction ~lat n, admissible) with
      | None, [] -> true
      | None, _ ->
          QCheck.Test.fail_reportf "no pick among %d admissible candidates"
            (List.length admissible)
      | Some { Autotune.strategy; _ }, [] ->
          QCheck.Test.fail_reportf "pick %s with no admissible candidate"
            strategy.Strategy.name
      | Some { Autotune.strategy; score }, _ ->
          if not (Strategy.legal strategy) then
            QCheck.Test.fail_reportf "illegal pick %s" strategy.Strategy.name;
          if not (Autotune.admissible score) then
            QCheck.Test.fail_reportf "inadmissible pick %s"
              strategy.Strategy.name;
          List.for_all
            (fun sc -> Autotune.objective score <= Autotune.objective sc +. 1e-9)
            admissible)

(* ---------- steering ---------- *)

(* a steering probe over [n] replicas whose tracker has seen
   [lat i] from each *)
let probe ~n ~lat ~queue =
  let ewma = Ewma.create ~n in
  for i = 0 to n - 1 do
    Ewma.observe ewma i (lat i)
  done;
  { Steer.ewma; queue_depth = queue; steer = true }

let test_steer_picks_cheapest () =
  let pr =
    probe ~n:3 ~lat:(fun i -> if i = 2 then 10.0 else 1.0) ~queue:(fun _ -> 0.0)
  in
  (* pairs over 3 replicas: {0,1} avoids the slow replica 2 *)
  Alcotest.(check (option int))
    "avoids the slow member" (Some 0b011)
    (Steer.best pr [ 0b011; 0b101; 0b110 ])

let test_steer_queue_pressure () =
  let pr =
    probe ~n:3 ~lat:(fun _ -> 1.0) ~queue:(fun i -> if i = 0 then 5.0 else 0.0)
  in
  Alcotest.(check (option int))
    "queue depth shifts the pick" (Some 0b110)
    (Steer.best pr [ 0b011; 0b101; 0b110 ]);
  Alcotest.check feq "each queued entry costs the queue weight"
    (1.0 +. (5.0 *. Steer.queue_weight))
    (Steer.replica_cost pr 0)

let test_steer_deterministic_ties () =
  let pr = probe ~n:3 ~lat:(fun _ -> 1.0) ~queue:(fun _ -> 0.0) in
  (* all equal cost: smallest cardinality wins, then lowest mask — the
     same answer on every call, never a PRNG draw *)
  Alcotest.(check (option int))
    "cardinality then lowest mask" (Some 0b011)
    (Steer.best pr [ 0b111; 0b110; 0b011; 0b101 ]);
  Alcotest.(check (option int)) "empty is None" None (Steer.best pr []);
  Alcotest.check feq "cost is the slowest member" 1.0 (Steer.cost pr 0b101)

(* ---------- byte-identical defaults ---------- *)

(* Pinned simulation digests of three seeded default runs (tune =
   None), captured when the tuning layer landed and re-pinned once
   when runs began ending at their last live event (only [duration]
   moved).  Any behavioural leak from the tuning code into default
   runs changes these. *)
let golden_defaults =
  [
    (42, "4fd39eb95e3f2609c95a0fa599fea35c");
    (7, "c3752ed6cbee4d13802c2b90e7c0af15");
    (101, "232cf56f55bdc161d1cf903a6befae69");
  ]

let default_run ?tune seed =
  Store.Cluster.run
    {
      Store.Cluster.default_params with
      n_replicas = 5;
      n_clients = 3;
      workload = { Store.Workload.default_spec with ops_per_client = 15 };
      seed;
      tune;
    }

let test_default_digest_golden () =
  List.iter
    (fun (seed, digest) ->
      Alcotest.(check string)
        (Fmt.str "seed %d default digest" seed)
        digest
        (Store.Cluster.digest (default_run seed)))
    golden_defaults

(* passive instrumentation (probes + EWMAs installed, but optimizer
   and steering both off) must not perturb the simulation: identical
   latency summaries, op counts and message counters *)
let test_passive_probes_non_interfering () =
  List.iter
    (fun (seed, _) ->
      let plain = default_run seed in
      let probed =
        default_run
          ~tune:{ Store.Cluster.optimize = false; steer = false }
          seed
      in
      Alcotest.(check bool) "probed run flagged" true
        probed.Store.Cluster.tune_run;
      Alcotest.(check (list string))
        "no switches without the optimizer" []
        (List.map (fun (_, _, name) -> name)
           probed.Store.Cluster.strategy_switches);
      Alcotest.check feq "read mean unchanged"
        plain.Store.Cluster.reads.Sim.Stats.mean
        probed.Store.Cluster.reads.Sim.Stats.mean;
      Alcotest.check feq "write mean unchanged"
        plain.Store.Cluster.writes.Sim.Stats.mean
        probed.Store.Cluster.writes.Sim.Stats.mean;
      Alcotest.(check int)
        "ok reads unchanged" plain.Store.Cluster.ok_reads
        probed.Store.Cluster.ok_reads;
      Alcotest.(check int)
        "messages unchanged" plain.Store.Cluster.net.Sim.Net.sent
        probed.Store.Cluster.net.Sim.Net.sent)
    golden_defaults

(* ---------- end to end: a tuned cluster run ---------- *)

let test_tuned_run_audits_clean () =
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        n_replicas = 5;
        n_clients = 4;
        targeting = `Quorum;
        workload =
          {
            Store.Workload.default_spec with
            ops_per_client = 120;
            read_fraction = 0.9;
            think_time = 2.0;
          };
        tune = Some Store.Cluster.default_tune_spec;
        seed = 42;
      }
  in
  Alcotest.(check bool) "tune ran" true r.Store.Cluster.tune_run;
  Alcotest.(check (list string)) "audits clean" []
    r.Store.Cluster.audit_violations;
  Alcotest.(check bool)
    "optimizer committed at least one switch" true
    (r.Store.Cluster.strategy_switches <> []);
  let candidate_names =
    List.map (fun (s : Strategy.t) -> s.Strategy.name) (Autotune.candidates 5)
  in
  List.iter
    (fun (_, _, name) ->
      Alcotest.(check bool)
        (Fmt.str "switch target %s is a candidate" name)
        true
        (List.mem name candidate_names))
    r.Store.Cluster.strategy_switches;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Fmt.str "final strategy %s is a candidate" name)
        true
        (List.mem name candidate_names))
    r.Store.Cluster.shard_strategies

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "tune.ewma",
      [
        Alcotest.test_case "seeding and blending" `Quick test_ewma_seeding;
        Alcotest.test_case "validation" `Quick test_ewma_validation;
      ] );
    ( "tune.tree",
      [
        Alcotest.test_case "family legal" `Quick test_tree_legal;
        Alcotest.test_case "3x3 matches enumeration" `Quick
          test_tree_9_matches_enumeration;
        Alcotest.test_case "validation" `Quick test_tree_validation;
      ] );
    ( "tune.model",
      [
        Alcotest.test_case "majority closed forms" `Quick
          test_model_majority_closed_forms;
        Alcotest.test_case "cross-strategy intersection" `Quick
          test_model_cross_legal;
        Alcotest.test_case "joint transition strategy" `Quick
          test_joint_strategy;
        qcheck prop_optimizer_sound;
      ] );
    ( "tune.steer",
      [
        Alcotest.test_case "picks the cheapest quorum" `Quick
          test_steer_picks_cheapest;
        Alcotest.test_case "queue pressure shifts the pick" `Quick
          test_steer_queue_pressure;
        Alcotest.test_case "deterministic ties" `Quick
          test_steer_deterministic_ties;
      ] );
    ( "tune.cluster",
      [
        Alcotest.test_case "default digests pinned" `Quick
          test_default_digest_golden;
        Alcotest.test_case "passive probes non-interfering" `Quick
          test_passive_probes_non_interfering;
        Alcotest.test_case "tuned run audits clean" `Slow
          test_tuned_run_audits_clean;
      ] );
  ]
