(* The fault-schedule harness: byte-identical compilation of the
   legacy nemesis knobs onto scripts (golden digests captured before
   the refactor), the script DSL's round-trip/validate/shrink
   contracts, per-link fault filters down in Sim.Net, externally
   driven failure injectors, and the seed-swarm fuzzer finding (and
   minimizing) a planted quorum bug. *)

module Core = Sim.Core
module Net = Sim.Net
module Prng = Qc_util.Prng
module Script = Harness.Script

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* ---------- golden digests: legacy knobs vs scripts ---------- *)

(* One nemesis scenario, either through the legacy params or through
   the equivalent script.  The shape matches the pre-refactor capture
   runs: 3 replicas/shard, 3 clients, range sharding, targeted
   quorums, retries + hedging. *)
let scenario ?failures ~seed ~n_shards ~as_script ~partitions ~shard_kill () =
  let p =
    {
      Store.Cluster.default_params with
      n_replicas = 3;
      n_clients = 3;
      n_shards;
      shard_scheme = `Range;
      targeting = `Quorum;
      policy = Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
      workload =
        {
          Store.Workload.default_spec with
          ops_per_client = 40;
          read_fraction = 0.5;
        };
      seed;
      trace_capacity = 262144;
    }
  in
  let p =
    if as_script then
      {
        p with
        script = Script.of_legacy ?failures ?partitions ?shard_kill ();
      }
    else { p with partitions; shard_kill; failures }
  in
  let r = Store.Cluster.run p in
  let trace = Obs.Export.jsonl r.Store.Cluster.trace in
  (Store.Cluster.digest r, Digest.to_hex (Digest.string trace))

(* Digest + trace-digest pairs captured from the pre-refactor inline
   nemesis code.  Both the legacy params and the script expression of
   the same schedule must reproduce them byte for byte.  Re-pinned once
   when finished ops began cancelling their timers: only [duration]
   moved, and each trace is the old one minus the cancelled timers'
   [sim/exec] instants. *)
let partition_goldens =
  [
    (42, ("6728d9e93e81fe0cffd103e6a4ad1e6b", "1bdb6ec08e414a696f10942b174e4cc0"));
    (7, ("0e4817c182cf75ed9d9cbd6dffc77f43", "770e03c1a2e2f4e1606d603c8636c495"));
    (101, ("4cb93e96d176ead71440355d464445e6", "ebf3fbb3a34065dba606cb64db6f2153"));
  ]

let shard_kill_goldens =
  [
    (42, ("1de591abde4cbef81942f8b93ded9ee2", "03b537fa65b81266dccc1343211c0ea0"));
    (7, ("a7f006d00e5896fb34136e1548cde8e2", "e6c369c9f9afeb33c076388c0a594c3d"));
    (101, ("6dd2980d22abf13578c3968e14bd1a1d", "3d9a7da31b8e43406c21d5acdb3e2fe9"));
  ]

(* The crash storm runs in the background, so a run ends with its
   workload: its digest is pinned here like the others.  Against the
   run that drained the storm to t = 1e9, only [duration] differs. *)
let crash_storm_goldens =
  [
    (42, "ff5d2fddd599cb0950cddafdb869abba");
    (7, "eb91719ddb40a2edd654e4099b9795aa");
    (101, "9b6bcb40b951ef14ab1388212bd54375");
  ]

let test_crash_storm_goldens () =
  List.iter
    (fun (seed, expected) ->
      let run as_script =
        scenario
          ~failures:{ Sim.Failure.mtbf = 300.0; mttr = 60.0 }
          ~seed ~n_shards:1 ~as_script ~partitions:None ~shard_kill:None ()
      in
      let legacy = run false and scripted = run true in
      Alcotest.(check (pair string string))
        (Fmt.str "crash storm seed %d: legacy = script" seed)
        legacy scripted;
      Alcotest.(check string)
        (Fmt.str "crash storm seed %d: golden" seed)
        expected (fst legacy))
    crash_storm_goldens

let test_partition_storm_goldens () =
  List.iter
    (fun (seed, expected) ->
      List.iter
        (fun as_script ->
          let got =
            scenario ~seed ~n_shards:1 ~as_script ~partitions:(Some 150.0)
              ~shard_kill:None ()
          in
          Alcotest.(check (pair string string))
            (Fmt.str "partitions seed %d (%s)" seed
               (if as_script then "script" else "legacy"))
            expected got)
        [ false; true ])
    partition_goldens

let test_shard_kill_goldens () =
  List.iter
    (fun (seed, expected) ->
      List.iter
        (fun as_script ->
          let got =
            scenario ~seed ~n_shards:4 ~as_script ~partitions:None
              ~shard_kill:(Some (0, 200.0)) ()
          in
          Alcotest.(check (pair string string))
            (Fmt.str "shard_kill seed %d (%s)" seed
               (if as_script then "script" else "legacy"))
            expected got)
        [ false; true ])
    shard_kill_goldens

(* The legacy attach loop and the Crash_storm interpreter produce
   bit-identical health schedules.  Both run the storm in the
   background, so each side schedules the same foreground horizon event
   at t = 50,000 to keep the run going that long. *)
let test_crash_storm_equivalence () =
  let spec = { Sim.Failure.mtbf = 300.0; mttr = 60.0 } in
  let nodes = [ "r0"; "r1"; "r2" ] in
  let run legacy =
    let sim = Core.create ~seed:11 in
    let tr = Obs.Trace.create ~capacity:65536 ~enabled:true () in
    Core.attach_tracer sim tr;
    let net = (Net.create ~sim ~nodes () : unit Net.t) in
    Core.schedule sim ~delay:50_000.0 ignore;
    let injectors =
      if legacy then
        List.map (fun node -> Sim.Failure.attach ~sim ~net ~node ~spec ()) nodes
      else
        Harness.Run.install
          {
            Harness.Run.sim;
            net;
            groups = [| Array.of_list nodes |];
            clients = [];
            seed = 11;
          }
          (Script.of_failures spec)
    in
    Core.run ~until:50_000.0 sim;
    Alcotest.(check (float 0.0)) "ran to the horizon" 50_000.0 (Core.now sim);
    ( List.map
        (fun i -> (Sim.Failure.node i, Sim.Failure.transitions i))
        injectors,
      Digest.to_hex (Digest.string (Obs.Export.jsonl tr)) )
  in
  let legacy = run true and scripted = run false in
  Alcotest.(check bool) "the storm ran" true
    (List.for_all (fun (_, n) -> n > 100) (fst legacy));
  Alcotest.(check (pair (list (pair string int)) string))
    "identical health schedule and trace" legacy scripted

(* ---------- the script DSL ---------- *)

(* the world the DSL tests validate against: two shards, two clients *)
let validate =
  Script.validate
    ~groups:[| [| "r0"; "r1"; "r2" |]; [| "s1:r0"; "s1:r1" |] |]
    ~clients:[ "c0"; "c1" ]

let test_script_round_trip () =
  let s =
    [
      Script.At (12.5, Script.Partition [ [ "r0"; "r1" ]; [ "r2" ] ]);
      Script.At (20.0, Script.Heal);
      Script.At (5.0, Script.Crash "r0");
      Script.At (9.0, Script.Recover "r0");
      Script.At
        (3.0, Script.Link_filter { src = "c0"; dst = "r1"; spec = Net.Drop_all });
      Script.At
        ( 4.0,
          Script.Link_filter
            { src = "c0"; dst = "r2"; spec = Net.Drop_first 3 } );
      Script.At
        ( 4.5,
          Script.Link_filter
            { src = "r0"; dst = "r2"; spec = Net.Drop_prob 0.25 } );
      Script.At (8.0, Script.Link_clear { src = "c0"; dst = "r1" });
      Script.At (2.0, Script.Loss 0.3);
      Script.At (100.0, Script.Pause_shard 1);
      Script.At (150.0, Script.Resume_shard 1);
      Script.At (200.0, Script.Kill_shard 0);
      Script.Bipartition_storm { mean = 150.0; cycles = 64 };
      Script.Crash_storm { Sim.Failure.mtbf = 300.0; mttr = 60.0 };
    ]
  in
  (match Script.of_string (Script.to_string s) with
  | Ok parsed ->
      Alcotest.(check string)
        "print/parse/print fixpoint" (Script.to_string s)
        (Script.to_string parsed)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check (result unit string)) "round-tripped script validates"
    (Ok ()) (validate s)

let prop_generated_scripts_round_trip =
  QCheck.Test.make ~count:100 ~name:"generated scripts round-trip and validate"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let s =
        Harness.Gen.script rng
          ~groups:[| [| "r0"; "r1"; "r2" |]; [| "s1:r0"; "s1:r1" |] |]
          ~clients:[ "c0"; "c1" ] ~horizon:400.0
      in
      (match validate s with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid generated script: %s" e);
      match Script.of_string (Script.to_string s) with
      | Ok parsed -> Script.to_string parsed = Script.to_string s
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_script_validate_rejects () =
  let bad what s =
    match validate s with
    | Ok () -> Alcotest.failf "%s: expected a validation error" what
    | Error _ -> ()
  in
  bad "negative time" [ Script.At (-1.0, Script.Heal) ];
  bad "overlapping sides"
    [ Script.At (0.0, Script.Partition [ [ "r0"; "r1" ]; [ "r1" ] ]) ];
  bad "single side" [ Script.At (0.0, Script.Partition [ [ "r0" ] ]) ];
  bad "loss out of range" [ Script.At (0.0, Script.Loss 1.5) ];
  bad "bad probability"
    [
      Script.At
        ( 0.0,
          Script.Link_filter { src = "c0"; dst = "r0"; spec = Net.Drop_prob 2.0 }
        );
    ];
  bad "bad storm mean" [ Script.Bipartition_storm { mean = 0.0; cycles = 4 } ];
  bad "bad mtbf" [ Script.Crash_storm { Sim.Failure.mtbf = 0.0; mttr = 1.0 } ];
  bad "shard out of range" [ Script.At (0.0, Script.Kill_shard 2) ];
  bad "negative shard" [ Script.At (0.0, Script.Pause_shard (-1)) ];
  (* a node outside the world: each action that names nodes, with the
     exact message for one of them *)
  List.iter
    (fun a ->
      bad ("unknown node: " ^ Script.action_label a) [ Script.At (1.0, a) ])
    [
      Script.Crash "s0:r9";
      Script.Recover "r9";
      Script.Partition [ [ "r0" ]; [ "c0"; "x" ] ];
      Script.Link_filter { src = "c9"; dst = "r0"; spec = Net.Drop_all };
      Script.Link_filter { src = "c0"; dst = "s2:r0"; spec = Net.Drop_all };
      Script.Link_clear { src = "r0"; dst = "" };
    ];
  Alcotest.(check (result unit string))
    "unknown node message"
    (Error {|step 1 (@1 recover r9): unknown node "r9"|})
    (validate [ Script.At (0.0, Script.Heal); Script.At (1.0, Script.Recover "r9") ]);
  match Script.of_string "@5 warp r0" with
  | Ok _ -> Alcotest.fail "parsed an unknown action"
  | Error _ -> ()

let test_quiesces_at () =
  let parse s =
    match Script.of_string s with Ok x -> x | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option (float 1e-9)))
    "crash/recover + heal settles" (Some 30.0)
    (Script.quiesces_at (parse "@10 crash r0; @20 recover r0; @30 heal"));
  Alcotest.(check (option (float 1e-9)))
    "unrecovered crash never settles" None
    (Script.quiesces_at (parse "@10 crash r0; @30 heal"));
  Alcotest.(check (option (float 1e-9)))
    "storms never settle" None
    (Script.quiesces_at (Script.of_partitions 150.0));
  Alcotest.(check (option (float 1e-9)))
    "shard kill never settles" None
    (Script.quiesces_at (Script.of_shard_kill (0, 200.0)))

(* ---------- per-link fault filters in Sim.Net ---------- *)

let test_link_filters () =
  let sim = Core.create ~seed:3 in
  let net =
    (Net.create ~sim ~nodes:[ "a"; "b" ]
       ~latency:(Net.uniform_latency ~lo:1.0 ~hi:2.0)
       ()
      : unit Net.t)
  in
  let got = ref 0 in
  Net.register net ~node:"b" (fun ~src:_ () -> incr got);
  Net.set_link_filter net ~src:"a" ~dst:"b" (Net.Drop_first 2);
  for _ = 1 to 4 do
    Net.send net ~src:"a" ~dst:"b" ()
  done;
  Core.run sim;
  Alcotest.(check int) "first:2 swallows exactly two" 2 !got;
  Alcotest.(check int) "per-link drop counter" 2
    (Net.link_filter_drops net ~src:"a" ~dst:"b");
  Net.set_link_filter net ~src:"a" ~dst:"b" Net.Drop_all;
  for _ = 1 to 3 do
    Net.send net ~src:"a" ~dst:"b" ()
  done;
  Core.run sim;
  Alcotest.(check int) "all swallows everything" 2 !got;
  Alcotest.(check int) "replacing the filter reset its counter" 3
    (Net.link_filter_drops net ~src:"a" ~dst:"b");
  Alcotest.(check int) "filtered is a first-class drop reason" 5
    (Net.counters net).Net.drop_filtered;
  Alcotest.(check int) "filtered drops count toward the total" 5
    (Net.counters net).Net.dropped;
  Alcotest.(check bool) "filters are directional: b -> a still delivers" true
    (Net.link_filter net ~src:"b" ~dst:"a" = None);
  Net.clear_link_filter net ~src:"a" ~dst:"b";
  Net.send net ~src:"a" ~dst:"b" ();
  Core.run sim;
  Alcotest.(check int) "cleared filter delivers again" 3 !got

(* a Drop_all filter on part of the quorum must make fire-once clients
   time out (with the pending request draining, not wedging the run),
   while bounded retries punch through a Drop_first filter *)
let filtered_write_run ~policy ~specs =
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        n_replicas = 3;
        n_clients = 1;
        strategy = Store.Strategy.majority;
        policy;
        workload =
          {
            Store.Workload.default_spec with
            ops_per_client = 1;
            read_fraction = 0.0;
          };
        seed = 9;
        script =
          List.map
            (fun (dst, spec) ->
              Script.At
                (0.0, Script.Link_filter { src = "c0"; dst; spec }))
            specs;
      }
  in
  (r.Store.Cluster.ok_writes, r.Store.Cluster.failed_writes, r)

let test_filter_vs_engine () =
  (* two of three replicas unreachable: no write quorum, fire-once
     fails cleanly *)
  let ok, failed, r =
    filtered_write_run ~policy:Rpc.Policy.default
      ~specs:[ ("r0", Net.Drop_all); ("r1", Net.Drop_all) ]
  in
  Alcotest.(check (pair int int)) "fire-once times out" (0, 1) (ok, failed);
  Alcotest.(check bool) "the filters did the damage" true
    (r.Store.Cluster.net.Net.drop_filtered > 0);
  (* the same links swallowing only the first message each: fire-once
     still fails, retries resend and punch through *)
  let ok_once, failed_once, _ =
    filtered_write_run ~policy:Rpc.Policy.default
      ~specs:[ ("r0", Net.Drop_first 1); ("r1", Net.Drop_first 1) ]
  in
  Alcotest.(check (pair int int)) "fire-once loses the first wave" (0, 1)
    (ok_once, failed_once);
  let ok_retry, failed_retry, _ =
    filtered_write_run
      ~policy:(Rpc.Policy.with_retries 2)
      ~specs:[ ("r0", Net.Drop_first 1); ("r1", Net.Drop_first 1) ]
  in
  Alcotest.(check (pair int int)) "retries punch through" (1, 0)
    (ok_retry, failed_retry)

(* ---------- externally driven injectors ---------- *)

let injector_run seed mtbf mttr =
  let sim = Core.create ~seed in
  let net = (Net.create ~sim ~nodes:[ "n" ] () : unit Net.t) in
  let inj =
    Sim.Failure.attach ~sim ~net ~node:"n"
      ~spec:{ Sim.Failure.mtbf; mttr }
      ~until:200_000.0 ()
  in
  Core.run sim;
  (Sim.Failure.up_fraction inj ~now:(Core.now sim), Sim.Failure.transitions inj)

let prop_injector_up_fraction_converges =
  QCheck.Test.make ~count:10
    ~name:"injector up-fraction converges to mtbf/(mtbf+mttr)"
    QCheck.(triple (int_range 0 1_000_000) (int_range 20 200) (int_range 5 50))
    (fun (seed, mtbf_i, mttr_i) ->
      let mtbf = float_of_int mtbf_i and mttr = float_of_int mttr_i in
      let frac, _ = injector_run seed mtbf mttr in
      let analytic = Sim.Failure.availability { Sim.Failure.mtbf; mttr } in
      if abs_float (frac -. analytic) < 0.05 then true
      else
        QCheck.Test.fail_reportf "up-fraction %.4f vs analytic %.4f" frac
          analytic)

let prop_injector_deterministic =
  QCheck.Test.make ~count:10 ~name:"injector schedule is seed-deterministic"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      injector_run seed 90.0 10.0 = injector_run seed 90.0 10.0)

let test_set_health_accounting () =
  let sim = Core.create ~seed:1 in
  let net = (Net.create ~sim ~nodes:[ "n" ] () : unit Net.t) in
  let inj = Sim.Failure.create ~node:"n" ~now:0.0 () in
  Core.schedule sim ~delay:10.0 (fun () ->
      Sim.Failure.set_health inj ~net ~now:10.0 ~up:false);
  Core.schedule sim ~delay:30.0 (fun () ->
      Sim.Failure.set_health inj ~net ~now:30.0 ~up:true;
      (* idempotent: repeating the state is not a transition *)
      Sim.Failure.set_health inj ~net ~now:30.0 ~up:true);
  Core.run sim;
  Alcotest.(check int) "two transitions" 2 (Sim.Failure.transitions inj);
  Alcotest.(check bool) "node is back up" true (Net.is_up net "n");
  Alcotest.(check (float 1e-9)) "up 20 of 40 time units" 0.5
    (Sim.Failure.up_fraction inj ~now:40.0)

(* A Recover in a script installed *after* the script that crashed the
   node must still bring it back: the fresh injector mirrors the
   node's real network state, so set_health ~up:true is a transition,
   not an idempotent no-op. *)
let test_recover_across_installs () =
  let sim = Core.create ~seed:1 in
  let net = (Net.create ~sim ~nodes:[ "r0"; "c0" ] () : unit Net.t) in
  let env =
    { Harness.Run.sim; net; groups = [| [| "r0" |] |]; clients = [ "c0" ];
      seed = 1 }
  in
  let parse s =
    match Script.of_string s with Ok s -> s | Error e -> Alcotest.fail e
  in
  ignore (Harness.Run.install env (parse "@5 crash r0") : Sim.Failure.t list);
  Core.run sim;
  Alcotest.(check bool) "down after first install" false (Net.is_up net "r0");
  let injs = Harness.Run.install env (parse "@5 recover r0") in
  Core.run sim;
  Alcotest.(check bool) "up after second install" true (Net.is_up net "r0");
  match injs with
  | [ inj ] ->
      Alcotest.(check int) "the recover was a real transition" 1
        (Sim.Failure.transitions inj)
  | _ -> Alcotest.failf "expected one injector, got %d" (List.length injs)

(* ---------- check predicates ---------- *)

let test_quorum_ok () =
  (match
     Harness.Check.quorum_ok ~name:"majority-3"
       (Quorum.Config.majority [ "a"; "b"; "c" ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "majority should pass: %s" e);
  match
    Harness.Check.quorum_ok ~name:"disjoint"
      (Quorum.Config.make
         ~read_quorums:[ [ "a" ] ]
         ~write_quorums:[ [ "b" ] ])
  with
  | Ok () -> Alcotest.fail "disjoint quorums should fail the static gate"
  | Error _ -> ()

let test_liveness_after_heal () =
  let script =
    match Script.of_string "@10 crash r0; @20 recover r0; @30 heal" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let check_ok what completions =
    match Harness.Check.liveness_after_heal ~script ~completions with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: unexpected liveness failure: %s" what e
  in
  check_ok "success after heal" [ (25.0, false); (40.0, true) ];
  check_ok "nothing completes after heal" [ (25.0, true) ];
  (match
     Harness.Check.liveness_after_heal ~script
       ~completions:[ (25.0, true); (40.0, false); (50.0, false) ]
   with
  | Ok () -> Alcotest.fail "all-failed tail should violate liveness"
  | Error _ -> ());
  match
    Harness.Check.liveness_after_heal ~script:(Script.of_partitions 150.0)
      ~completions:[ (40.0, false) ]
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "non-settling scripts are vacuous: %s" e

(* ---------- the seed swarm ---------- *)

(* A deliberately broken strategy: read-1/write-1 quorums do not
   intersect, so the audit must catch stale reads — the planted bug
   the swarm exists to find. *)
let unsafe_strategy _n =
  Store.Strategy.make ~name:"unsafe-1/1" ~n:3
    ~read_ok:(fun m -> Store.Strategy.popcount m >= 1)
    ~write_ok:(fun m -> Store.Strategy.popcount m >= 1)

let swarm_groups = [| [| "r0"; "r1"; "r2" |] |]
let swarm_clients = [ "c0"; "c1" ]

let swarm_run ~unsafe ~seed script =
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        n_replicas = 3;
        n_clients = 2;
        strategy =
          (if unsafe then unsafe_strategy else Store.Strategy.majority);
        targeting = `Quorum;
        workload =
          {
            Store.Workload.default_spec with
            ops_per_client = 30;
            read_fraction = 0.5;
          };
        seed;
        script;
      }
  in
  r.Store.Cluster.audit_violations

let swarm_gen ~seed =
  Harness.Gen.script (Prng.create seed) ~groups:swarm_groups
    ~clients:swarm_clients ~horizon:300.0

let test_swarm_clean_on_safe_strategy () =
  (* randomized fault scripts must not break a legal configuration:
     quorum intersection keeps the audit clean under any schedule *)
  let failures =
    Harness.Swarm.sweep
      ~run:(fun ~seed script -> swarm_run ~unsafe:false ~seed script)
      ~gen:swarm_gen ~seeds:6 ~seed0:5000 ()
  in
  Alcotest.(check int) "no violations under majority quorums" 0
    (List.length failures)

let test_swarm_finds_and_minimizes_planted_bug () =
  let run ~seed script = swarm_run ~unsafe:true ~seed script in
  let failures =
    Harness.Swarm.sweep ~run ~gen:swarm_gen ~seeds:6 ~seed0:5000
      ~max_failures:1 ()
  in
  match failures with
  | [] -> Alcotest.fail "swarm failed to find the planted 1/1-quorum bug"
  | o :: _ ->
      let m = Harness.Swarm.minimize ~run o in
      Alcotest.(check bool)
        (Fmt.str "minimized script is strictly shorter (%d -> %d steps)"
           (List.length o.Harness.Swarm.script)
           (List.length m.Harness.Swarm.script))
        true
        (List.length m.Harness.Swarm.script
        < List.length o.Harness.Swarm.script);
      (* the minimized repro must replay to the same violations *)
      Alcotest.(check (list string))
        "minimized repro replays deterministically" m.Harness.Swarm.violations
        (run ~seed:m.Harness.Swarm.seed m.Harness.Swarm.script);
      Alcotest.(check bool) "repro line is replayable syntax" true
        (String.length (Harness.Swarm.repro_line m) > 0
        && String.sub (Harness.Swarm.repro_line m) 0 17 = "swarm repro --see")

let test_bisect_seed_range () =
  Alcotest.(check (option int))
    "finds the failing seed" (Some 13)
    (Harness.Swarm.bisect_seed_range ~fails:(fun s -> s = 13) ~lo:0 ~hi:100);
  Alcotest.(check (option int))
    "none when nothing fails" None
    (Harness.Swarm.bisect_seed_range ~fails:(fun _ -> false) ~lo:0 ~hi:64)

(* the CI artifact reads minimized[0].seed and .script back out of the
   report: every field must survive Obs.Json.parse, escapes included *)
let test_report_json_round_trip () =
  let o =
    {
      Harness.Swarm.seed = 7;
      script = Harness.Script.[ At (10.0, Crash "r0"); At (40.0, Heal) ];
      violations = [ "read saw \"7\" \\ stale\nat t=3\001"; "plain" ];
    }
  in
  let extra = "--shards 2" in
  let report =
    { Harness.Swarm.seeds = 25; seed0 = 100; failures = [ o ]; minimized = [ o ] }
  in
  match Obs.Json.parse (Harness.Swarm.report_json ~extra report) with
  | Error e -> Alcotest.failf "report_json does not parse: %s" e
  | Ok j ->
      let num k j = Option.bind (Obs.Json.member k j) Obs.Json.to_float_opt in
      let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt in
      Alcotest.(check (option (float 0.0))) "seeds" (Some 25.0) (num "seeds" j);
      Alcotest.(check (option (float 0.0))) "failing_seeds" (Some 1.0)
        (num "failing_seeds" j);
      let m =
        match Option.bind (Obs.Json.member "minimized" j) Obs.Json.to_list with
        | Some [ m ] -> m
        | _ -> Alcotest.fail "expected one minimized outcome"
      in
      Alcotest.(check (option (float 0.0))) "minimized[0].seed" (Some 7.0)
        (num "seed" m);
      Alcotest.(check (option string)) "minimized[0].script"
        (Some (Harness.Script.to_string o.script))
        (str "script" m);
      Alcotest.(check (option string)) "repro line"
        (Some (Harness.Swarm.repro_line ~extra o))
        (str "repro" m);
      Alcotest.(check (option (list string))) "violations, escapes intact"
        (Some o.violations)
        (Option.map
           (List.filter_map Obs.Json.to_string_opt)
           (Option.bind (Obs.Json.member "violations" m) Obs.Json.to_list))

let suites =
  [
    ( "harness.goldens",
      [
        Alcotest.test_case "partition storm: legacy = script = golden" `Slow
          test_partition_storm_goldens;
        Alcotest.test_case "shard kill: legacy = script = golden" `Slow
          test_shard_kill_goldens;
        Alcotest.test_case "crash storm: legacy = script = golden" `Quick
          test_crash_storm_goldens;
        Alcotest.test_case "crash storm: legacy = script (sim level)" `Quick
          test_crash_storm_equivalence;
      ] );
    ( "harness.script",
      [
        Alcotest.test_case "round-trip" `Quick test_script_round_trip;
        qcheck prop_generated_scripts_round_trip;
        Alcotest.test_case "validate rejects" `Quick
          test_script_validate_rejects;
        Alcotest.test_case "quiesces_at" `Quick test_quiesces_at;
      ] );
    ( "harness.filters",
      [
        Alcotest.test_case "per-link drop specs" `Quick test_link_filters;
        Alcotest.test_case "filters vs the rpc engine" `Quick
          test_filter_vs_engine;
      ] );
    ( "harness.failure",
      [
        qcheck prop_injector_up_fraction_converges;
        qcheck prop_injector_deterministic;
        Alcotest.test_case "set_health accounting" `Quick
          test_set_health_accounting;
        Alcotest.test_case "recover across installs" `Quick
          test_recover_across_installs;
      ] );
    ( "harness.check",
      [
        Alcotest.test_case "static quorum gate" `Quick test_quorum_ok;
        Alcotest.test_case "liveness after heal" `Quick
          test_liveness_after_heal;
      ] );
    ( "harness.swarm",
      [
        Alcotest.test_case "safe strategy stays clean" `Slow
          test_swarm_clean_on_safe_strategy;
        Alcotest.test_case "finds + minimizes the planted bug" `Slow
          test_swarm_finds_and_minimizes_planted_bug;
        Alcotest.test_case "seed-range bisection" `Quick
          test_bisect_seed_range;
        Alcotest.test_case "report_json round-trips" `Quick
          test_report_json_round_trip;
      ] );
  ]
