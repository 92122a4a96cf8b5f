(* Micro-benchmarks: one Bechamel test per experiment id of DESIGN.md,
   plus the ablations DESIGN.md calls out (list-based vs bitmask
   quorum checks, 2PL vs MVTO vs no-CC).

   Absolute numbers depend on the host; the benches exist to (a) keep
   every hot path exercised and regression-visible, and (b) regenerate
   the per-experiment timing columns of EXPERIMENTS.md. *)

open Bechamel
open Toolkit
open Ioa
module Prng = Qc_util.Prng

(* ---------- fixtures (built once, outside the staged closures) ---------- *)

let fixture_seed = 1234

let quorum_description =
  let rng = Prng.create fixture_seed in
  Quorum.Gen.description rng

let quorum_schedule =
  (Quorum.Harness.run_b ~seed:fixture_seed quorum_description).System.schedule

let recon_description =
  let rng = Prng.create fixture_seed in
  Recon.Gen.description rng

let recon_schedule =
  (Recon.Harness.run ~seed:fixture_seed recon_description).System.schedule

let cc_description =
  let rng = Prng.create fixture_seed in
  Cc.Harness.concurrent_root rng (Quorum.Gen.description rng) ~extra_tops:3

let dms7 = List.init 7 (fun i -> Fmt.str "d%d" i)
let majority7 = Quorum.Config.majority dms7
let majority7_mask = Store.Strategy.majority 7

let scheduler_state =
  (* a scheduler mid-flight, for stepping *)
  let open Serial.Scheduler in
  let st = initial_state in
  let st = Option.get (transition st (Action.Create Txn.root)) in
  Option.get (transition st (Action.Request_create [ Txn.Seg "t" ]))

(* ---------- the tests ---------- *)

let t_f1_build_system_b =
  Test.make ~name:"F1 build system B"
    (Staged.stage (fun () -> Quorum.System_b.build quorum_description))

let t_f2_build_system_a =
  Test.make ~name:"F2 build system A"
    (Staged.stage (fun () -> Quorum.System_a.build quorum_description))

let t_e5_wellformed =
  Test.make ~name:"E5 well-formedness check"
    (Staged.stage (fun () ->
         Quorum.System_b.check_wellformed quorum_description quorum_schedule))

let t_e7_e8_invariants =
  Test.make ~name:"E7-E8 invariant check"
    (Staged.stage (fun () ->
         Quorum.Invariants.check quorum_description quorum_schedule))

let t_e10_simulation =
  Test.make ~name:"E10 Theorem 10 simulation"
    (Staged.stage (fun () ->
         Quorum.Simulation.check quorum_description quorum_schedule))

let t_e12_recon_invariants =
  Test.make ~name:"E12 recon invariant check"
    (Staged.stage (fun () ->
         Recon.Invariants.check recon_description recon_schedule))

let t_e12_recon_simulation =
  Test.make ~name:"E12 recon simulation"
    (Staged.stage (fun () ->
         Recon.Simulation.check recon_description recon_schedule))

let t_scheduler_step =
  Test.make ~name:"serial scheduler step"
    (Staged.stage (fun () ->
         Serial.Scheduler.transition scheduler_state
           (Action.Create [ Txn.Seg "t" ])))

let t_run_system_b =
  Test.make ~name:"drive system B to quiescence"
    (Staged.stage (fun () ->
         Quorum.Harness.run_b ~seed:fixture_seed quorum_description))

let t_run_recon =
  Test.make ~name:"drive recon system to quiescence"
    (Staged.stage (fun () ->
         Recon.Harness.run ~seed:fixture_seed recon_description))

(* ablation: list-of-quorums coverage vs bitmask coverage *)
let t_ablate_config_lists =
  Test.make ~name:"ablation: quorum coverage (lists)"
    (Staged.stage (fun () ->
         Quorum.Config.read_covered majority7 [ "d1"; "d3"; "d5"; "d6" ]))

let t_ablate_config_bitmask =
  Test.make ~name:"ablation: quorum coverage (bitmask)"
    (Staged.stage (fun () -> majority7_mask.Store.Strategy.read_ok 0b1101010))

let t_config_legal =
  Test.make ~name:"configuration legality (majority-7)"
    (Staged.stage (fun () -> Quorum.Config.legal majority7))

let t_availability_analytic =
  Test.make ~name:"Q1 analytic availability (n=7)"
    (Staged.stage (fun () ->
         Store.Strategy.availability majority7_mask ~p:0.9))

(* ablation: the three concurrency-control modes on the same input *)
let cc_bench mode name =
  Test.make ~name
    (Staged.stage (fun () ->
         Cc.Engine.run
           (Cc.Engine.create ~abort_rate:0.01 ~mode ~seed:fixture_seed
              cc_description)))

let t_cc_2pl = cc_bench `TwoPL "E11 concurrent run (2PL)"
let t_cc_mvto = cc_bench `Mvto "E11 concurrent run (MVTO)"
let t_cc_nocc = cc_bench `NoCC "ablation: concurrent run (no CC)"

let t_locks_cycle =
  Test.make ~name:"2PL acquire-commit cycle"
    (Staged.stage (fun () ->
         let l = Cc.Locks.create () in
         let who : Txn.t = [ Txn.Seg "t" ] in
         ignore
           (Cc.Locks.try_write l ~obj:"o" ~initial:Value.Nil ~who (Value.Int 1));
         Cc.Locks.commit l who))

let t_mvto_cycle =
  Test.make ~name:"MVTO write-commit cycle"
    (Staged.stage (fun () ->
         let m = Cc.Mvto.create () in
         let who : Txn.t = [ Txn.Seg "t" ] in
         ignore
           (Cc.Mvto.try_write m ~obj:"o" ~initial:Value.Nil ~who (Value.Int 1));
         Cc.Mvto.commit m who))

let t_sim_events =
  Test.make ~name:"simulator: 10k timer events"
    (Staged.stage (fun () ->
         let sim = Sim.Core.create ~seed:1 in
         let rec chain n =
           if n > 0 then
             Sim.Core.schedule sim ~delay:1.0 (fun () -> chain (n - 1))
         in
         chain 10_000;
         Sim.Core.run sim))

(* The event queue under the kv_readmostly mix, with no simulator
   around it: 17 live entries; each pop is followed by a push at a
   lognormal delay (drawn ahead into a ring, so the row times the
   queue, not the draw), and every 12 pops one timer is added at +100
   and cancelled six pops later — 13 adds per 12 pops, as a delivery
   schedules the next message and an op arms and cancels its
   timeout.  One run is 12 pops. *)
let queue_delays =
  let rng = Prng.create fixture_seed in
  Array.init 4096 (fun _ -> Prng.lognormal rng ~mu:1.0 ~sigma:0.5)

let t_event_queue =
  let q = Sim.Heap.create () and seq = ref 0 in
  let push now =
    Sim.Heap.push q (now +. queue_delays.(!seq land 4095)) !seq ();
    incr seq
  in
  for _ = 1 to 17 do
    push 0.0
  done;
  Test.make ~name:"simulator: event queue, kv_readmostly mix"
    (Staged.stage (fun () ->
         let timer = ref Sim.Heap.none in
         for i = 0 to 11 do
           let now = Sim.Heap.min_time q in
           Sim.Heap.take q;
           push now;
           if i = 0 then begin
             timer := Sim.Heap.add q (now +. 100.0) !seq ();
             incr seq
           end
           else if i = 6 then ignore (Sim.Heap.cancel q !timer : bool)
         done))

(* Every simulated message draws its latency from Prng.lognormal (a
   128-layer ziggurat normal, then one exp); the bare uniform draw
   beside it is the floor any draw pays. *)
let draw_rng = Prng.create fixture_seed

let t_lognormal_draw =
  Test.make ~name:"S6 lognormal latency draw"
    (Staged.stage (fun () -> Prng.lognormal draw_rng ~mu:1.0 ~sigma:0.5))

let t_uniform_draw =
  Test.make ~name:"S6 uniform draw"
    (Staged.stage (fun () -> Prng.float draw_rng))

let t_store_ops =
  Test.make ~name:"Q2 store: small cluster run"
    (Staged.stage (fun () ->
         Store.Cluster.run
           {
             Store.Cluster.default_params with
             workload = { Store.Workload.default_spec with ops_per_client = 25 };
             seed = fixture_seed;
           }))

let t_exhaustive =
  (* exhaustive verification of a small instance: all abort-free
     schedules of the 2-DM majority write+read system *)
  let item =
    Quorum.Item.make ~name:"x" ~dms:[ "d0"; "d1" ]
      ~config:(Quorum.Config.majority [ "d0"; "d1" ])
      ~initial:(Value.Int 0)
  in
  let d =
    {
      Quorum.Description.items = [ item ];
      raw_objects = [];
      root_script =
        {
          Serial.User_txn.children =
            [
              Serial.User_txn.Sub
                ( "t",
                  {
                    Serial.User_txn.children =
                      [
                        Serial.User_txn.Access_child
                          (Txn.Access
                             { obj = "x"; kind = Txn.Write; data = Value.Int 1; seq = 0 });
                      ];
                    ordered = true;
                    eager = false;
                    returns = Serial.User_txn.return_all;
                  } );
            ];
          ordered = true;
          eager = false;
          returns = Serial.User_txn.return_nil;
        };
    }
  in
  Test.make ~name:"EX exhaustive walk (small instance)"
    (Staged.stage (fun () -> Quorum.Explore.check_description d))

let t_adt_merge =
  let entries k =
    List.init k (fun i ->
        {
          Adt.Replica.ts = { Adt.Timestamp.time = i; client = "c"; seq = i };
          op = Adt.Spec.Inc 1;
        })
  in
  let a = entries 100 in
  let b =
    List.map
      (fun (e : Adt.Replica.entry) ->
        { e with Adt.Replica.ts = { e.Adt.Replica.ts with Adt.Timestamp.client = "d" } })
      a
  in
  Test.make ~name:"E13 ADT log merge (2x100 entries)"
    (Staged.stage (fun () -> Adt.Replica.merge a b))

let t_adt_replay =
  let ops = List.init 200 (fun _ -> Adt.Spec.Inc 1) in
  Test.make ~name:"E13 ADT replay (200 ops)"
    (Staged.stage (fun () -> Adt.Spec.replay ops))

let t_vp_view_change =
  Test.make ~name:"E14 VP state merge (5 replicas, 64 keys)"
    (Staged.stage
       (let states =
          List.init 5 (fun r ->
              List.init 64 (fun k -> (Fmt.str "k%d" k, (r, r * 10))))
        in
        fun () -> Vp.Manager.merge_states states))

(* ablation: the RPC engine's retry+hedge policy vs fire-once, same
   lossy cluster — what robustness costs on the hot path *)
let lossy_cluster_params policy =
  {
    Store.Cluster.default_params with
    targeting = `Quorum;
    policy;
    loss = 0.2;
    workload = { Store.Workload.default_spec with ops_per_client = 25 };
    seed = fixture_seed;
  }

let t_rpc_fire_once =
  Test.make ~name:"ablation: lossy cluster, fire-once RPC"
    (Staged.stage (fun () ->
         Store.Cluster.run (lossy_cluster_params Rpc.Policy.default)))

let t_rpc_retry_hedge =
  Test.make ~name:"ablation: lossy cluster, retry+hedge RPC"
    (Staged.stage (fun () ->
         Store.Cluster.run
           (lossy_cluster_params
              (Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0))))

(* the routing layer: one keyspace split four ways, with and without
   multi-key batching — the message-economy numbers of DESIGN.md §10 *)
let sharded_cluster_params batch_window =
  {
    Store.Cluster.default_params with
    n_replicas = 3;
    n_clients = 4;
    n_shards = 4;
    shard_scheme = `Range;
    batch_window;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 25;
        zipf_s = 1.1;
        burst = 8;
      };
    seed = fixture_seed;
  }

let t_sharded_unbatched =
  Test.make ~name:"Q3 sharded cluster run (4 shards, unbatched)"
    (Staged.stage (fun () ->
         Store.Cluster.run (sharded_cluster_params None)))

let t_sharded_batched =
  Test.make ~name:"Q3 sharded cluster run (4 shards, batched)"
    (Staged.stage (fun () ->
         Store.Cluster.run (sharded_cluster_params (Some 1.0))))

(* the replica-side apply pipeline: same sharded cluster with a
   storage device attached — per-install fsync vs group commit — and
   the AIMD-controlled batching window *)
let storage_cluster_params group_commit =
  {
    (sharded_cluster_params None) with
    Store.Cluster.storage_cost = 0.05;
    fsync_cost = 5.0;
    group_commit;
  }

let t_sharded_naive_fsync =
  Test.make ~name:"IO sharded cluster run (per-install fsync)"
    (Staged.stage (fun () ->
         Store.Cluster.run (storage_cluster_params false)))

let t_sharded_group_commit =
  Test.make ~name:"IO sharded cluster run (group commit)"
    (Staged.stage (fun () ->
         Store.Cluster.run (storage_cluster_params true)))

(* the fault-schedule layer on the hot path: the same sharded cluster
   under a scripted rolling partition — each shard in turn isolated
   from the rest for 30 time units, healed before the next window
   opens.  Deterministic (pure timed steps, no storm PRNG), so the
   bench measures the script interpreter + fault handling, not noise. *)
let rolling_partition_script =
  let groups =
    Array.init 4 (fun s -> List.init 3 (fun i -> Fmt.str "s%d:r%d" s i))
  in
  let all = List.concat (Array.to_list groups) in
  List.concat
    (List.init 4 (fun s ->
         let side = groups.(s) in
         let rest = List.filter (fun n -> not (List.mem n side)) all in
         let t0 = 40.0 +. (60.0 *. float_of_int s) in
         [
           Harness.Script.At (t0, Harness.Script.Partition [ side; rest ]);
           Harness.Script.At (t0 +. 30.0, Harness.Script.Heal);
         ]))

let t_scripted_rolling_partition =
  Test.make ~name:"Q4 scripted rolling partition (4 shards)"
    (Staged.stage (fun () ->
         Store.Cluster.run
           {
             (sharded_cluster_params None) with
             Store.Cluster.script = rolling_partition_script;
           }))

let t_sharded_adaptive_window =
  Test.make ~name:"Q3 sharded cluster run (4 shards, adaptive window)"
    (Staged.stage (fun () ->
         Store.Cluster.run
           {
             (sharded_cluster_params None) with
             Store.Cluster.adaptive_window = Some Rpc.Window.default_config;
           }))

(* the tuning layer: the analytic optimizer sweep (every candidate
   family scored and admitted), the steering pick over a quorum set,
   and a full cluster run with the optimizer + steering enabled — what
   workload-awareness costs on the hot path vs Q2's static majority *)
let t_tune_choose =
  Test.make ~name:"T1 optimizer sweep (n=5 candidates)"
    (Staged.stage (fun () ->
         Store.Autotune.choose ~read_fraction:0.9 ~lat:(fun _ -> 1.0) 5))

let steer_masks = (Store.Strategy.quorums majority7_mask `Read).minimal

let steer_stats =
  let ewma = Store.Ewma.create ~n:7 in
  for i = 0 to 6 do
    Store.Ewma.observe ewma i (1.0 +. (0.1 *. float_of_int i))
  done;
  {
    Store.Steer.ewma;
    queue_depth = (fun i -> float_of_int (i mod 3));
    steer = true;
  }

let t_tune_steer =
  Test.make ~name:"T2 steering pick (majority-7 quorums)"
    (Staged.stage (fun () -> Store.Steer.best steer_stats steer_masks))

let t_tuned_cluster =
  Test.make ~name:"T3 tuned cluster run (optimizer + steering)"
    (Staged.stage (fun () ->
         Store.Cluster.run
           {
             Store.Cluster.default_params with
             targeting = `Quorum;
             workload = { Store.Workload.default_spec with ops_per_client = 25 };
             tune = Some Store.Cluster.default_tune_spec;
             seed = fixture_seed;
           }))

let all_tests =
  [
    t_f1_build_system_b;
    t_f2_build_system_a;
    t_e5_wellformed;
    t_e7_e8_invariants;
    t_e10_simulation;
    t_e12_recon_invariants;
    t_e12_recon_simulation;
    t_scheduler_step;
    t_run_system_b;
    t_run_recon;
    t_ablate_config_lists;
    t_ablate_config_bitmask;
    t_config_legal;
    t_availability_analytic;
    t_cc_2pl;
    t_cc_mvto;
    t_cc_nocc;
    t_locks_cycle;
    t_mvto_cycle;
    t_sim_events;
    t_event_queue;
    t_lognormal_draw;
    t_uniform_draw;
    t_store_ops;
    t_exhaustive;
    t_adt_merge;
    t_adt_replay;
    t_vp_view_change;
    t_rpc_fire_once;
    t_rpc_retry_hedge;
    t_sharded_unbatched;
    t_sharded_batched;
    t_sharded_naive_fsync;
    t_sharded_group_commit;
    t_sharded_adaptive_window;
    t_scripted_rolling_partition;
    t_tune_choose;
    t_tune_steer;
    t_tuned_cluster;
  ]

let test_name t = Test.Elt.name (List.hd (Test.elements t))

let select only =
  match only with
  | None -> all_tests
  | Some sub ->
      let has_sub name =
        let n = String.length name and m = String.length sub in
        let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
        go 0
      in
      List.filter (fun t -> has_sub (test_name t)) all_tests

(* ---------- runner ---------- *)

let benchmark ~quota tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"quorum_nested" tests)
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

(* OBS_TRACE=FILE dumps a Chrome trace of a small seeded cluster run
   alongside the benchmarks — the per-operation window into what the
   bench numbers aggregate. *)
let dump_trace_if_asked () =
  match Sys.getenv_opt "OBS_TRACE" with
  | None -> ()
  | Some path ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            workload = { Store.Workload.default_spec with ops_per_client = 25 };
            seed = fixture_seed;
            trace_capacity = 262144;
          }
      in
      (try
         Obs.Export.write_chrome path r.Store.Cluster.trace;
         Fmt.epr "OBS_TRACE: wrote %d events to %s@."
           (Obs.Trace.length r.Store.Cluster.trace)
           path
       with Sys_error e -> Fmt.epr "OBS_TRACE: cannot write trace: %s@." e)

(* machine-readable results, for CI artifacts: a stable little JSON
   document (a non-finite estimate becomes null) *)
let write_json oc ~quota rows =
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("suite", Obs.Json.Str "quorum_nested");
            ("quota_s", Obs.Json.Num quota);
            ("unit", Obs.Json.Str "ns/run");
            ( "benchmarks",
              Obs.Json.List
                (List.map
                   (fun (name, est) ->
                     Obs.Json.Obj
                       [
                         ("name", Obs.Json.Str name);
                         ( "ns_per_run",
                           Obs.Json.Num (Float.round (est *. 10.0) /. 10.0) );
                       ])
                   rows) );
          ]));
  output_string oc "\n";
  close_out oc

(* A bad --quota or an unwritable --json is a usage error (exit 2)
   before any work: a zero quota measures nothing, a non-finite or
   negative one never ends, and a report path that fails only after
   the whole selection has run wastes the run. *)
let run_benchmarks only quota list_only json_file =
  let tests = select only in
  if not (Float.is_finite quota && quota > 0.0) then begin
    Fmt.epr "bench: --quota must be a finite number of seconds > 0 (got %g)@."
      quota;
    2
  end
  else if list_only then begin
    List.iter (fun t -> Fmt.pr "%s@." (test_name t)) tests;
    0
  end
  else if tests = [] then begin
    Fmt.epr "no benchmark matches %s@." (Option.value ~default:"" only);
    1
  end
  else
    match Option.map (fun path -> (path, open_out path)) json_file with
    | exception Sys_error e ->
        Fmt.epr "bench: cannot write %s@." e;
        2
    | out ->
        dump_trace_if_asked ();
        let results = benchmark ~quota tests in
        Fmt.pr "%-55s %18s@." "benchmark" "ns/run";
        Fmt.pr "%s@." (String.make 74 '-');
        let clock = Measure.label Instance.monotonic_clock in
        let rows =
          match Hashtbl.find_opt results clock with
          | None -> []
          | Some tbl ->
              List.sort compare
                (Hashtbl.fold
                   (fun name ols acc ->
                     match Analyze.OLS.estimates ols with
                     | Some [ est ] -> (name, est) :: acc
                     | Some _ | None -> (name, nan) :: acc)
                   tbl [])
        in
        if rows = [] then Fmt.pr "no results@."
        else
          List.iter (fun (name, est) -> Fmt.pr "%-55s %18.1f@." name est) rows;
        Option.iter
          (fun (path, oc) ->
            write_json oc ~quota rows;
            Fmt.epr "wrote %d benchmark results to %s@." (List.length rows) path)
          out;
        0

open Cmdliner

let only =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"SUBSTRING"
        ~doc:"Run only the benchmarks whose name contains $(docv).")

let quota =
  Arg.(
    value & opt float 0.5
    & info [ "quota" ] ~docv:"SECONDS"
        ~doc:"Measurement time budget per benchmark.")

let list_only =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"List the selected benchmark names and exit.")

let json_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the results as JSON to $(docv).")

let () =
  let doc = "Micro-benchmarks for the quorum_nested experiment index" in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "bench" ~doc)
          Term.(const run_benchmarks $ only $ quota $ list_only $ json_file)))
