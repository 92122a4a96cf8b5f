(* Tests for the replicated store: strategies (legality, analytic
   availability), the quorum client protocol, cluster consistency
   audits, and the experiment shapes the paper's claims predict. *)

module Prng = Qc_util.Prng
module Strategy = Store.Strategy

(* ---------- strategies ---------- *)

let test_strategy_legal () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " legal") true (Strategy.legal s))
    [
      ("rowa", Strategy.rowa 5);
      ("majority-5", Strategy.majority 5);
      ("majority-4", Strategy.majority 4);
      ("grid", Strategy.grid ~rows:2 ~cols:3);
      ("primary", Strategy.primary 3);
      ( "weighted",
        Strategy.weighted ~name:"w" ~votes:[| 2; 1; 1 |] ~r:2 ~w:3 );
    ]

let test_strategy_min_quorums () =
  let s = Strategy.rowa 5 in
  Alcotest.(check int) "rowa min read" 1 (Strategy.min_read s);
  Alcotest.(check int) "rowa min write" 5 (Strategy.min_write s);
  let m = Strategy.majority 5 in
  Alcotest.(check int) "majority min read" 3 (Strategy.min_read m);
  Alcotest.(check int) "majority min write" 3 (Strategy.min_write m);
  let g = Strategy.grid ~rows:2 ~cols:3 in
  Alcotest.(check int) "grid min read = cols" 3 (Strategy.min_read g);
  (* one full row (3) + one per other row (1) *)
  Alcotest.(check int) "grid min write" 4 (Strategy.min_write g)

let test_strategy_weighted_rejects () =
  Alcotest.check_raises "r+w<=v"
    (Invalid_argument "Strategy.weighted: r + w must exceed v") (fun () ->
      ignore (Strategy.weighted ~name:"bad" ~votes:[| 1; 1; 1 |] ~r:1 ~w:2))

let prop_weighted_strategies_legal =
  QCheck.Test.make ~count:200 ~name:"random weighted strategies legal"
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let votes = Array.init n (fun _ -> 1 + Prng.int rng 3) in
      let total = Array.fold_left ( + ) 0 votes in
      let r = 1 + Prng.int rng total in
      let w = total - r + 1 in
      Strategy.legal (Strategy.weighted ~name:"w" ~votes ~r ~w))

(* analytic availability: closed forms for the classical schemes *)
let test_availability_closed_forms () =
  let p = 0.9 and n = 5 in
  let read_rowa, write_rowa = Strategy.availability (Strategy.rowa n) ~p in
  (* read-one: 1 - (1-p)^n; write-all: p^n *)
  Alcotest.(check (float 1e-9)) "rowa read" (1.0 -. ((1.0 -. p) ** 5.0)) read_rowa;
  Alcotest.(check (float 1e-9)) "rowa write" (p ** 5.0) write_rowa;
  let read_m, write_m = Strategy.availability (Strategy.majority n) ~p in
  Alcotest.(check (float 1e-9)) "majority symmetric" read_m write_m;
  let read_p, write_p = Strategy.availability (Strategy.primary n) ~p in
  Alcotest.(check (float 1e-9)) "primary read = p" p read_p;
  Alcotest.(check (float 1e-9)) "primary write = p" p write_p

let test_availability_ordering () =
  (* the paper-predicted shape at any p in (0,1): read availability
     rowa >= majority; write availability majority >= rowa *)
  List.iter
    (fun p ->
      let r_rowa, w_rowa = Strategy.availability (Strategy.rowa 5) ~p in
      let r_maj, w_maj = Strategy.availability (Strategy.majority 5) ~p in
      Alcotest.(check bool) "rowa reads win" true (r_rowa >= r_maj);
      Alcotest.(check bool) "majority writes win" true (w_maj >= w_rowa))
    [ 0.5; 0.7; 0.9; 0.99 ]

(* Differential oracle for the cached quorum lists: the quadratic
   filter [Strategy.quorums] used before its per-bit test — a mask is
   a minimal quorum iff it satisfies [ok] and no other satisfying mask
   lies inside it — listed from the full set down, the order the
   client's random pick indexes.  Cardinalities and the pairwise
   intersection check are recomputed here too, sharing nothing with
   [Strategy]. *)
let rec bits m = if m = 0 then 0 else (m land 1) + bits (m lsr 1)

let quadratic_minimal ok n =
  let top = (1 lsl n) - 1 in
  let masks = List.filter ok (List.init top (fun i -> top - i)) in
  List.filter (fun q -> not (List.exists (fun q' -> q' <> q && q' land lnot q = 0) masks)) masks

let check_cached_quorums (s : Strategy.t) =
  let n = s.Strategy.n and name = s.Strategy.name in
  List.iter
    (fun (side, label, ok, min_size) ->
      let q = Strategy.quorums s side in
      let minimal = quadratic_minimal ok n in
      let size = List.fold_left (fun acc m -> min acc (bits m)) n minimal in
      Alcotest.(check (list int)) (name ^ label ^ " minimal") minimal
        q.Strategy.minimal;
      Alcotest.(check (list int))
        (name ^ label ^ " smallest")
        (List.filter (fun m -> bits m = size) minimal)
        q.Strategy.smallest;
      Alcotest.(check int) (name ^ label ^ " min size") size min_size)
    [
      (`Read, " read", s.Strategy.read_ok, Strategy.min_read s);
      (`Write, " write", s.Strategy.write_ok, Strategy.min_write s);
    ];
  let top = (1 lsl n) - 1 and disjoint = ref false in
  for r = 0 to top do
    for w = 0 to top do
      if r land w = 0 && s.Strategy.read_ok r && s.Strategy.write_ok w then
        disjoint := true
    done
  done;
  Alcotest.(check bool) (name ^ " legal") (not !disjoint) (Strategy.legal s)

let test_cached_quorums () =
  let candidates = List.concat_map Store.Autotune.candidates [ 1; 2; 3; 4; 5; 6; 7 ] in
  let five = Store.Autotune.candidates 5 in
  let joints =
    List.concat_map (fun a -> List.map (Store.Autotune.joint a) five) five
  in
  let at_least_one n =
    (* swarm's planted bug: read-1/write-1 quorums need not meet *)
    Strategy.make ~name:"unsafe-1/1" ~n
      ~read_ok:(fun m -> m <> 0)
      ~write_ok:(fun m -> m <> 0)
  in
  let empty_read =
    (* only the empty read set is a read quorum: illegal, and no
       non-empty minimal read quorum exists *)
    Strategy.make ~name:"empty-read" ~n:3
      ~read_ok:(fun m -> m = 0)
      ~write_ok:(fun m -> m = 7)
  in
  List.iter check_cached_quorums
    (candidates @ joints @ [ at_least_one 3; at_least_one 5; empty_read ]);
  Alcotest.(check bool) "unsafe-1/1 illegal" false
    (Strategy.legal (at_least_one 3));
  Alcotest.(check bool) "empty read set caught" false (Strategy.legal empty_read);
  Alcotest.(check int) "unsatisfiable side sizes to n" 3
    (Strategy.min_read empty_read)

(* qcheck: the same oracle on the shipped families and their joint
   transition strategies, n <= 10 *)
let prop_minimal_matches_quadratic =
  QCheck.Test.make ~count:100 ~name:"minimal quorums match the quadratic filter"
    QCheck.(triple (int_range 1 10) small_nat small_nat)
    (fun (n, i, j) ->
      let cs = Store.Autotune.candidates n in
      let pick k = List.nth cs (k mod List.length cs) in
      let matches s side ok = (Strategy.quorums s side).minimal = quadratic_minimal ok n in
      List.for_all
        (fun (s : Strategy.t) -> matches s `Read s.read_ok && matches s `Write s.write_ok)
        [ pick i; Store.Autotune.joint (pick i) (pick j) ])

(* ---------- zipf ---------- *)

let test_zipf_monotone_cdf () =
  let z = Store.Workload.zipf ~n:50 ~s:1.0 in
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let k = Store.Workload.sample z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 50)
  done

let test_zipf_skew () =
  let z = Store.Workload.zipf ~n:50 ~s:1.2 in
  let rng = Prng.create 4 in
  let hits = Array.make 50 0 in
  for _ = 1 to 10_000 do
    let k = Store.Workload.sample z rng in
    hits.(k) <- hits.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (hits.(0) > hits.(10));
  Alcotest.(check bool) "rank 0 much hotter than tail" true
    (hits.(0) > 5 * max 1 hits.(40))

(* Within one world, every key an operation or a transaction footprint
   names is [key_name] of its rank, and the same physical string each
   time: ranks are named once.  A write owner's fallback past the ranks
   (a client index at or above [n_keys]) is still [key_name]. *)
let test_key_names_made_once () =
  let module W = Store.Workload in
  let n = 12 in
  let spec = { W.default_spec with n_keys = n; read_fraction = 0.5 } in
  let z = W.zipf ~n ~s:1.1 and rng = Prng.create 5 in
  let ranks = List.init 16 Fun.id in
  let rank k =
    match List.find_opt (fun r -> String.equal k (W.key_name r)) ranks with
    | Some r -> r
    | None -> Alcotest.failf "key %S is no key_name" k
  in
  let check_key k =
    let r = rank k in
    if r < n then
      Alcotest.(check bool)
        (Fmt.str "%s is the world's one name for rank %d" k r)
        true
        (k == W.name z r)
  in
  for i = 0 to 999 do
    match W.next_op spec z rng ~ci:(i mod 16) ~n_clients:16 ~op_counter:i with
    | W.Read k | W.Write (k, _) -> check_key k
  done;
  for _ = 1 to 200 do
    let keys = W.footprint z rng ~size:3 in
    Alcotest.(check int) "three keys" 3 (List.length keys);
    Alcotest.(check int) "distinct" 3
      (List.length (List.sort_uniq String.compare keys));
    List.iter check_key keys
  done;
  for r = 0 to n - 1 do
    Alcotest.(check string) "name is key_name" (W.key_name r) (W.name z r)
  done;
  Alcotest.(check string) "past the ranks" "k15" (W.name z 15)

(* A footprint over a thin Zipf tail is still full: once the draws run
   out it takes the lowest ranks not drawn yet.  The fill draws
   nothing, so the drawn prefix and the stream after it match the
   draw-only loop (copied here as it stood before the fill). *)
let test_footprint_fills_thin_tail () =
  let module W = Store.Workload in
  let draw_only z rng ~size =
    let keys = ref [] and have = ref 0 and tries = ref 0 in
    while !have < size && !tries < 100 * size do
      incr tries;
      let k = W.name z (W.sample z rng) in
      if not (List.mem k !keys) then begin
        keys := k :: !keys;
        incr have
      end
    done;
    List.rev !keys
  in
  List.iter
    (fun (n, size, s, count) ->
      let z = W.zipf ~n ~s in
      let rng = Prng.create 11 and rng' = Prng.create 11 in
      for i = 1 to count do
        let keys = W.footprint z rng ~size and drawn = draw_only z rng' ~size in
        let what = Fmt.str "n=%d size=%d s=%g #%d" n size s i in
        Alcotest.(check int) (what ^ ": full") size (List.length keys);
        let fill =
          List.init n W.key_name
          |> List.filter (fun k -> not (List.mem k drawn))
          |> List.filteri (fun j _ -> j < size - List.length drawn)
        in
        Alcotest.(check (list string))
          (what ^ ": the draws, then the lowest ranks not drawn")
          (drawn @ fill) keys;
        Alcotest.(check (float 0.0)) (what ^ ": same stream after") (Prng.float rng')
          (Prng.float rng)
      done)
    [ (256, 256, 2.0, 10); (16, 16, 2.0, 200); (16, 3, 0.9, 200) ]

(* ---------- cluster consistency audit ---------- *)

let test_cluster_audit_clean () =
  (* across strategies, seeds, and failure regimes: zero violations *)
  List.iter
    (fun (name, strat, failures) ->
      List.iter
        (fun seed ->
          let r =
            Store.Cluster.run
              {
                Store.Cluster.default_params with
                strategy = strat;
                failures;
                seed;
                workload =
                  { Store.Workload.default_spec with ops_per_client = 150 };
              }
          in
          Alcotest.(check (list string))
            (Fmt.str "%s seed %d clean" name seed)
            [] r.Store.Cluster.audit_violations)
        [ 1; 2; 3 ])
    [
      ("majority", Store.Strategy.majority, None);
      ("rowa", Store.Strategy.rowa, None);
      ("grid", (fun _ -> Store.Strategy.grid ~rows:2 ~cols:3), None);
      ( "majority+failures",
        Store.Strategy.majority,
        Some { Sim.Failure.mtbf = 300.0; mttr = 60.0 } );
      ( "rowa+failures",
        Store.Strategy.rowa,
        Some { Sim.Failure.mtbf = 300.0; mttr = 60.0 } );
    ]

(* A crash storm runs in the background: the run ends with its
   workload — within one op timeout of the last completion (a late
   reply or a storage write may still land) — instead of draining the
   storm to a far horizon.  Both the legacy knob and the script. *)
let test_crash_storm_run_ends_with_workload () =
  let spec = { Sim.Failure.mtbf = 300.0; mttr = 60.0 } in
  List.iter
    (fun (label, failures, script) ->
      List.iter
        (fun seed ->
          let p =
            {
              Store.Cluster.default_params with
              failures;
              script;
              seed;
              workload =
                { Store.Workload.default_spec with ops_per_client = 150 };
            }
          in
          let r = Store.Cluster.run p in
          let last =
            List.fold_left
              (fun acc (t, _) -> Float.max acc t)
              0.0 r.Store.Cluster.completions
          in
          Alcotest.(check int)
            (Fmt.str "%s seed %d: every op completed" label seed)
            (p.n_clients * 150)
            (List.length r.Store.Cluster.completions);
          Alcotest.(check bool)
            (Fmt.str "%s seed %d: ends at %g, last completion %g" label seed
               r.Store.Cluster.duration last)
            true
            (r.Store.Cluster.duration >= last
            && r.Store.Cluster.duration <= last +. p.timeout))
        [ 1; 2; 3 ])
    [
      ("failures", Some spec, []);
      ("script", None, Harness.Script.of_failures spec);
    ]

(* Bursts of 8 over 4 keys and 4 clients: each client owns exactly one
   key, so every write after a burst's first is demoted to a read.
   Pinned so the burst loop's draw order and demotion stay exact. *)
let test_burst_demotion_golden () =
  let ops = 64 and burst = 8 in
  let p =
    {
      Store.Cluster.default_params with
      workload =
        {
          Store.Workload.default_spec with
          ops_per_client = ops;
          n_keys = 4;
          read_fraction = 0.2;
          burst;
        };
    }
  in
  let r = Store.Cluster.run p in
  Alcotest.(check (list string))
    "audit clean" [] r.Store.Cluster.audit_violations;
  Alcotest.(check bool) "at most one write per client per burst" true
    (r.Store.Cluster.ok_writes + r.Store.Cluster.failed_writes
    <= p.n_clients * (ops / burst));
  Alcotest.(check string) "digest pinned" "d0dde40b6cdae622ffa5cc72e64e8736"
    (Store.Cluster.digest r)

(* The health sampler's schedule: how many snapshots, and when the
   last one was taken, on a single-key and on a transaction run. *)
let test_health_schedule_pinned () =
  let check label p count last_at =
    let snaps = (Store.Cluster.run p).Store.Cluster.health in
    let last =
      List.fold_left (fun _ (s : Obs.Health.snapshot) -> s.at) nan snaps
    in
    Alcotest.(check (pair int string))
      (label ^ ": snapshots, last at")
      (count, last_at)
      (List.length snaps, Fmt.str "%h" last)
  in
  let base =
    {
      Store.Cluster.default_params with
      n_replicas = 3;
      n_shards = 2;
      health_window = Some 20.0;
      workload = { Store.Workload.default_spec with ops_per_client = 40 };
    }
  in
  check "single-key" base 112 "0x1.18p+9";
  check "txn"
    {
      base with
      txns = Some { Store.Cluster.default_txn_spec with txns_per_client = 10 };
    }
    66 "0x1.4ap+8"

(* [validate] rejects one bad value per check, and [run] raises with
   the same message; the defaults, empty workloads and the benchmark's
   four workload shapes pass. *)
let test_validate () =
  let module C = Store.Cluster in
  let module S = Harness.Script in
  let d = C.default_params in
  let txns = C.default_txn_spec and tune = C.default_tune_spec in
  let wl = Store.Workload.default_spec in
  let rejected =
    [
      ("n_shards", { d with n_shards = 0 });
      ("n_replicas", { d with n_replicas = 0 });
      ("n_replicas = 63", { d with n_replicas = 63 });
      ("n_replicas = 64", { d with n_replicas = 64 });
      ("n_clients", { d with n_clients = -1 });
      ("loss = 1", { d with loss = 1.0 });
      ("loss < 0", { d with loss = -0.1 });
      ("loss nan", { d with loss = nan });
      ("timeout", { d with timeout = 0.0 });
      ("timeout nan", { d with timeout = nan });
      ("storage_cost", { d with storage_cost = -1.0 });
      ("fsync_cost", { d with fsync_cost = infinity });
      ("batch_window", { d with batch_window = Some (-1.0) });
      ("health_window", { d with health_window = Some 0.0 });
      ( "policy",
        { d with policy = { Rpc.Policy.default with Rpc.Policy.max_attempts = 0 } }
      );
      ("adaptive_window", { d with adaptive_window = Some (Rpc.Window.fixed nan) });
      ("n_keys", { d with workload = { wl with n_keys = -3 } });
      ("zipf_s", { d with workload = { wl with zipf_s = infinity } });
      ("read_fraction", { d with workload = { wl with read_fraction = 1.5 } });
      ("think_time", { d with workload = { wl with think_time = nan } });
      ("ops_per_client", { d with workload = { wl with ops_per_client = -1 } });
      ("burst", { d with workload = { wl with burst = 0 } });
      ("trace_capacity", { d with trace_capacity = -1 });
      ("keys_per_txn", { d with txns = Some { txns with keys_per_txn = 0 } });
      ( "keys_per_txn > n_keys",
        {
          d with
          workload = { wl with n_keys = 2 };
          txns = Some { txns with keys_per_txn = 3 };
        } );
      ( "txns_per_client",
        { d with txns = Some { txns with txns_per_client = -1 } } );
      ( "txn_read_fraction",
        { d with txns = Some { txns with txn_read_fraction = -0.1 } } );
      ("txn_timeout", { d with txns = Some { txns with txn_timeout = 0.0 } });
      ("txn_retries", { d with txns = Some { txns with txn_retries = -1 } });
      ( "recovery_delay",
        { d with txns = Some { txns with recovery_delay = 0.0 } } );
      ("script", { d with script = [ S.At (0.0, S.Loss 1.5) ] });
      ("script node", { d with script = [ S.At (1.0, S.Crash "s0:r0") ] });
      ( "script client",
        {
          d with
          script =
            [ S.At (1.0, S.Link_filter { src = "c4"; dst = "r0"; spec = Drop_all }) ];
        } );
      ( "script shard",
        { d with n_shards = 2; script = [ S.At (1.0, S.Pause_shard 2) ] } );
      ("shard_kill", { d with n_shards = 2; shard_kill = Some (2, 10.0) });
      ("partitions", { d with partitions = Some 0.0 });
      ( "failures",
        { d with failures = Some { Sim.Failure.mtbf = 0.0; mttr = 1.0 } } );
      ("partitions, 1 replica", { d with n_replicas = 1; partitions = Some 40.0 });
      ( "script storm, 1 replica",
        {
          d with
          n_replicas = 1;
          script = [ S.Bipartition_storm { mean = 40.0; cycles = 4 } ];
        } );
    ]
  in
  List.iter
    (fun (label, p) ->
      match C.validate p with
      | Ok () -> Alcotest.failf "%s: accepted" label
      | Error e ->
          Alcotest.check_raises
            (label ^ ": run raises the same message")
            (Invalid_argument ("Cluster.run: " ^ e))
            (fun () -> ignore (C.run p)))
    rejected;
  (* the benchmark's four workload shapes, and its setup pass *)
  let swarm seed =
    {
      d with
      n_replicas = 3;
      n_clients = 3;
      n_shards = 4;
      targeting = `Quorum;
      policy = Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
      workload = { wl with ops_per_client = 40; read_fraction = 0.5 };
      seed;
      script =
        Harness.Gen.script (Prng.create seed)
          ~groups:(C.group_names ~n_shards:4 ~n_replicas:3)
          ~clients:(C.client_names 3) ~horizon:300.0;
    }
  in
  let accepted =
    [
      ("defaults", d);
      ("one replica", { d with n_replicas = 1 });
      ("62 replicas", { d with n_replicas = 62 });
      ("tuned", { d with tune = Some tune });
      ("no ops", { d with workload = { wl with ops_per_client = 0 } });
      ("no txns", { d with txns = Some { txns with txns_per_client = 0 } });
      ("one key, no txn spec", { d with workload = { wl with n_keys = 1 } });
      ( "keys_per_txn = n_keys",
        {
          d with
          workload = { wl with n_keys = 3 };
          txns = Some { txns with keys_per_txn = 3 };
        } );
      ("kv_readmostly", { d with workload = { wl with ops_per_client = 500 } });
      ( "kv_sharded_io",
        {
          d with
          n_replicas = 3;
          n_shards = 4;
          shard_scheme = `Range;
          workload =
            {
              wl with
              ops_per_client = 500;
              n_keys = 256;
              zipf_s = 1.1;
              read_fraction = 0.5;
              burst = 8;
            };
          adaptive_window = Some Rpc.Window.default_config;
          storage_cost = 0.05;
          fsync_cost = 5.0;
        } );
      ( "txn_paxos",
        {
          d with
          n_replicas = 3;
          n_clients = 3;
          n_shards = 3;
          workload = { wl with n_keys = 256 };
          txns = Some { txns with txns_per_client = 100; commit_mode = `Paxos };
        } );
    ]
    @ List.map
        (fun seed -> (Fmt.str "swarm_faults seed %d" seed, swarm seed))
        [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun (label, p) ->
      Alcotest.(check (result unit string))
        (label ^ " accepted") (Ok ()) (C.validate p))
    accepted

let test_cluster_grid_needs_matching_n () =
  (* grid 2x3 needs 6 replicas *)
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        n_replicas = 6;
        strategy = (fun _ -> Store.Strategy.grid ~rows:2 ~cols:3);
        workload = { Store.Workload.default_spec with ops_per_client = 50 };
      }
  in
  Alcotest.(check (list string)) "clean" [] r.Store.Cluster.audit_violations;
  Alcotest.(check bool) "ops ran" true (r.Store.Cluster.ok_reads > 0)

(* message loss stresses retransmission-free quorum assembly: ops may
   fail but never return wrong data *)
let test_cluster_lossy_network () =
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        loss = 0.2;
        timeout = 40.0;
        strategy = Store.Strategy.majority;
        workload = { Store.Workload.default_spec with ops_per_client = 150 };
      }
  in
  Alcotest.(check (list string)) "clean under loss" [] r.Store.Cluster.audit_violations

(* ---------- experiment shapes ---------- *)

let test_latency_shape () =
  let t = Store.Experiments.latency_table ~n:5 () in
  let _, rowa = Store.Experiments.find t [ "read-one/write-all" ]
  and _, maj = Store.Experiments.find t [ "majority" ] in
  Alcotest.(check bool) "rowa reads faster" true
    (rowa.Store.Cluster.reads.Sim.Stats.mean
    < maj.Store.Cluster.reads.Sim.Stats.mean);
  Alcotest.(check bool) "majority writes faster" true
    (maj.Store.Cluster.writes.Sim.Stats.mean
    < rowa.Store.Cluster.writes.Sim.Stats.mean)

let test_crossover_shape () =
  let t = Store.Experiments.crossover ~n:5 () in
  let winner f = Store.Experiments.cell t [ f ] "winner" in
  Alcotest.(check string) "write-heavy favours majority" "majority"
    (winner "0.00");
  Alcotest.(check string) "read-heavy favours rowa" "read-one/write-all"
    (winner "0.99")

let test_reconfig_shape () =
  let t = Store.Experiments.reconfig_experiment () in
  let rate phase =
    match Store.Experiments.find t [ phase ] with
    | ok, failed -> float_of_int ok /. float_of_int (ok + failed)
    | exception Not_found -> Alcotest.failf "phase %s missing" phase
  in
  Alcotest.(check bool) "healthy near-perfect" true (rate "A-healthy" > 0.98);
  Alcotest.(check bool) "failures hurt" true (rate "B-failed" < 0.8);
  Alcotest.(check bool) "reconfiguration restores" true
    (rate "D-reconfigured" > 0.95)

let test_gifford_rows () =
  let rows = (Store.Experiments.gifford_examples ()).Store.Experiments.rows in
  Alcotest.(check int) "three examples" 3 (List.length rows);
  List.iter
    (fun (labels, (strat, _)) ->
      let ar, aw = Store.Strategy.availability strat ~p:0.9 in
      Alcotest.(check bool)
        (List.hd labels ^ " availabilities in [0,1]")
        true
        (ar >= 0.0 && ar <= 1.0 && aw >= 0.0 && aw <= 1.0))
    rows;
  (* the read-optimized example reads faster than it writes *)
  let _, (_, g1) = List.hd rows in
  Alcotest.(check bool) "G1 reads cheaper" true
    (g1.Store.Cluster.reads.Sim.Stats.mean
    < g1.Store.Cluster.writes.Sim.Stats.mean)

(* ---------- failure edge cases ---------- *)

(* every replica dead: operations must fail cleanly, audit stays clean *)
let test_total_outage () =
  let sim = Sim.Core.create ~seed:3 in
  let replica_names = List.init 3 (fun i -> Fmt.str "r%d" i) in
  let net =
    Sim.Net.create ~sim ~nodes:(replica_names @ [ "c0" ]) ()
  in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  List.iter (fun r -> Sim.Net.crash net r) replica_names;
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:(Store.Strategy.majority 3) ~timeout:20.0 ()
  in
  Store.Client.attach client;
  let failures = ref 0 in
  Store.Client.read client ~key:"k" ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
      if not ok then incr failures);
  Store.Client.write client ~key:"k" ~value:1
    ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ -> if not ok then incr failures);
  Sim.Core.run sim;
  Alcotest.(check int) "both ops fail" 2 !failures

(* the install primitive used by reconfiguration migration *)
let test_install_primitive () =
  let sim = Sim.Core.create ~seed:4 in
  let replica_names = List.init 3 (fun i -> Fmt.str "r%d" i) in
  let net = Sim.Net.create ~sim ~nodes:(replica_names @ [ "c0" ]) () in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:(Store.Strategy.majority 3) ()
  in
  Store.Client.attach client;
  let read_back = ref (-1) in
  Store.Client.install client ~key:"k" ~vn:7 ~value:99
    ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
      Alcotest.(check bool) "install ok" true ok;
      Store.Client.read client ~key:"k"
        ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
          Alcotest.(check bool) "read ok" true ok;
          Alcotest.(check int) "version preserved" 7 vn;
          read_back := value));
  Sim.Core.run sim;
  Alcotest.(check int) "installed value read back" 99 !read_back

(* stale installs (lower version) must not clobber newer data *)
let test_stale_install_ignored () =
  let r = Store.Replica.create ~name:"r" () in
  Store.Replica.apply r ~key:"k" ~vn:5 ~value:50;
  (* simulate a direct stale install via the protocol handler: use a
     small net *)
  let sim = Sim.Core.create ~seed:5 in
  let net = Sim.Net.create ~sim ~nodes:[ "r"; "c" ] () in
  Store.Replica.attach r ~net;
  Sim.Net.register net ~node:"c" (fun ~src:_ _ -> ());
  Sim.Net.send net ~src:"c" ~dst:"r"
    (Store.Protocol.Install_req { rid = 0; key = "k"; vn = 3; value = 30; ctx = None });
  Sim.Core.run sim;
  Alcotest.(check (pair int int)) "newer survives" (5, 50)
    (Store.Replica.lookup r "k")

(* read repair pushes the newest version to stale replicas *)
let test_read_repair_fixes_stale () =
  let sim = Sim.Core.create ~seed:8 in
  let replica_names = List.init 3 (fun i -> Fmt.str "r%d" i) in
  let net = Sim.Net.create ~sim ~nodes:(replica_names @ [ "c0" ]) () in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  (* r2 is stale by hand *)
  let r0 = List.nth replicas 0 and r2 = List.nth replicas 2 in
  Store.Replica.apply r0 ~key:"k" ~vn:5 ~value:50;
  Store.Replica.apply (List.nth replicas 1) ~key:"k" ~vn:5 ~value:50;
  Store.Replica.apply r2 ~key:"k" ~vn:2 ~value:20;
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:
        ((* read-all so the stale replica is among the replies *)
         Store.Strategy.make ~name:"read-all" ~n:3
           ~read_ok:(fun m -> m = 0b111)
           ~write_ok:(fun m -> m <> 0))
      ~read_repair:true ()
  in
  Store.Client.attach client;
  Store.Client.read client ~key:"k" ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
      Alcotest.(check bool) "read ok" true ok;
      Alcotest.(check int) "newest version" 5 vn;
      Alcotest.(check int) "newest value" 50 value);
  Sim.Core.run sim;
  Alcotest.(check int) "repair sent" 1
    (Obs.Metrics.value client.Store.Client.repairs_sent);
  Alcotest.(check (pair int int)) "stale replica repaired" (5, 50)
    (Store.Replica.lookup r2 "k")

let test_read_repair_experiment_shape () =
  match (Store.Experiments.read_repair_experiment ()).Store.Experiments.rows with
  | [ (_, (off_mid, off_end, _)); (_, (_, on_end, on_repairs)) ] ->
      Alcotest.(check bool) "failures produce staleness" true (off_mid > 0.1);
      Alcotest.(check bool) "without repair, staleness persists" true
        (off_end >= off_mid -. 0.01);
      Alcotest.(check bool) "with repair, staleness vanishes" true
        (on_end < 0.05);
      Alcotest.(check bool) "repairs were sent" true (on_repairs > 0)
  | _ -> Alcotest.fail "expected two rows"

(* analytic availability is monotone in p for every strategy *)
let prop_availability_monotone =
  QCheck.Test.make ~count:50 ~name:"availability monotone in p"
    QCheck.(pair (float_bound_exclusive 0.49) (int_range 2 7))
    (fun (dp, n) ->
      let p1 = 0.5 -. dp and p2 = 0.5 +. dp in
      List.for_all
        (fun s ->
          let r1, w1 = Strategy.availability s ~p:p1 in
          let r2, w2 = Strategy.availability s ~p:p2 in
          r2 +. 1e-12 >= r1 && w2 +. 1e-12 >= w1)
        [ Strategy.rowa n; Strategy.majority n; Strategy.primary n ])

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "store.strategy",
      [
        Alcotest.test_case "families legal" `Quick test_strategy_legal;
        Alcotest.test_case "minimum quorum sizes" `Quick test_strategy_min_quorums;
        Alcotest.test_case "weighted validation" `Quick test_strategy_weighted_rejects;
        qcheck prop_weighted_strategies_legal;
        Alcotest.test_case "closed-form availability" `Quick
          test_availability_closed_forms;
        Alcotest.test_case "availability ordering" `Quick test_availability_ordering;
        Alcotest.test_case "cached quorums match enumeration" `Quick
          test_cached_quorums;
        qcheck prop_minimal_matches_quadratic;
      ] );
    ( "store.workload",
      [
        Alcotest.test_case "zipf sampling range" `Quick test_zipf_monotone_cdf;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        Alcotest.test_case "key names made once per rank" `Quick
          test_key_names_made_once;
        Alcotest.test_case "footprint fills a thin tail" `Quick
          test_footprint_fills_thin_tail;
      ] );
    ( "store.cluster",
      [
        Alcotest.test_case "audit clean across regimes" `Slow
          test_cluster_audit_clean;
        Alcotest.test_case "a crash-storm run ends with its workload" `Quick
          test_crash_storm_run_ends_with_workload;
        Alcotest.test_case "burst demotion golden" `Quick
          test_burst_demotion_golden;
        Alcotest.test_case "health schedule pinned" `Quick
          test_health_schedule_pinned;
        Alcotest.test_case "validate" `Quick test_validate;
        Alcotest.test_case "grid cluster" `Quick test_cluster_grid_needs_matching_n;
        Alcotest.test_case "lossy network" `Quick test_cluster_lossy_network;
      ] );
    ( "store.failures",
      [
        Alcotest.test_case "total outage fails cleanly" `Quick test_total_outage;
        Alcotest.test_case "install primitive" `Quick test_install_primitive;
        Alcotest.test_case "stale install ignored" `Quick
          test_stale_install_ignored;
        Alcotest.test_case "read repair fixes stale replica" `Quick
          test_read_repair_fixes_stale;
        Alcotest.test_case "read repair experiment shape" `Quick
          test_read_repair_experiment_shape;
        qcheck prop_availability_monotone;
      ] );
    ( "store.experiments",
      [
        Alcotest.test_case "latency shape (Q2)" `Slow test_latency_shape;
        Alcotest.test_case "crossover shape (Q3)" `Slow test_crossover_shape;
        Alcotest.test_case "reconfiguration shape (Q4)" `Quick test_reconfig_shape;
        Alcotest.test_case "gifford examples (G1-G3)" `Quick test_gifford_rows;
      ] );
  ]

(* ---------- partition nemesis ---------- *)

let test_partition_nemesis_consistency () =
  (* random bipartitions every ~150 time units: availability drops but
     the audit must remain clean for quorum strategies *)
  List.iter
    (fun (name, strat) ->
      List.iter
        (fun seed ->
          let r =
            Store.Cluster.run
              {
                Store.Cluster.default_params with
                strategy = strat;
                partitions = Some 150.0;
                timeout = 40.0;
                workload =
                  { Store.Workload.default_spec with ops_per_client = 200 };
                seed;
              }
          in
          Alcotest.(check (list string))
            (Fmt.str "%s seed %d: clean under partitions" name seed)
            [] r.Store.Cluster.audit_violations;
          Alcotest.(check bool)
            (Fmt.str "%s seed %d: some ops survive" name seed)
            true
            (r.ok_reads + r.ok_writes > 0))
        [ 1; 2; 3; 4 ])
    [ ("majority", Store.Strategy.majority); ("rowa", Store.Strategy.rowa) ]

let test_partition_nemesis_hurts_availability () =
  let run partitions =
    Store.Cluster.availability
      (Store.Cluster.run
         {
           Store.Cluster.default_params with
           partitions;
           timeout = 40.0;
           workload = { Store.Workload.default_spec with ops_per_client = 200 };
           seed = 7;
         })
  in
  let healthy = run None and partitioned = run (Some 150.0) in
  Alcotest.(check bool)
    (Fmt.str "partitions reduce availability (%.3f < %.3f)" partitioned healthy)
    true
    (partitioned < healthy)

let nemesis_suite =
  ( "store.nemesis",
    [
      Alcotest.test_case "consistency under random partitions" `Slow
        test_partition_nemesis_consistency;
      Alcotest.test_case "partitions hurt availability" `Quick
        test_partition_nemesis_hurts_availability;
    ] )

let suites = suites @ [ nemesis_suite ]

(* ---------- optimal configurations ---------- *)

let test_optimal_dominates_classics () =
  List.iter
    (fun (labels, (_, (score, rowa, majority))) ->
      let at = String.concat " " labels in
      Alcotest.(check bool)
        (Fmt.str "p f = %s: optimum >= rowa" at)
        true
        (score +. 1e-9 >= rowa);
      Alcotest.(check bool)
        (Fmt.str "p f = %s: optimum >= majority" at)
        true
        (score +. 1e-9 >= majority))
    (Store.Experiments.optimal_configurations ~ps:[ 0.8; 0.9 ]
       ~fractions:[ 0.1; 0.9 ] ())
      .Store.Experiments.rows

let test_optimal_thresholds_legal () =
  List.iter
    (fun (_, ((votes, r, w), _)) ->
      let total = List.fold_left ( + ) 0 votes in
      Alcotest.(check int) "minimal legality" (total + 1) (r + w))
    (Store.Experiments.optimal_configurations ~ps:[ 0.9 ] ~fractions:[ 0.5 ] ())
      .Store.Experiments.rows

let optimal_suite =
  ( "store.optimal",
    [
      Alcotest.test_case "optimum dominates classical extremes" `Slow
        test_optimal_dominates_classics;
      Alcotest.test_case "optimal thresholds minimally legal" `Slow
        test_optimal_thresholds_legal;
    ] )

let suites = suites @ [ optimal_suite ]

(* ---------- targeted quorums and load ---------- *)

let test_targeted_mode_consistent () =
  (* the audit must stay clean in targeted mode too *)
  List.iter
    (fun seed ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            targeting = `Quorum;
            workload = { Store.Workload.default_spec with ops_per_client = 150 };
            seed;
          }
      in
      Alcotest.(check (list string))
        (Fmt.str "seed %d clean (targeted)" seed)
        [] r.Store.Cluster.audit_violations;
      Alcotest.(check bool) "ops ran" true (r.ok_reads + r.ok_writes > 0))
    [ 1; 2; 3 ]

let test_minimal_quorums () =
  let s = Store.Strategy.majority 4 in
  let qs = (Store.Strategy.quorums s `Read).minimal in
  (* all 3-of-4 subsets *)
  Alcotest.(check int) "C(4,3) minimal quorums" 4 (List.length qs);
  List.iter
    (fun q -> Alcotest.(check int) "size 3" 3 (Store.Strategy.popcount q))
    qs;
  let rowa = Store.Strategy.rowa 4 in
  Alcotest.(check int) "rowa minimal reads are singletons" 4
    (List.length (Store.Strategy.quorums rowa `Read).minimal);
  Alcotest.(check int) "rowa minimal write is the full set" 1
    (List.length (Store.Strategy.quorums rowa `Write).minimal)

let test_load_shape () =
  let t = Store.Experiments.load_table () in
  let find name mode = List.hd (Store.Experiments.find t [ name; mode ]) in
  let messages name mode = (find name mode).Store.Cluster.net.Sim.Net.sent in
  let imbalance name mode =
    Store.Experiments.replica_imbalance (find name mode)
  in
  let read_mean name mode =
    (find name mode).Store.Cluster.reads.Sim.Stats.mean
  in
  (* targeting cuts messages *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ ": targeted uses fewer messages")
        true
        (messages name "targeted" < messages name "broadcast"))
    [ "majority-6"; "grid-2x3"; "primary-weighted" ];
  (* the weighted scheme hot-spots its big site under targeting;
     majority and grid stay (near) flat *)
  Alcotest.(check bool) "primary-weighted hot-spots" true
    (imbalance "primary-weighted" "targeted" > 1.8);
  Alcotest.(check bool) "majority stays flat" true
    (imbalance "majority-6" "targeted" < 1.3);
  Alcotest.(check bool) "grid stays flat" true
    (imbalance "grid-2x3" "targeted" < 1.3);
  (* broadcast wins mean read latency (quorum-wide hedging) *)
  Alcotest.(check bool) "broadcast reads faster" true
    (read_mean "majority-6" "broadcast" < read_mean "majority-6" "targeted")

let load_suite =
  ( "store.load",
    [
      Alcotest.test_case "targeted mode consistent" `Quick
        test_targeted_mode_consistent;
      Alcotest.test_case "minimal quorum enumeration" `Quick test_minimal_quorums;
      Alcotest.test_case "load/messages shape" `Slow test_load_shape;
    ] )

let suites = suites @ [ load_suite ]
