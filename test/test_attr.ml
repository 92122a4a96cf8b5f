(* Causal trace propagation, latency attribution, and the health
   monitor: the causal stamps survive the engine / protocol / replica
   layers (including batch coalescing), every completed operation's
   phase decomposition sums to its wall latency, enabling any of it
   changes no simulation outcome, and the live health table renders
   deterministically. *)

module Trace = Obs.Trace
module Query = Obs.Query
module Attr = Obs.Attribution
module Health = Obs.Health

(* A deliberately hostile configuration: sharded, lossy (forces
   retries and backoff), bursty (forces batch coalescing), with a
   storage device (queue / apply / fsync phases), causally stamped. *)
let attr_params seed =
  {
    Store.Cluster.default_params with
    n_replicas = 3;
    n_clients = 4;
    n_shards = 2;
    seed;
    loss = 0.2;
    trace_capacity = 262144;
    trace_ctx = true;
    batch_window = Some 1.0;
    storage_cost = 0.05;
    fsync_cost = 2.0;
    policy =
      {
        Rpc.Policy.default with
        max_attempts = 3;
        backoff = 2.0;
      };
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 40;
        read_fraction = 0.5;
        zipf_s = 1.1;
        burst = 4;
      };
  }

let run_attr seed = Store.Cluster.run (attr_params seed)

let test_phase_sums_to_wall () =
  let r = run_attr 42 in
  let events = Trace.events r.Store.Cluster.trace in
  let bs = Attr.of_events events in
  let completed =
    r.Store.Cluster.ok_reads + r.Store.Cluster.failed_reads
    + r.Store.Cluster.ok_writes + r.Store.Cluster.failed_writes
  in
  Alcotest.(check int) "every completed op attributed" completed
    (List.length bs);
  List.iter
    (fun (b : Attr.breakdown) ->
      let total = List.fold_left (fun a (_, d) -> a +. d) 0.0 b.Attr.by_phase in
      let err = Float.abs (Attr.wall b -. total) in
      Alcotest.(check bool)
        (Fmt.str "%s: |wall - sum phases| = %g" b.Attr.op err)
        true (err <= 1e-6))
    bs;
  (* the hostile config actually exercises the deep phases *)
  let some_phase p =
    List.exists (fun b -> Attr.phase_duration b p > 0.0) bs
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Fmt.str "phase %s observed" (Attr.phase_label p))
        true (some_phase p))
    [ Attr.Net; Attr.Backoff; Attr.Batch; Attr.Fsync ]

let test_causal_stitching () =
  let r = run_attr 42 in
  let events = Trace.events r.Store.Cluster.trace in
  let spans = Query.spans events in
  let bs = Attr.of_events events in
  List.iter
    (fun (b : Attr.breakdown) ->
      let tree = Query.spans_of_op spans ~op:b.Attr.op in
      (match tree with
      | root :: _ ->
          Alcotest.(check bool)
            (Fmt.str "%s: first span is the root" b.Attr.op)
            true (Query.is_root root)
      | [] -> Alcotest.fail (Fmt.str "%s: empty causal tree" b.Attr.op));
      (* every stamped child's parent resolves inside the same tree *)
      let ids = List.map (fun (s : Query.span) -> s.Query.id) tree in
      List.iter
        (fun (s : Query.span) ->
          match Query.parent_of s with
          | None -> ()
          | Some p ->
              Alcotest.(check bool)
                (Fmt.str "%s: span %d's parent %d in tree" b.Attr.op s.Query.id
                   p)
                true (List.mem p ids))
        tree)
    bs;
  (* ok writes against storage reach the replica side: at least one
     op's tree carries replica.queue / replica.apply / replica.fsync *)
  let tree_has name op =
    List.exists
      (fun (s : Query.span) -> String.equal s.Query.name name)
      (Query.spans_of_op spans ~op)
  in
  let ok_write_ops =
    List.filter_map
      (fun (b : Attr.breakdown) ->
        if b.Attr.ok && String.equal b.Attr.op_name "write" then
          Some b.Attr.op
        else None)
      bs
  in
  Alcotest.(check bool) "some ok writes" true (ok_write_ops <> []);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Fmt.str "some ok write's tree has %s" name)
        true
        (List.exists (tree_has name) ok_write_ops))
    [ "replica.queue"; "replica.apply"; "replica.fsync" ]

let test_batch_coalescing_linked () =
  (* one coalesced frame carries many contexts: several distinct ops
     must own batchq spans, and distinct ops' replica.queue spans must
     share fsync groups — i.e. the Batch and Queue phases are
     attributed per-op even though the frames were shared *)
  let r = run_attr 7 in
  let events = Trace.events r.Store.Cluster.trace in
  let spans = Query.spans events in
  let batchq_ops =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (s : Query.span) ->
           if String.equal s.Query.name "batchq" then Query.op_of s else None)
         spans)
  in
  Alcotest.(check bool)
    (Fmt.str "batchq spans span several ops (%d)" (List.length batchq_ops))
    true
    (List.length batchq_ops >= 2);
  let bs = Attr.of_events events in
  let batched =
    List.filter (fun b -> Attr.phase_duration b Attr.Batch > 0.0) bs
  in
  Alcotest.(check bool) "several ops pay a batch phase" true
    (List.length batched >= 2)

let test_digest_invariance () =
  (* enabling tracing — and causal stamping on top — changes no
     simulation outcome, across seeds, on the hostile config *)
  List.iter
    (fun seed ->
      let digest_with f =
        Store.Cluster.digest (Store.Cluster.run (f (attr_params seed)))
      in
      let off =
        digest_with (fun p ->
            { p with Store.Cluster.trace_capacity = 0; trace_ctx = false })
      in
      let on =
        digest_with (fun p -> { p with Store.Cluster.trace_ctx = false })
      in
      let ctx = digest_with (fun p -> p) in
      Alcotest.(check string) (Fmt.str "seed %d: off = on" seed) off on;
      Alcotest.(check string) (Fmt.str "seed %d: on = ctx" seed) on ctx)
    [ 42; 7; 101 ]

(* The hostile shape pinned: simulation digest, JSONL trace and
   metrics dump of one seed, captured before the engine's send queue,
   the replica's batch reply slots and its apply queue were rewritten
   for allocation. *)
let test_hostile_run_pinned () =
  let r = run_attr 42 in
  Alcotest.(check int) "the trace ring kept every event" 0
    (Trace.overwritten r.Store.Cluster.trace);
  let s = Obs.Export.jsonl r.Store.Cluster.trace in
  Alcotest.(check string) "simulation digest"
    "ea6759f923e05e95853ba558214c39d5" (Store.Cluster.digest r);
  Alcotest.(check int) "trace length" 1238826 (String.length s);
  Alcotest.(check string) "trace md5" "da097599e160f726e161d10f7ed5dab7"
    (Digest.to_hex (Digest.string s));
  Alcotest.(check string) "metrics dump md5" "b299cf28cd7238fd8652912370fa43bc"
    (Digest.to_hex (Digest.string (Obs.Metrics.dump r.Store.Cluster.metrics)))

let test_cluster_health_sampler () =
  let r =
    Store.Cluster.run
      { (attr_params 42) with Store.Cluster.health_window = Some 50.0 }
  in
  let snaps = r.Store.Cluster.health in
  Alcotest.(check bool) "samples taken" true (snaps <> []);
  List.iter
    (fun (s : Health.snapshot) ->
      Alcotest.(check bool) "shard in range" true (s.shard >= 0 && s.shard < 2);
      Alcotest.(check (float 0.0)) "window" 50.0 s.window;
      if s.ops > 0 then (
        Alcotest.(check bool) "rate positive" true (s.rate > 0.0);
        Alcotest.(check bool) "read fraction in [0,1]" true
          (s.read_fraction >= 0.0 && s.read_fraction <= 1.0)))
    snaps;
  (* chronological, and both shards eventually report load *)
  let rec ascending = function
    | (a : Health.snapshot) :: (b :: _ as rest) ->
        a.at <= b.at && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (ascending snaps);
  List.iter
    (fun shard ->
      Alcotest.(check bool)
        (Fmt.str "shard %d reports ops" shard)
        true
        (List.exists
           (fun (s : Health.snapshot) -> s.shard = shard && s.ops > 0)
           snaps))
    [ 0; 1 ]

let test_health_render_pinned () =
  (* the exact table `store_repl top` prints, pinned byte for byte *)
  let h =
    Health.create ~window:50.0 ~n_shards:2
      ~queue_depth:(fun s -> float_of_int (s + 1))
      ()
  in
  Health.record h ~at:60.0 ~shard:0 ~read:true ~ok:true ~latency:4.0;
  Health.record h ~at:70.0 ~shard:0 ~read:false ~ok:true ~latency:8.0;
  Health.record h ~at:80.0 ~shard:0 ~read:true ~ok:false ~latency:12.0;
  Health.record h ~at:90.0 ~shard:1 ~read:false ~ok:true ~latency:6.0;
  let rendered = Health.render (Health.sample h ~at:100.0) in
  let expected =
    "shard    ops     rate  read%    ok%      p99  queue\n\
    \    0      3    0.060   66.7   66.7     8.00   1.00\n\
    \    1      1    0.020    0.0  100.0     6.00   2.00\n"
  in
  Alcotest.(check string) "pinned table" expected rendered;
  (* an empty window renders dashes, never nan *)
  let later = Health.render (Health.sample h ~at:500.0) in
  Alcotest.(check bool) "no nan in empty-window render" true
    (not
       (List.exists
          (fun line ->
            List.exists (String.equal "nan") (String.split_on_char ' ' line))
          (String.split_on_char '\n' later)))

(* [peek] is [sample] without its side effect: at the same instant it
   returns the same snapshots, and the samples taken after it are those
   of a monitor never peeked at *)
let test_health_peek () =
  let monitor () =
    Health.create ~window:50.0 ~n_shards:2
      ~queue_depth:(fun s -> float_of_int (s + 1))
      ()
  in
  let record h ~at ~shard ~read ~ok =
    Health.record h ~at ~shard ~read ~ok ~latency:(at /. 10.0)
  in
  let peeked = monitor () and plain = monitor () in
  let feed ats =
    List.iteri
      (fun i at ->
        List.iter
          (fun h ->
            record h ~at ~shard:(i mod 2) ~read:(i mod 3 <> 0) ~ok:(i mod 4 <> 1))
          [ peeked; plain ])
      ats
  in
  (* [compare], not [=]: an empty window's fractions are nan *)
  let snaps =
    Alcotest.testable (Fmt.of_to_string Health.render) (fun a b ->
        compare a b = 0)
  in
  (* records at and before a window's left edge fall out of it *)
  feed [ 10.0; 20.0; 50.0; 60.0; 70.0; 80.0; 90.0 ];
  let p100 = Health.peek peeked ~at:100.0 in
  let s100 = Health.sample plain ~at:100.0 in
  Alcotest.check snaps "peek = sample at the same instant" s100 p100;
  Alcotest.check snaps "a repeated peek is the same" p100
    (Health.peek peeked ~at:100.0);
  Alcotest.check snaps "the sample after a peek is unchanged" s100
    (Health.sample peeked ~at:100.0);
  feed [ 110.0; 120.0; 130.0 ];
  ignore (Health.peek peeked ~at:135.0 : Health.snapshot list);
  List.iter
    (fun at ->
      Alcotest.check snaps
        (Fmt.str "later sample at %g unchanged" at)
        (Health.sample plain ~at)
        (Health.sample peeked ~at))
    [ 140.0; 175.0; 500.0 ]

let suites =
  [
    ( "attr",
      [
        Alcotest.test_case "phases sum to wall latency" `Quick
          test_phase_sums_to_wall;
        Alcotest.test_case "causal trees stitch" `Quick test_causal_stitching;
        Alcotest.test_case "batch coalescing keeps per-op stamps" `Quick
          test_batch_coalescing_linked;
        Alcotest.test_case "tracing changes no simulation outcome" `Quick
          test_digest_invariance;
        Alcotest.test_case "hostile batched run pinned" `Quick
          test_hostile_run_pinned;
      ] );
    ( "health",
      [
        Alcotest.test_case "cluster sampler snapshots" `Quick
          test_cluster_health_sampler;
        Alcotest.test_case "render pinned" `Quick test_health_render_pinned;
        Alcotest.test_case "peek = sample, no side effects" `Quick
          test_health_peek;
      ] );
  ]
