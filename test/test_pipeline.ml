(* Tests for the replica-side apply pipeline (Sim.Storage + the
   Replica apply queue) and the adaptive batching window:

   - the storage device model: serialized, deterministic, validated
   - ack-after-fsync: an install's reply never precedes durability
   - group commit amortizes fsyncs vs the naive per-install discipline
   - with storage_cost = fsync_cost = 0, default runs stay
     byte-identical to the pre-pipeline golden trace digests
   - nemesis (partitions + shard kill) with the pipeline enabled keeps
     the serializability audit clean
   - the AIMD window controller: unit behaviour, validation, and the
     cluster-level acceptance (matches static coalescing on bursts,
     adds no window latency on uniform low-rate workloads) *)

module Core = Sim.Core
module Net = Sim.Net
module Storage = Sim.Storage
module Window = Rpc.Window

(* ---------- Sim.Storage: the device model ---------- *)

let test_storage_serializes () =
  let sim = Core.create ~seed:1 in
  let st = Storage.create ~sim ~name:"d" ~write_cost:0.5 ~fsync_cost:2.0 () in
  let log = ref [] in
  (* three submissions at t=0 must execute back to back, not overlap *)
  Storage.submit st ~writes:2 (fun () -> log := ("w2", Core.now sim) :: !log);
  Storage.fsync st (fun () -> log := ("f", Core.now sim) :: !log);
  Storage.submit st ~writes:1 (fun () -> log := ("w1", Core.now sim) :: !log);
  Core.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "serialized completions"
    [ ("w2", 1.0); ("f", 3.0); ("w1", 3.5) ]
    (List.rev !log);
  Alcotest.(check int) "writes counted" 3 (Storage.writes st);
  Alcotest.(check int) "fsyncs counted" 1 (Storage.fsyncs st);
  Alcotest.(check (float 1e-9)) "device idle" 3.5 (Storage.busy_until st)

let test_storage_zero_cost_is_immediate () =
  let sim = Core.create ~seed:1 in
  let st = Storage.create ~sim ~name:"d" () in
  let at = ref nan in
  Core.schedule sim ~delay:7.0 (fun () ->
      Storage.submit st ~writes:5 (fun () ->
          Storage.fsync st (fun () -> at := Core.now sim)));
  Core.run sim;
  Alcotest.(check (float 0.0)) "free device completes at submit time" 7.0 !at

let test_storage_validation () =
  let sim = Core.create ~seed:1 in
  Alcotest.check_raises "negative write_cost"
    (Invalid_argument "Sim.Storage.create: write_cost must be finite and >= 0")
    (fun () ->
      ignore (Storage.create ~sim ~name:"d" ~write_cost:(-1.0) ()));
  Alcotest.check_raises "nan fsync_cost"
    (Invalid_argument "Sim.Storage.create: fsync_cost must be finite and >= 0")
    (fun () -> ignore (Storage.create ~sim ~name:"d" ~fsync_cost:nan ()));
  Alcotest.check_raises "negative writes"
    (Invalid_argument "Sim.Storage.submit: writes must be >= 0")
    (fun () ->
      Storage.submit (Storage.create ~sim ~name:"d" ()) ~writes:(-1) ignore)

(* ---------- the replica apply queue ---------- *)

(* drive one replica directly through [serve], capturing replies *)
let replica_world ~group_commit ~fsync_cost =
  let sim = Core.create ~seed:2 in
  let st = Storage.create ~sim ~name:"r0:disk" ~fsync_cost () in
  let r =
    Store.Replica.create ~name:"r0" ~storage:st ~group_commit ()
  in
  let tr = Obs.Trace.create ~capacity:1024 () in
  let replies = ref [] in
  let install ~rid ~vn =
    Store.Replica.serve r ~tr
      ~reply:(fun m -> replies := (m, Core.now sim) :: !replies)
      (Store.Protocol.Install_req { rid; key = "k"; vn; value = vn * 10; ctx = None })
  in
  (sim, st, r, replies, install)

let test_ack_after_fsync () =
  let sim, st, r, replies, install = replica_world ~group_commit:true ~fsync_cost:3.0 in
  install ~rid:1 ~vn:1;
  (* the write (cost 0) applies at t=0; the fsync completes at t=3 —
     in between, queries already see the value but the ack is held *)
  Core.schedule sim ~delay:1.0 (fun () ->
      Alcotest.(check (pair int int)) "applied before the ack" (1, 10)
        (Store.Replica.lookup r "k");
      Alcotest.(check int) "no ack before the fsync" 0 (List.length !replies));
  Core.run sim;
  (* ...but the ack waits for the fsync *)
  (match !replies with
  | [ (Store.Protocol.Install_ack { rid = 1; key = "k" }, t) ] ->
      Alcotest.(check (float 1e-9)) "ack at fsync completion" 3.0 t
  | _ -> Alcotest.fail "expected exactly one install ack");
  Alcotest.(check int) "one fsync" 1 (Storage.fsyncs st)

let test_group_commit_amortizes_replica_level () =
  (* a same-instant burst of 8 installs: naive = 8 fsyncs, group
     commit = far fewer (first drains alone, the rest group) *)
  let burst group_commit =
    let sim, st, _r, replies, install =
      replica_world ~group_commit ~fsync_cost:3.0
    in
    for i = 1 to 8 do
      install ~rid:i ~vn:i
    done;
    Core.run sim;
    Alcotest.(check int) "all 8 acked" 8 (List.length !replies);
    (Storage.fsyncs st, Core.now sim)
  in
  let naive_fsyncs, naive_t = burst false in
  let group_fsyncs, group_t = burst true in
  Alcotest.(check int) "naive: one fsync per install" 8 naive_fsyncs;
  Alcotest.(check int) "group: first alone, the rest as one group" 2
    group_fsyncs;
  Alcotest.(check bool)
    (Fmt.str "group commit finishes earlier (%.1f < %.1f)" group_t naive_t)
    true (group_t < naive_t)

let test_apply_in_version_order () =
  (* installs enqueued out of version order within one group must
     apply in version order: the highest vn wins, not the last
     arrival *)
  let sim, _st, r, replies, install =
    replica_world ~group_commit:true ~fsync_cost:1.0
  in
  (* rid 1 drains alone; 3, 2 (out of order) form the next group *)
  install ~rid:1 ~vn:1;
  install ~rid:3 ~vn:3;
  install ~rid:2 ~vn:2;
  Core.run sim;
  Alcotest.(check int) "all acked" 3 (List.length !replies);
  Alcotest.(check (pair int int)) "highest version wins" (3, 30)
    (Store.Replica.lookup r "k")

(* One batch frame mixing every kind of part: queries answer at once,
   pipelined installs after their group's fsync, and non-requests
   (stray replies, a phase-1b for an unknown transaction) earn no
   slot.  The frame answers once, when its last replying part has,
   with the replies in frame order.  An empty frame, and a frame of
   non-requests only, answer at once with no parts. *)
let test_batch_frame_mixed_parts () =
  let sim, st, r, replies, install =
    replica_world ~group_commit:true ~fsync_cost:3.0
  in
  let module P = Store.Protocol in
  (* an install already at the device: the frame's installs queue
     behind it and form the next group *)
  install ~rid:1 ~vn:1;
  let frame rid reqs =
    Store.Replica.serve r ~tr:(Obs.Trace.create ~capacity:0 ~enabled:false ())
      ~reply:(fun m -> replies := (m, Core.now sim) :: !replies)
      (P.Batch_req { rid; reqs })
  in
  frame 10
    [
      P.Query_req { rid = 11; key = "k"; ctx = None };
      P.Install_req { rid = 12; key = "k"; vn = 3; value = 30; ctx = None };
      P.Query_rep { rid = 13; key = "k"; vn = 9; value = 9 };
      P.Install_req { rid = 14; key = "j"; vn = 2; value = 20; ctx = None };
      P.Txn_p1b
        {
          rid = 15;
          txid = { Qc_util.Txid.id = 0; name = "t" };
          bal = 1;
          ok = true;
          accepted = None;
        };
      P.Query_req { rid = 16; key = "j"; ctx = None };
      P.Install_ack { rid = 17; key = "k" };
    ];
  frame 20 [];
  frame 30 [ P.Query_rep { rid = 31; key = "k"; vn = 1; value = 1 } ];
  (* both part-less frames answered in the instant they arrived *)
  (match !replies with
  | [ (P.Batch_rep { rid = 30; reps = [] }, t30);
      (P.Batch_rep { rid = 20; reps = [] }, t20) ] ->
      Alcotest.(check (pair (float 0.0) (float 0.0))) "at once" (0.0, 0.0)
        (t20, t30)
  | _ -> Alcotest.fail "expected two empty batch replies, nothing else");
  Core.run sim;
  let rep rid =
    List.filter_map
      (function
        | (P.Batch_rep { rid = r; reps }, t) when r = rid -> Some (reps, t)
        | _ -> None)
      !replies
  in
  (match rep 10 with
  | [ (reps, t) ] ->
      (* the first install's fsync ends at 3; the frame's group at 6 *)
      Alcotest.(check (float 1e-9)) "after the second group's fsync" 6.0 t;
      Alcotest.(check bool) "replying parts, in frame order" true
        (reps
        = [
            P.Query_rep { rid = 11; key = "k"; vn = 0; value = 0 };
            P.Install_ack { rid = 12; key = "k" };
            P.Install_ack { rid = 14; key = "j" };
            P.Query_rep { rid = 16; key = "j"; vn = 0; value = 0 };
          ])
  | l -> Alcotest.failf "frame 10 answered %d times" (List.length l));
  Alcotest.(check int) "two fsyncs" 2 (Storage.fsyncs st);
  Alcotest.(check (pair int int)) "k installed" (3, 30) (Store.Replica.lookup r "k");
  Alcotest.(check (pair int int)) "j installed" (2, 20) (Store.Replica.lookup r "j");
  Alcotest.(check int) "queue empty" 0 (Store.Replica.queue_depth r)

(* ---------- byte-identity with a zero-cost pipeline ---------- *)

let test_zero_cost_pipeline_golden () =
  (* the pinned pre-router digests of Test_shard must also hold with
     the pipeline knobs at their defaults spelled out explicitly:
     storage_cost = fsync_cost = 0 attaches no device, so the serve
     path is the historical synchronous one, byte for byte *)
  List.iter
    (fun (seed, md5, len) ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            n_replicas = 5;
            n_clients = 3;
            workload = { Store.Workload.default_spec with ops_per_client = 15 };
            storage_cost = 0.0;
            fsync_cost = 0.0;
            group_commit = true;
            adaptive_window = None;
            seed;
            trace_capacity = 262144;
          }
      in
      let s = Obs.Export.jsonl r.Store.Cluster.trace in
      Alcotest.(check int) (Fmt.str "seed %d trace length" seed) len
        (String.length s);
      Alcotest.(check string)
        (Fmt.str "seed %d trace digest" seed)
        md5
        (Digest.to_hex (Digest.string s)))
    Test_shard.golden

(* ---------- the batched path, pinned ---------- *)

(* A small run in the shape of perfbench's [kv_sharded_io]: range
   shards, bursts of 8, the adaptive window, a storage device, causal
   stamps on.  Its simulation digest, the JSONL trace and the metrics
   dump (the [rpc.batch_size] and [replica.queue_depth] observations)
   were captured before the send queue, the batch reply slots and the
   apply queue were rewritten for allocation; any drift in frame
   order, rids, payload counts or ack order changes one of them. *)
let sharded_io_params ~group_commit =
  {
    Store.Cluster.default_params with
    n_replicas = 3;
    n_clients = 4;
    n_shards = 4;
    shard_scheme = `Range;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 40;
        n_keys = 256;
        zipf_s = 1.1;
        read_fraction = 0.5;
        burst = 8;
      };
    adaptive_window = Some Window.default_config;
    storage_cost = 0.05;
    fsync_cost = 5.0;
    group_commit;
    seed = 7;
    trace_capacity = 262144;
    trace_ctx = true;
  }

(* (simulation digest, trace md5, trace length, metrics-dump md5) *)
let pin_of (r : Store.Cluster.results) =
  Alcotest.(check int) "the trace ring kept every event" 0
    (Obs.Trace.overwritten r.Store.Cluster.trace);
  let s = Obs.Export.jsonl r.Store.Cluster.trace in
  ( Store.Cluster.digest r,
    Digest.to_hex (Digest.string s),
    String.length s,
    Digest.to_hex (Digest.string (Obs.Metrics.dump r.Store.Cluster.metrics)) )

let check_pin what (digest, md5, len, dump) (r : Store.Cluster.results) =
  let digest', md5', len', dump' = pin_of r in
  Alcotest.(check string) (what ^ ": simulation digest") digest digest';
  Alcotest.(check int) (what ^ ": trace length") len len';
  Alcotest.(check string) (what ^ ": trace md5") md5 md5';
  Alcotest.(check string) (what ^ ": metrics dump md5") dump dump'

let test_sharded_io_pinned () =
  let r = Store.Cluster.run (sharded_io_params ~group_commit:true) in
  Alcotest.(check (list string)) "audit clean" [] r.Store.Cluster.audit_violations;
  check_pin "group commit"
    ( "5359f8f759bced1ffee6960c67fa8064",
      "050575b5836ebb0a2daf3c7c3ee72bc6",
      967785,
      "7bc907966bc65f4ed8573519da867eae" )
    r

let test_sharded_io_naive_pinned () =
  let r = Store.Cluster.run (sharded_io_params ~group_commit:false) in
  Alcotest.(check (list string)) "audit clean" [] r.Store.Cluster.audit_violations;
  check_pin "one install per fsync"
    ( "2d84ab21ef03ddfc8be6128923815155",
      "727e11674127fb6824843c75188afdf2",
      1002053,
      "b67ff43ec4d531cac47ea95a29fe9ad1" )
    r

(* ---------- cluster-level amortization ---------- *)

let io_params ~group_commit ~seed =
  {
    Store.Cluster.default_params with
    n_replicas = 3;
    n_clients = 4;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 60;
        read_fraction = 0.3;
        zipf_s = 1.1;
        burst = 8;
      };
    storage_cost = 0.05;
    fsync_cost = 5.0;
    group_commit;
    seed;
  }

let test_group_commit_amortizes_cluster_level () =
  let naive = Store.Cluster.run (io_params ~group_commit:false ~seed:42) in
  let group = Store.Cluster.run (io_params ~group_commit:true ~seed:42) in
  Alcotest.(check bool) "audit clean (naive)" true
    (naive.Store.Cluster.audit_violations = []);
  Alcotest.(check bool) "audit clean (group)" true
    (group.Store.Cluster.audit_violations = []);
  let fpi (r : Store.Cluster.results) =
    float_of_int r.Store.Cluster.fsyncs /. float_of_int r.Store.Cluster.installs
  in
  Alcotest.(check (float 1e-9)) "naive: one fsync per install" 1.0 (fpi naive);
  Alcotest.(check bool)
    (Fmt.str "group commit amortizes >= 2x (%.3f vs %.3f fsyncs/install)"
       (fpi naive) (fpi group))
    true
    (fpi naive /. fpi group >= 2.0)

(* ---------- nemesis: pipeline + partitions + shard kill ---------- *)

let prop_pipeline_nemesis_audit_clean =
  QCheck.Test.make ~count:6
    ~name:"group commit + partitions + shard kill keep the audit clean"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            n_replicas = 3;
            n_clients = 3;
            n_shards = 3;
            targeting = `Quorum;
            policy =
              Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
            partitions = Some 150.0;
            shard_kill = Some (0, 500.0);
            storage_cost = 0.05;
            fsync_cost = 2.0;
            group_commit = true;
            workload =
              {
                Store.Workload.default_spec with
                ops_per_client = 40;
                read_fraction = 0.5;
                zipf_s = 1.1;
                burst = 4;
              };
            seed;
          }
      in
      match r.Store.Cluster.audit_violations with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_report v)

(* ---------- the AIMD window controller ---------- *)

(* The adaptive constants, pinned: busy flushes (peak >= 4) widen the
   window by 1 from 0 up to 8 and stop there; idle flushes halve it
   and snap to 0 once it would fall to 0.125 or below. *)
let test_window_aimd_unit () =
  let c = Window.create Window.default_config in
  let after peaks =
    List.map
      (fun peak ->
        Window.observe c ~peak;
        Window.window c)
      peaks
  in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Window.window c);
  Alcotest.(check (list (float 0.0))) "a peak below 4 is idle" [ 0.0; 0.0 ]
    (after [ 3; 0 ]);
  Alcotest.(check (list (float 0.0))) "busy flushes widen by 1, up to 8"
    [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 8.0; 8.0 ]
    (after [ 4; 5; 4; 100; 4; 4; 8; 4; 4; 64 ]);
  Alcotest.(check (list (float 0.0))) "idle flushes halve, then snap to 0"
    [ 4.0; 2.0; 1.0; 0.5; 0.25; 0.0; 0.0 ]
    (after [ 3; 1; 0; 3; 2; 1; 3 ]);
  Alcotest.(check (list (float 0.0))) "and widen again from 0" [ 1.0 ]
    (after [ 4 ]);
  (* a fixed config is a pinned controller: busy or idle, the window
     stays put, zero included *)
  List.iter
    (fun w ->
      let c = Window.create (Window.fixed w) in
      Alcotest.(check (float 0.0)) (Fmt.str "fixed %g starts there" w) w
        (Window.window c);
      List.iter
        (fun peak ->
          Window.observe c ~peak;
          Alcotest.(check (float 0.0))
            (Fmt.str "fixed %g after a peak of %d" w peak)
            w (Window.window c))
        [ 8; 8; 1; 0; 4; 100; 1; 1; 1; 1; 1; 3; 64 ])
    [ 0.0; 0.5; 1.0; 3.0; 8.0 ]

let test_window_validation () =
  let ok c = Alcotest.(check bool) "valid" true (Result.is_ok (Window.validate c)) in
  let bad c = Alcotest.(check bool) "rejected" true (Result.is_error (Window.validate c)) in
  ok Window.default_config;
  ok (Window.fixed 0.0);
  ok (Window.fixed 8.0);
  bad (Window.fixed (-1.0));
  bad (Window.fixed nan);
  bad (Window.fixed infinity);
  Alcotest.check_raises "create rejects invalid configs"
    (Invalid_argument
       "Rpc.Window.create: a fixed window must be finite and >= 0 (got -1)")
    (fun () -> ignore (Window.create (Window.fixed (-1.0))))

(* ---------- one batching setting: the router's window ---------- *)

(* A one-shard router over five replicas, every hop exactly one time
   unit: an unbatched read takes 2.0, a batched one 2.0 plus the
   window its flush waited.  [reads n] issues [n] reads at once, so
   under batching they share one flush whose peak is [n], runs them
   to completion and returns their latencies; [read ()] is one read's
   latency. *)
let unit_latency_router () =
  let replicas = Array.init 5 (Fmt.str "r%d") in
  let sim = Core.create ~seed:3 in
  let net =
    Net.create ~sim
      ~nodes:("c" :: Array.to_list replicas)
      ~latency:(Net.uniform_latency ~lo:1.0 ~hi:1.0)
      ()
  in
  Array.iter
    (fun name -> Store.Replica.attach (Store.Replica.create ~name ()) ~net)
    replicas;
  let r =
    Store.Router.create ~name:"c" ~sim ~net ~groups:[| replicas |]
      ~strategies:[| Store.Strategy.majority 5 |]
      ~scheme:`Hash ~n_keys:16 ()
  in
  Store.Router.attach r;
  let reads n =
    let lats = Array.make n nan in
    for i = 0 to n - 1 do
      Store.Router.read r ~key:"k1"
        ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency -> if ok then lats.(i) <- latency)
    done;
    Core.run sim;
    Array.to_list lats
  in
  (r, reads, fun () -> List.hd (reads 1))

let reported_window r =
  match Store.Router.batching r with Some c -> Window.window c | None -> nan

let test_fixed_window_replaces_adaptive () =
  let r, reads, read = unit_latency_router () in
  Alcotest.(check (float 0.0)) "unbatched read" 2.0 (read ());
  Store.Router.set_batching r (Some Window.default_config);
  (* four reads share a flush at width 0: a busy peak, so it widens *)
  Alcotest.(check (list (float 0.0))) "a burst at the initial window"
    [ 2.0; 2.0; 2.0; 2.0 ] (reads 4);
  Alcotest.(check (float 0.0)) "a read waits the controller's window" 3.0
    (read ());
  Store.Router.set_batching r (Some (Window.fixed 0.5));
  Alcotest.(check (float 0.0)) "batching reports the fixed window" 0.5
    (reported_window r);
  Alcotest.(check (float 0.0)) "and a read waits exactly that" 2.5 (read ());
  Store.Router.set_batching r None;
  Alcotest.(check bool) "off reports no window" true
    (Option.is_none (Store.Router.batching r));
  Alcotest.(check (float 0.0)) "unbatched again" 2.0 (read ())

let test_window_off_keeps_width () =
  let r, reads, _ = unit_latency_router () in
  (* a burst of four is a busy flush, so each burst widens: 0, 1, 2, 3 *)
  Store.Router.set_batching r (Some Window.default_config);
  let widening = List.init 4 (fun _ -> List.hd (reads 4)) in
  Alcotest.(check (list (float 0.0))) "the controller widens"
    [ 2.0; 3.0; 4.0; 5.0 ] widening;
  (* the store REPL's [window off]: pin every shard at the width its
     controller reached *)
  Array.iter
    (fun c ->
      Option.iter
        (fun ctl ->
          Store.Client.set_batching c
            (Some (Window.fixed (Window.window ctl))))
        (Store.Client.batching c))
    (Store.Router.clients r);
  Alcotest.(check (float 0.0)) "the reached width is kept" 4.0
    (reported_window r);
  Alcotest.(check (list (float 0.0))) "reads keep waiting it"
    [ 6.0; 6.0; 6.0 ]
    (List.init 3 (fun _ -> List.hd (reads 4)));
  Alcotest.(check (float 0.0)) "busy flushes no longer widen it" 4.0
    (reported_window r)

(* ---------- adaptive window: cluster-level acceptance ---------- *)

let window_params ~bursty ~seed =
  if bursty then
    {
      Store.Cluster.default_params with
      n_replicas = 3;
      n_clients = 4;
      workload =
        {
          Store.Workload.default_spec with
          ops_per_client = 60;
          read_fraction = 0.7;
          zipf_s = 1.1;
          burst = 8;
        };
      seed;
    }
  else
    {
      Store.Cluster.default_params with
      n_replicas = 3;
      n_clients = 4;
      workload =
        {
          Store.Workload.default_spec with
          ops_per_client = 60;
          read_fraction = 0.9;
          zipf_s = 0.0;
          think_time = 10.0;
          burst = 1;
        };
      seed;
    }

let test_adaptive_window_coalesces_bursts () =
  let p = window_params ~bursty:true ~seed:42 in
  let unbatched = Store.Cluster.run p in
  let adaptive =
    Store.Cluster.run
      { p with Store.Cluster.adaptive_window = Some Window.default_config }
  in
  Alcotest.(check bool) "audit clean" true
    (adaptive.Store.Cluster.audit_violations = []);
  let su = unbatched.Store.Cluster.net.Net.sent
  and sa = adaptive.Store.Cluster.net.Net.sent in
  (* static window 1.0 cuts this workload's messages ~5x; the
     controller must land in the same regime, not halfway *)
  Alcotest.(check bool)
    (Fmt.str "adaptive coalesces bursts (%d -> %d wire messages)" su sa)
    true
    (float_of_int sa <= 0.3 *. float_of_int su)

let test_adaptive_window_free_on_uniform () =
  (* on a uniform low-rate workload the controller sits at window 0,
     and a 0-delay flush runs at the same virtual instant as the send:
     results are identical to unbatched, latency included *)
  let p = window_params ~bursty:false ~seed:42 in
  let unbatched = Store.Cluster.run p in
  let adaptive =
    Store.Cluster.run
      { p with Store.Cluster.adaptive_window = Some Window.default_config }
  in
  let mean (r : Store.Cluster.results) =
    Store.Experiments.mean_op_latency r
  in
  Alcotest.(check int) "same wire messages"
    unbatched.Store.Cluster.net.Net.sent adaptive.Store.Cluster.net.Net.sent;
  Alcotest.(check (float 1e-9)) "same mean op latency" (mean unbatched)
    (mean adaptive);
  Alcotest.(check int) "same ok ops"
    Store.Cluster.(unbatched.ok_reads + unbatched.ok_writes)
    Store.Cluster.(adaptive.ok_reads + adaptive.ok_writes)

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "sim.storage",
      [
        Alcotest.test_case "device serializes and counts" `Quick
          test_storage_serializes;
        Alcotest.test_case "zero-cost device is immediate" `Quick
          test_storage_zero_cost_is_immediate;
        Alcotest.test_case "creation validation" `Quick test_storage_validation;
      ] );
    ( "store.pipeline",
      [
        Alcotest.test_case "install acks only after fsync" `Quick
          test_ack_after_fsync;
        Alcotest.test_case "group commit amortizes a replica burst" `Quick
          test_group_commit_amortizes_replica_level;
        Alcotest.test_case "groups apply in version order" `Quick
          test_apply_in_version_order;
        Alcotest.test_case "a batch frame of mixed parts" `Quick
          test_batch_frame_mixed_parts;
        Alcotest.test_case "zero-cost pipeline matches golden traces" `Slow
          test_zero_cost_pipeline_golden;
        Alcotest.test_case "group commit amortizes >= 2x cluster-wide" `Slow
          test_group_commit_amortizes_cluster_level;
        Alcotest.test_case "batched group-commit run pinned" `Quick
          test_sharded_io_pinned;
        Alcotest.test_case "batched one-install-per-fsync run pinned" `Quick
          test_sharded_io_naive_pinned;
        qcheck prop_pipeline_nemesis_audit_clean;
      ] );
    ( "rpc.window",
      [
        Alcotest.test_case "aimd unit behaviour" `Quick test_window_aimd_unit;
        Alcotest.test_case "config validation" `Quick test_window_validation;
        Alcotest.test_case "a fixed window replaces an adaptive one" `Quick
          test_fixed_window_replaces_adaptive;
        Alcotest.test_case "window off keeps the reached width" `Quick
          test_window_off_keeps_width;
        Alcotest.test_case "adaptive window coalesces bursts" `Slow
          test_adaptive_window_coalesces_bursts;
        Alcotest.test_case "adaptive window is free on uniform load" `Slow
          test_adaptive_window_free_on_uniform;
      ] );
  ]
