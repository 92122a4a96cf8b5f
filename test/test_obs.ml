(* Tests for the observability layer: trace core, exporters, metrics,
   query API, and the wiring through sim / net / store / ioa. *)

module Trace = Obs.Trace
module Export = Obs.Export
module Json = Obs.Json
module Metrics = Obs.Metrics
module Query = Obs.Query

(* ---------- trace core ---------- *)

let test_ring_bounds () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 7 do
    Trace.instant tr ~cat:"t" ~name:"e" ~ts:(float_of_int i) ()
  done;
  Alcotest.(check int) "bounded" 4 (Trace.length tr);
  Alcotest.(check int) "overwritten" 3 (Trace.overwritten tr);
  let seqs = List.map (fun (e : Trace.event) -> e.Trace.seq) (Trace.events tr) in
  Alcotest.(check (list int)) "newest kept, in order" [ 3; 4; 5; 6 ] seqs

let test_disabled_tracer_free () =
  let tr = Trace.create ~capacity:16 ~enabled:false () in
  Trace.instant tr ~cat:"t" ~name:"e" ();
  let s = Trace.begin_span tr ~cat:"t" ~name:"s" () in
  Trace.end_span tr s ();
  Alcotest.(check int) "nothing recorded" 0 (Trace.length tr);
  (* a zero-capacity tracer cannot even be enabled *)
  let z = Trace.create ~capacity:0 () in
  Trace.set_enabled z true;
  Trace.instant z ~cat:"t" ~name:"e" ();
  Alcotest.(check int) "capacity 0 stays off" 0 (Trace.length z)

let test_span_pairing () =
  let tr = Trace.create () in
  let a = Trace.begin_span tr ~cat:"c" ~name:"outer" ~ts:1.0 () in
  let b = Trace.begin_span tr ~cat:"c" ~name:"inner" ~ts:2.0 () in
  Trace.end_span tr b ~ts:3.0 ();
  Trace.end_span tr a ~ts:5.0 ();
  Trace.instant tr ~cat:"c" ~name:"mark" ~ts:2.5 ();
  let spans = Query.spans (Trace.events tr) in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = List.find (fun (s : Query.span) -> s.Query.name = "outer") spans in
  let inner = List.find (fun (s : Query.span) -> s.Query.name = "inner") spans in
  Alcotest.(check (float 1e-9)) "outer duration" 4.0 (Query.duration outer);
  Alcotest.(check (float 1e-9)) "inner duration" 1.0 (Query.duration inner);
  Alcotest.(check bool) "balanced" true
    (Result.is_ok (Query.check_balanced (Trace.events tr)))

let test_unbalanced_detected () =
  let tr = Trace.create () in
  let _open_span = Trace.begin_span tr ~cat:"c" ~name:"s" () in
  Alcotest.(check bool) "unfinished span flagged" true
    (Result.is_error (Query.check_balanced (Trace.events tr)))

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.Str "x\"y\n");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Num 42.0 ]);
        ("d", Json.Obj []);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' ->
      Alcotest.(check bool) "roundtrip" true (j = j');
      Alcotest.(check (option string)) "member" (Some "x\"y\n")
        (Option.bind (Json.member "b" j') Json.to_string_opt)

let test_json_control_chars () =
  (* control characters must be escaped — raw bytes below 0x20 in the
     output would corrupt JSONL (literal newline splits the line) *)
  let j = Json.Str "a\nb\tc\x01d\re\x1ff" in
  let s = Json.to_string j in
  String.iter
    (fun ch ->
      Alcotest.(check bool) "no raw control byte" true (Char.code ch >= 0x20))
    s;
  Alcotest.(check string) "escaped form" "\"a\\nb\\tc\\u0001d\\re\\u001ff\"" s;
  (match Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j'));
  (* and through the trace exporter: a pathological arg stays one line *)
  let tr = Trace.create ~capacity:8 () in
  Trace.instant tr ~cat:"t" ~name:"e" ~ts:1.0
    ~args:[ ("msg", Trace.Str "evil\nvalue\x01") ]
    ();
  let line = String.trim (Export.jsonl tr) in
  Alcotest.(check bool) "one JSONL line" true
    (not (String.contains line '\n'));
  match Export.parse_jsonl line with
  | Error e -> Alcotest.fail e
  | Ok [ e ] ->
      Alcotest.(check (option string)) "arg survives" (Some "evil\nvalue\x01")
        (Query.arg_str e.Trace.args "msg")
  | Ok _ -> Alcotest.fail "expected exactly one event"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "rejects %S" s)
        true
        (Result.is_error (Json.parse s)))
    [ "{"; "[1,"; "{\"a\":}"; "tru"; "{\"a\":1}x"; "\"unterminated" ]

(* ---------- export: wraparound, strict import ---------- *)

let test_ring_wraparound_export () =
  (* overflow a tiny ring so the oldest B events are evicted while
     their E events survive: the Chrome export must drop the orphan
     E events (stay loadable), and the query layer must not fabricate
     spans from them *)
  let tr = Trace.create ~capacity:6 () in
  let spans =
    List.init 8 (fun i ->
        Trace.begin_span tr ~cat:"t" ~name:(Fmt.str "s%d" i)
          ~ts:(float_of_int i) ())
  in
  List.iteri
    (fun i s -> Trace.end_span tr s ~ts:(float_of_int (10 + i)) ())
    spans;
  Alcotest.(check bool) "ring actually wrapped" true (Trace.overwritten tr > 0);
  let events = Trace.events tr in
  let orphan_es =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.ph = Trace.E
        && not
             (List.exists
                (fun (b : Trace.event) ->
                  b.Trace.ph = Trace.B && b.Trace.id = e.Trace.id)
                events))
      events
  in
  Alcotest.(check bool) "orphan E events present" true (orphan_es <> []);
  (match Export.check_chrome (Export.chrome_of_events events) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome export broken by wraparound: " ^ e));
  let stitched = Query.spans events in
  List.iter
    (fun (o : Trace.event) ->
      Alcotest.(check bool) "orphan E not stitched" true
        (not (List.exists (fun (s : Query.span) -> s.Query.id = o.Trace.id)
                stitched)))
    orphan_es

let test_parse_jsonl_strict () =
  let tr = Trace.create ~capacity:16 () in
  let s = Trace.begin_span tr ~cat:"c" ~name:"op" ~ts:1.0
      ~args:[ ("op", Trace.Str "c0#1"); ("n", Trace.Int 3) ] () in
  Trace.instant tr ~cat:"c" ~name:"mark" ~ts:1.5 ();
  Trace.end_span tr s ~ts:2.0 ();
  let good = Export.jsonl tr in
  (match Export.parse_jsonl good with
  | Error e -> Alcotest.fail e
  | Ok evs ->
      Alcotest.(check int) "all events" 3 (List.length evs);
      (* parse-then-re-export is byte-stable *)
      Alcotest.(check string) "round-trip bytes" good
        (Export.jsonl_of_events evs));
  (* a corrupt line fails with its line number — never a partial trace *)
  let lines = String.split_on_char '\n' (String.trim good) in
  let corrupt =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 1 then "{\"ts\": oops}" else l) lines)
  in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match Export.parse_jsonl corrupt with
  | Ok _ -> Alcotest.fail "accepted corrupt input"
  | Error e ->
      Alcotest.(check bool)
        (Fmt.str "error %S names line 2" e)
        true (contains_sub e "line 2")

(* ---------- metrics ---------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("replica", "r0") ] "ops" in
  for _ = 1 to 4 do
    Metrics.inc c
  done;
  Alcotest.(check int) "counter" 4 (Metrics.value c);
  (* same (name, labels) -> same instrument, any label order *)
  let c' = Metrics.counter m ~labels:[ ("replica", "r0") ] "ops" in
  Metrics.inc c';
  Alcotest.(check int) "shared" 5 (Metrics.value c);
  let other = Metrics.counter m ~labels:[ ("replica", "r1") ] "ops" in
  Alcotest.(check int) "distinct labels distinct" 0 (Metrics.value other);
  let g = Metrics.gauge m "depth" in
  Metrics.set g 7.5;
  Alcotest.(check (float 0.0)) "gauge" 7.5 (Metrics.gauge_value g)

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.0; 2.0; 5.0 |] "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 100.0 ];
  let got = Metrics.bucket_counts h in
  Alcotest.(check (list int)) "bucket counts" [ 2; 2; 2; 1 ]
    (List.map snd got);
  Alcotest.(check (list string)) "bucket bounds"
    [ "1."; "2."; "5."; "inf" ]
    (List.map (fun (b, _) -> string_of_float b) got);
  Alcotest.(check int) "count" 7 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 114.9 (Metrics.hist_sum h);
  (* conservative bucket quantiles: upper bound of the covering bucket *)
  Alcotest.(check (float 0.0)) "q50" 2.0 (Metrics.quantile h 0.5);
  Alcotest.(check bool) "q99 lands in the +inf bucket" true
    (Metrics.quantile h 0.99 = infinity);
  Alcotest.(check (float 0.0)) "q25" 1.0 (Metrics.quantile h 0.25)

(* [observe] finds the bucket in one loop and keeps its sum unboxed:
   the only allocation is the caller boxing the float it passes (2
   words; each observation cost 16 before).  The dump format is pinned,
   nan included (counted in the +inf bucket). *)
let test_histogram_observe_words () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~labels:[ ("op", "read") ] ~buckets:[| 1.0; 2.0; 5.0 |]
      "lat"
  in
  let xs = Array.init 97 (fun i -> float_of_int i /. 8.0) in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Metrics.observe h xs.(i mod 97)
  done;
  let per_obs = (Gc.minor_words () -. w0) /. 10_000.0 in
  Alcotest.(check bool)
    (Fmt.str "%.2f words per observation" per_obs)
    true (per_obs < 2.5);
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~labels:[ ("op", "read") ] ~buckets:[| 1.0; 2.0; 5.0 |]
      "lat"
  in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 100.0 ];
  Alcotest.(check string) "dump"
    "lat{op=read} count=7 sum=114.9 le_1=2 le_2=2 le_5=2 le_inf=1\n"
    (Metrics.dump m);
  Metrics.observe h nan;
  Alcotest.(check string) "nan lands in +inf"
    "lat{op=read} count=8 sum=nan le_1=2 le_2=2 le_5=2 le_inf=2\n"
    (Metrics.dump m)

(* The registry against a reference: an association list keyed by
   (name, sorted labels), in registration order.  A random sequence of
   registrations, each followed by an update, with label lists given
   in any order: a key registered again returns the very same
   instrument, a new key a fresh one, a kind mismatch raises, and the
   dump matches the reference's byte for byte. *)
type model_inst =
  | M_counter of Metrics.counter * int ref
  | M_gauge of Metrics.gauge * float ref
  | M_hist of Metrics.histogram * float list ref

let label_pool =
  [| ("op", "read"); ("op", "write"); ("replica", "r0"); ("client", "c1") |]

let model_labels bits seed =
  let a =
    Array.of_list
      (List.filteri
         (fun i _ -> bits land (1 lsl i) <> 0)
         (Array.to_list label_pool))
  in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let model_dump order =
  let labels = function
    | [] -> ""
    | l ->
        "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"
  in
  String.concat ""
    (List.map
       (fun ((name, l), inst) ->
         match inst with
         | M_counter (_, n) -> Printf.sprintf "%s%s %d\n" name (labels l) !n
         | M_gauge (_, g) -> Printf.sprintf "%s%s %g\n" name (labels l) !g
         | M_hist (_, xs) ->
             let le b = List.length (List.filter (fun x -> x <= b) !xs) in
             let buckets = Array.to_list Metrics.default_buckets in
             let counts =
               List.mapi
                 (fun i b ->
                   let below =
                     if i = 0 then 0 else le (List.nth buckets (i - 1))
                   in
                   Printf.sprintf " le_%g=%d" b (le b - below))
                 buckets
             in
             let top = le (List.nth buckets (List.length buckets - 1)) in
             Printf.sprintf "%s%s count=%d sum=%g%s le_inf=%d\n" name (labels l)
               (List.length !xs)
               (List.fold_left ( +. ) 0.0 (List.rev !xs))
               (String.concat "" counts)
               (List.length !xs - top))
       (List.rev order))

let prop_registry_model =
  QCheck.Test.make ~count:300 ~name:"registry matches an assoc-list model"
    QCheck.(
      list_of_size Gen.(0 -- 60)
        (quad (int_bound 2) (int_bound 2) (int_bound 15)
           (pair small_nat small_nat)))
    (fun ops ->
      let m = Metrics.create () in
      let order = ref [] in
      List.iter
        (fun (kind, name, bits, (seed, amount)) ->
          let name = [| "rpc.sent"; "rpc"; "lat" |].(name) in
          let given = model_labels bits seed in
          let key = (name, List.sort compare given) in
          let register () =
            match kind with
            | 0 -> `C (Metrics.counter m ~labels:given name)
            | 1 -> `G (Metrics.gauge m ~labels:given name)
            | _ -> `H (Metrics.histogram m ~labels:given name)
          in
          match (List.assoc_opt key !order, kind) with
          | None, _ -> (
              let inst =
                match register () with
                | `C c -> M_counter (c, ref 0)
                | `G g -> M_gauge (g, ref 0.0)
                | `H h -> M_hist (h, ref [])
              in
              (* a new key's instrument is none of the earlier ones *)
              List.iter
                (fun (_, old) ->
                  let same =
                    match (old, inst) with
                    | M_counter (a, _), M_counter (b, _) -> a == b
                    | M_gauge (a, _), M_gauge (b, _) -> a == b
                    | M_hist (a, _), M_hist (b, _) -> a == b
                    | _ -> false
                  in
                  if same then QCheck.Test.fail_report "distinct keys shared")
                !order;
              order := (key, inst) :: !order;
              match inst with
              | M_counter (c, n) ->
                  for _ = 1 to amount do Metrics.inc c done;
                  n := !n + amount
              | M_gauge (g, v) ->
                  Metrics.set g (float_of_int amount);
                  v := float_of_int amount
              | M_hist (h, xs) ->
                  Metrics.observe h (float_of_int amount *. 7.5);
                  xs := (float_of_int amount *. 7.5) :: !xs)
          | Some (M_counter (c, n)), 0 -> (
              match register () with
              | `C c' when c' == c ->
                  for _ = 1 to amount do Metrics.inc c' done;
                  n := !n + amount
              | _ -> QCheck.Test.fail_report "counter not shared")
          | Some (M_gauge (g, v)), 1 -> (
              match register () with
              | `G g' when g' == g ->
                  Metrics.set g' (float_of_int amount);
                  v := float_of_int amount
              | _ -> QCheck.Test.fail_report "gauge not shared")
          | Some (M_hist (h, xs)), 2 -> (
              match register () with
              | `H h' when h' == h ->
                  Metrics.observe h' (float_of_int amount *. 7.5);
                  xs := (float_of_int amount *. 7.5) :: !xs
              | _ -> QCheck.Test.fail_report "histogram not shared")
          | Some _, _ -> (
              match register () with
              | exception Invalid_argument _ -> ()
              | _ -> QCheck.Test.fail_report "kind mismatch accepted"))
        ops;
      String.equal (Metrics.dump m) (model_dump !order))

(* The whole registry of a run, pinned by digest: every instrument a
   cluster registers, in registration order, with its final value.
   One default run, and one in the shape of the swarm_faults benchmark
   (4 shards of 3, hedged retries, a generated fault script). *)
let dump_digest p =
  let r = Store.Cluster.run p in
  Digest.to_hex (Digest.string (Metrics.dump r.Store.Cluster.metrics))

let swarm_faults_params seed =
  let groups =
    Array.init 4 (fun s -> Array.init 3 (fun i -> Fmt.str "s%d:r%d" s i))
  in
  let clients = List.init 3 (fun i -> Fmt.str "c%d" i) in
  {
    Store.Cluster.default_params with
    n_replicas = 3;
    n_clients = 3;
    n_shards = 4;
    targeting = `Quorum;
    policy = Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 40;
        read_fraction = 0.5;
      };
    seed;
    script =
      Harness.Gen.script (Qc_util.Prng.create seed) ~groups ~clients
        ~horizon:300.0;
  }

let test_cluster_dump_pinned () =
  Alcotest.(check string) "default run" "8ce95f3b454cf601a085a38aa5bb2f90"
    (dump_digest Store.Cluster.default_params);
  Alcotest.(check string) "swarm_faults shape" "4798c210a42ea3e474a1467c54a62ecf"
    (dump_digest (swarm_faults_params 7))

(* ---------- cluster wiring: determinism, balance, layers ---------- *)

let traced_params seed =
  {
    Store.Cluster.default_params with
    n_replicas = 5;
    n_clients = 3;
    workload = { Store.Workload.default_spec with ops_per_client = 15 };
    seed;
    trace_capacity = 262144;
  }

let test_trace_deterministic () =
  let dump () =
    Export.jsonl (Store.Cluster.run (traced_params 42)).Store.Cluster.trace
  in
  let a = dump () and b = dump () in
  Alcotest.(check bool) "non-trivial" true (String.length a > 1000);
  Alcotest.(check bool) "byte-identical JSONL" true (String.equal a b)

let test_chrome_wellformed () =
  let r = Store.Cluster.run (traced_params 43) in
  let chrome = Export.chrome r.Store.Cluster.trace in
  (match Export.check_chrome chrome with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* sim, net and store all emit *)
  let events = Trace.events r.Store.Cluster.trace in
  List.iter
    (fun cat ->
      Alcotest.(check bool)
        (Fmt.str "%s layer emits" cat)
        true
        (Query.filter_events ~cat events <> []))
    [ "sim"; "net"; "store" ]

let test_spans_match_stats () =
  (* the trace query API agrees with the cluster's own Sim.Stats: the
     number of successful read spans equals the read count, and their
     mean duration the read-latency mean *)
  let r = Store.Cluster.run (traced_params 44) in
  let events = Trace.events r.Store.Cluster.trace in
  let ok_spans name =
    List.filter
      (fun (s : Query.span) -> Query.arg_bool s.Query.args "ok" = Some true)
      (Query.filter ~cat:"store" ~name (Query.spans events))
  in
  let reads = ok_spans "read" in
  Alcotest.(check int) "ok read spans = ok_reads" r.Store.Cluster.ok_reads
    (List.length reads);
  let summary = Sim.Stats.summarize (Sim.Stats.of_list (Query.durations reads)) in
  Alcotest.(check (float 1e-6))
    "span means = stats means" r.Store.Cluster.reads.Sim.Stats.mean
    summary.Sim.Stats.mean;
  Alcotest.(check (float 1e-6))
    "span p99 = stats p99" r.Store.Cluster.reads.Sim.Stats.p99
    summary.Sim.Stats.p99

let test_read_spans_contain_quorum_replies () =
  (* every successful read span contains >= a read quorum (3 of 5
     under majority) of reply instants for its request id *)
  let r = Store.Cluster.run (traced_params 45) in
  let events = Trace.events r.Store.Cluster.trace in
  let reads =
    List.filter
      (fun (s : Query.span) -> Query.arg_bool s.Query.args "ok" = Some true)
      (Query.filter ~cat:"store" ~name:"read" (Query.spans events))
  in
  Alcotest.(check bool) "some successful reads" true (reads <> []);
  List.iter
    (fun (s : Query.span) ->
      let rid = Option.get (Query.arg_int s.Query.args "rid") in
      let replies =
        List.filter
          (fun (e : Trace.event) ->
            Query.arg_int e.Trace.args "rid" = Some rid)
          (Query.filter_events ~cat:"store" ~name:"reply"
             (Query.events_within s events))
      in
      if List.length replies < 3 then
        Alcotest.failf "read span rid=%d saw only %d replies" rid
          (List.length replies))
    reads

let test_nemesis_drops_attributed () =
  (* with a partition nemesis and no loss, drops are link_cut /
     sender_down / dest_down, never loss — and the partition instants
     are in the trace *)
  let r =
    Store.Cluster.run
      { (traced_params 46) with partitions = Some 40.0; loss = 0.0 }
  in
  let c = r.Store.Cluster.net in
  Alcotest.(check int) "no loss drops" 0 c.Sim.Net.drop_loss;
  Alcotest.(check bool) "some link-cut drops" true (c.Sim.Net.drop_link_cut > 0);
  Alcotest.(check int) "total = sum of reasons" c.Sim.Net.dropped
    (c.Sim.Net.drop_sender_down + c.Sim.Net.drop_dest_down
   + c.Sim.Net.drop_link_cut + c.Sim.Net.drop_loss);
  let events = Trace.events r.Store.Cluster.trace in
  Alcotest.(check bool) "partition instants traced" true
    (Query.filter_events ~cat:"store" ~name:"nemesis.partition" events <> [])

let test_cluster_metrics_registry () =
  let r = Store.Cluster.run (traced_params 47) in
  let m = r.Store.Cluster.metrics in
  let total_ok =
    List.fold_left
      (fun acc ci ->
        acc
        + Metrics.value
            (Metrics.counter m
               ~labels:[ ("client", Fmt.str "c%d" ci) ]
               "store.client.ops_ok"))
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "registry ops_ok = results ok count"
    (r.Store.Cluster.ok_reads + r.Store.Cluster.ok_writes)
    total_ok

(* ---------- ioa wiring ---------- *)

let test_ioa_action_trail () =
  let tracer = Trace.create ~capacity:65536 () in
  match Quorum.Harness.run_and_check ~max_steps:500 ~tracer ~seed:11 () with
  | Error e -> Alcotest.fail e
  | Ok report ->
      let steps =
        Query.filter_events ~cat:"ioa" ~name:"step" (Trace.events tracer)
      in
      Alcotest.(check int) "one instant per scheduler step"
        report.Quorum.Harness.steps (List.length steps);
      (* the trail carries the rendered actions, in order *)
      List.iteri
        (fun i (e : Trace.event) ->
          Alcotest.(check (option int)) "step index" (Some i)
            (Query.arg_int e.Trace.args "i");
          if Query.arg_str e.Trace.args "action" = None then
            Alcotest.fail "step without action arg")
        steps

(* ---------- qcheck: query durations agree with Sim.Stats ---------- *)

let prop_span_durations_match_stats =
  QCheck.Test.make ~count:100
    ~name:"trace query span durations agree with Sim.Stats"
    QCheck.(small_list (pair (float_bound_exclusive 1000.0) (float_bound_exclusive 50.0)))
    (fun ops ->
      let tr = Trace.create () in
      List.iter
        (fun (start, dur) ->
          let s = Trace.begin_span tr ~cat:"t" ~name:"op" ~ts:start () in
          Trace.end_span tr s ~ts:(start +. dur) ())
        ops;
      let durations =
        Query.durations (Query.spans (Trace.events tr))
      in
      let expected = List.map snd ops in
      let s1 = Sim.Stats.summarize (Sim.Stats.of_list durations) in
      let s2 = Sim.Stats.summarize (Sim.Stats.of_list expected) in
      (* span endpoints round-trip through [start +. dur -. start], so
         compare with an ulp-scale tolerance *)
      let close a b = Float.abs (a -. b) < 1e-6 in
      s1.Sim.Stats.count = s2.Sim.Stats.count
      && (s1.Sim.Stats.count = 0
         || close s1.Sim.Stats.mean s2.Sim.Stats.mean
            && close s1.Sim.Stats.p50 s2.Sim.Stats.p50
            && close s1.Sim.Stats.p999 s2.Sim.Stats.p999
            && close s1.Sim.Stats.max s2.Sim.Stats.max))

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "ring buffer bounds" `Quick test_ring_bounds;
        Alcotest.test_case "disabled tracer records nothing" `Quick
          test_disabled_tracer_free;
        Alcotest.test_case "span pairing and durations" `Quick test_span_pairing;
        Alcotest.test_case "unbalanced spans detected" `Quick
          test_unbalanced_detected;
      ] );
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "control characters escaped" `Quick
          test_json_control_chars;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "wraparound keeps chrome well-formed" `Quick
          test_ring_wraparound_export;
        Alcotest.test_case "strict jsonl import" `Quick test_parse_jsonl_strict;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
        Alcotest.test_case "histogram bucket math" `Quick test_histogram_buckets;
        Alcotest.test_case "observe boxes nothing; dump pinned" `Quick
          test_histogram_observe_words;
        qcheck prop_registry_model;
        Alcotest.test_case "whole-cluster dumps pinned" `Quick
          test_cluster_dump_pinned;
      ] );
    ( "obs.cluster",
      [
        Alcotest.test_case "same seed, byte-identical JSONL" `Quick
          test_trace_deterministic;
        Alcotest.test_case "chrome export well-formed" `Quick
          test_chrome_wellformed;
        Alcotest.test_case "span durations = Sim.Stats" `Quick
          test_spans_match_stats;
        Alcotest.test_case "read spans contain quorum replies" `Quick
          test_read_spans_contain_quorum_replies;
        Alcotest.test_case "nemesis drops attributed" `Quick
          test_nemesis_drops_attributed;
        Alcotest.test_case "metrics registry totals" `Quick
          test_cluster_metrics_registry;
      ] );
    ( "obs.ioa",
      [ Alcotest.test_case "action trail" `Quick test_ioa_action_trail ] );
    ("obs.props", [ qcheck prop_span_durations_match_stats ]);
  ]
