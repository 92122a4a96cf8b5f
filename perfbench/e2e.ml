(* The end-to-end benchmark.

   One workload per process: [--trace 0] runs seeded [Store.Cluster.run]s
   back to back with tracing off and reports host cost per simulated
   operation next to the modelled outcome; [--trace 1] rebuilds the same
   runs in [World] with a span around every call into a layer and
   reports the per-layer ledger, after checking that every traced seed
   reproduces [Cluster.run] bit for bit.  Without [--workload] every
   workload runs, each in a child process of its own, and [--compare]
   checks the result against an earlier one with the bounds of
   BENCHMARK.json.

   A benchmark run ends its standard output with one JSON object. *)

module Cluster = Store.Cluster
module J = Obs.Json

(* ---------- small statistics ---------- *)

(* nearest rank, as Sim.Stats defines percentiles *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile xs 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* the JSON member at a path of object keys *)
let rec at keys j =
  match keys with [] -> Some j | k :: ks -> Option.bind (J.member k j) (at ks)
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Run i of a workload simulates seed [seed * 1_000_000 + i]: one
   --seed value names one block of seeds, disjoint from the others. *)
let first_seed seed = seed * 1_000_000

let cpu_ns = Reference.cpu_ns

let time f =
  let t0 = cpu_ns () in
  let r = f () in
  (cpu_ns () -. t0, r)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let metrics_json ms =
  J.Obj
    (List.map
       (fun x ->
         (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit) ]))
       ms)

let result_json ~correct ~attempted ~failed ms =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ("metrics", metrics_json ms);
    ]

let print_table ms =
  List.iter (fun x -> Fmt.pr "  %-40s %16.6g %s@." x.name x.value x.unit) ms

(* Failing seeds with their first complaint. *)
let report_failures failures =
  List.iter
    (fun (seed, msgs) ->
      Fmt.pr "FAIL seed %d: %s@." seed
        (match msgs with m :: _ -> m | [] -> "?"))
    failures

(* ---------- end-to-end pass: Cluster.run, tracing off ---------- *)

type sample = {
  ns : float;
  words : float;
  ops : int;
  ok : int;
  msgs : int;
  duration : float;
  commit_p50 : float;
  commit_p99 : float;
  lat_sum : float;  (** summed latency of every successful operation *)
  lat_n : int;
}

let sample_of ~ns ~words (r : Cluster.results) =
  let c = Workloads.commit_latency r in
  let summaries = if r.txn_run then [ r.txn_latency ] else [ r.reads; r.writes ] in
  let lat_n = sumi (fun (s : Sim.Stats.summary) -> s.count) summaries in
  {
    ns;
    words;
    ops = Workloads.ops r;
    ok = Workloads.ok_ops r;
    msgs = r.net.Sim.Net.sent;
    duration = r.duration;
    commit_p50 = c.p50;
    commit_p99 = c.p99;
    lat_sum =
      sumf
        (fun (s : Sim.Stats.summary) ->
          if s.count = 0 then 0.0 else s.mean *. float_of_int s.count)
        summaries;
    lat_n;
  }

(* Seeded runs through Harness.Swarm.sweep: per seed, generate the fault
   script, run the cluster, check the verdict — the clock and the word
   counter cover all three.  [before i] runs ahead of seed [i], outside
   the clock. *)
let sweep ?(before = fun _ -> ()) (w : Workloads.t) ~seed0 ~runs =
  let t0 = ref 0.0 and w0 = ref 0.0 in
  let samples = ref [] in
  let gen ~seed =
    before (seed - seed0);
    w0 := Gc.minor_words ();
    t0 := cpu_ns ();
    w.gen ~seed
  in
  let run ~seed script =
    let r = Cluster.run (w.params ~seed ~script) in
    let v = Workloads.violations ~script r in
    let ns = cpu_ns () -. !t0 in
    let words = Gc.minor_words () -. !w0 in
    samples := sample_of ~ns ~words r :: !samples;
    v
  in
  let failures = Harness.Swarm.sweep ~run ~gen ~seeds:runs ~seed0 () in
  ( List.rev !samples,
    List.map
      (fun (o : Harness.Swarm.outcome) ->
        (o.Harness.Swarm.seed, o.Harness.Swarm.violations))
      failures )

(* Set-up time is sampled across the whole pass, as batches of zero-op
   runs spread between the seeds, so it sees the same host conditions
   as the runs it is compared with. *)
let setup_batches = 21
let setup_batch = 50

(* Seeds between two samples of the host's speed: about one sample per
   25 ms of runs. *)
let reference_every (w : Workloads.t) = max 1 (int_of_float (w.runs_per_second /. 40.0))

let e2e_pass (w : Workloads.t) ~seed0 ~runs =
  ignore (sweep w ~seed0 ~runs:(min runs 3));
  let speed = Reference.create () in
  for _ = 1 to Reference.window do
    Reference.observe speed
  done;
  let scales = Array.make runs 1.0 in
  let setups = ref [] in
  let every = max 1 (runs / setup_batches) in
  let before i =
    if i mod reference_every w = 0 then Reference.observe speed;
    scales.(i) <- Reference.scale speed;
    if i mod every = 0 && List.length !setups < setup_batches then begin
      let ps =
        List.init setup_batch (fun j ->
            Workloads.zero_ops (w.params ~seed:(seed0 + i + j) ~script:[]))
      in
      let ns, () = time (fun () -> List.iter (fun p -> ignore (Cluster.run p)) ps) in
      setups := (ns *. scales.(i) /. float_of_int setup_batch /. 1e9) :: !setups
    end
  in
  let samples, failures = sweep ~before w ~seed0 ~runs in
  let samples = List.mapi (fun i s -> { s with ns = s.ns *. scales.(i) }) samples in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let per_op f = List.map (fun s -> f s /. float_of_int s.ops) samples in
  let ops = float_of_int (sumi (fun s -> s.ops) samples) in
  let metrics =
    [
      m "ns_per_op" "ns/op" (median (per_op (fun s -> s.ns)));
      m "ns_per_op_p90" "ns/op" (quantile (per_op (fun s -> s.ns)) 0.9);
      m "seeds_per_s" "1/s" (1e9 /. median (List.map (fun s -> s.ns) samples));
      m "setup_s" "s" (median !setups);
      m "words_per_op" "words/op" (median (per_op (fun s -> s.words)));
      m "top_heap_mb" "MB" top_heap_mb;
      m "ok_share" "share" (float_of_int (sumi (fun s -> s.ok) samples) /. ops);
      m "msgs_per_op" "msgs/op" (float_of_int (sumi (fun s -> s.msgs) samples) /. ops);
      m "virt_commit_p50" "vtime" (median (List.map (fun s -> s.commit_p50) samples));
      m "virt_commit_p99" "vtime" (median (List.map (fun s -> s.commit_p99) samples));
      m "virt_mean" "vtime"
        (sumf (fun s -> s.lat_sum) samples
        /. float_of_int (sumi (fun s -> s.lat_n) samples));
      m "virt_ops_per_time" "ops/vtime" (ops /. sumf (fun s -> s.duration) samples);
    ]
  in
  (metrics, failures)

(* ---------- traced pass: the ledger ---------- *)

(* Micro-costs that no run isolates: a heap push+pop at depth 64, and a
   trace instant with tracing off and on (median of 5 batches). *)
let micro ~scale =
  let batch n f =
    let reps =
      List.init 5 (fun _ ->
          let w0 = Gc.minor_words () in
          let ns, () = time (fun () -> for _ = 1 to n do f () done) in
          (ns /. float_of_int n, (Gc.minor_words () -. w0) /. float_of_int n))
    in
    (median (List.map fst reps), median (List.map snd reps))
  in
  let h = Sim.Heap.create () in
  for i = 0 to 63 do
    Sim.Heap.push h (float_of_int i) i ()
  done;
  let seq = ref 64 in
  let heap_ns, heap_words =
    batch 200_000 (fun () ->
        match Sim.Heap.pop h with
        | Some (t, _, ()) ->
            incr seq;
            Sim.Heap.push h (t +. 64.0) !seq ()
        | None -> assert false)
  in
  let off = Obs.Trace.create ~capacity:0 ~enabled:false () in
  let on = Obs.Trace.create ~capacity:4096 () in
  let instant tr () = Obs.Trace.instant tr ~cat:"sim" ~name:"exec" ~track:"sim" () in
  let off_ns, _ = batch 1_000_000 (instant off) in
  let on_ns, _ = batch 200_000 (instant on) in
  [
    m "sim.heap.push_pop_ns" "ns" (heap_ns *. scale);
    m "sim.heap.push_pop_words" "words" heap_words;
    m "obs.trace.instant_off_ns" "ns" (off_ns *. scale);
    m "obs.trace.instant_on_ns" "ns" (on_ns *. scale);
  ]

(* Dump one traced run's spans as a Chrome trace and validate it. *)
let chrome_dump (w : Workloads.t) ~seed path =
  let tr = Obs.Trace.create ~capacity:(1 lsl 20) () in
  let lg = Ledger.create ~dump:tr ~on:true () in
  let script = w.gen ~seed in
  ignore (World.run lg (w.params ~seed ~script) : World.outcome);
  let json = Obs.Export.chrome tr in
  match Obs.Export.check_chrome json with
  | Error e -> [ Fmt.str "chrome trace: %s" e ]
  | Ok () when Obs.Trace.overwritten tr > 0 -> [ "chrome trace: ring overflow" ]
  | Ok () -> (
      try
        Out_channel.with_open_bin path (fun oc -> output_string oc json);
        Fmt.pr "wrote %d span events to %s@." (Obs.Trace.length tr) path;
        []
      with Sys_error e -> [ Fmt.str "chrome trace: %s" e ])

(* What the ledger needs from one traced seed, kept small so that
   finished runs do not stay live and slow the collector down. *)
type traced = {
  ops : int;
  events : int;
  sent : int;
  payloads : int;
  dropped : int;
  requests : int;  (** queries + installs served by replicas *)
  installs : int;
  fsyncs : int;
  writes : int;  (** single-key writes attempted *)
  ok_txns : int;
  txn_attempts : int;
  retries : int;
  hedges : int;
  timeouts : int;
  load_skew : float;  (** busiest replica's load over the mean *)
  c_ns : float;  (** Cluster.run, tracing off *)
  w_ns : float;  (** World, no spans *)
  t_ns : float;  (** World, spans on *)
}

let traced_of (o : World.outcome) ~c_ns ~w_ns ~t_ns =
  let r = o.results in
  let loads = List.map snd r.replica_loads in
  let requests = List.fold_left ( + ) 0 loads in
  let counter = World.counter_total r.metrics in
  {
    ops = Workloads.ops r;
    events = o.events;
    sent = r.net.sent;
    payloads = r.net.payload_sent;
    dropped = r.net.dropped;
    requests;
    installs = r.installs;
    fsyncs = r.fsyncs;
    writes = r.ok_writes + r.failed_writes;
    ok_txns = r.ok_txns;
    txn_attempts = o.txn_attempts;
    retries = counter "rpc.retries";
    hedges = counter "rpc.hedges";
    timeouts = counter "rpc.op_timeouts";
    load_skew =
      ratio
        (float_of_int (List.fold_left max 0 loads))
        (float_of_int requests /. float_of_int (List.length loads));
    c_ns;
    w_ns;
    t_ns;
  }

let traced_pass (w : Workloads.t) ~seed0 ~runs ~chrome =
  let lg = Ledger.create ~on:true () in
  let failures = ref [] in
  let fail seed msg = failures := (seed, [ msg ]) :: !failures in
  let params seed = w.params ~seed ~script:(w.gen ~seed) in
  let references = ref [] in
  (* per seed: Cluster.run, the world without spans and the world with
     them, in an order rotated from seed to seed so that no variant
     always pays the collector debt of the one before *)
  let one i =
    let seed = seed0 + i in
    references := Reference.sample () :: !references;
    let c = ref None and u = ref None and t = ref None in
    let variants =
      [|
        (fun () -> c := Some (time (fun () -> Cluster.run (params seed))));
        (fun () -> u := Some (time (fun () -> World.run Ledger.off (params seed))));
        (fun () ->
          t :=
            Some
              (time (fun () ->
                   Ledger.enter lg Ledger.script;
                   let script = w.gen ~seed in
                   Ledger.leave lg;
                   World.run lg (w.params ~seed ~script))));
      |]
    in
    for k = 0 to 2 do
      variants.((i + k) mod 3) ()
    done;
    let c_ns, rc = Option.get !c
    and w_ns, ow = Option.get !u
    and t_ns, ot = Option.get !t in
    let d = Cluster.digest rc in
    if Cluster.digest ow.World.results <> d then
      fail seed "untraced world does not reproduce Cluster.run";
    if Cluster.digest ot.World.results <> d then
      fail seed "traced world does not reproduce Cluster.run";
    if ow.World.pending + ot.World.pending <> 0 then
      fail seed "engine calls left pending after the drain";
    (match Workloads.violations ~script:(w.gen ~seed) rc with
    | [] -> ()
    | v :: _ -> fail seed v);
    (traced_of ot ~c_ns ~w_ns ~t_ns, d)
  in
  (match chrome with
  | Some path -> List.iter (fail seed0) (chrome_dump w ~seed:seed0 path)
  | None -> ());
  let rs, digests = List.split (List.init runs one) in
  (* tracing on, in a loop of its own: its buffers are the garbage the
     other variants should not pay for *)
  let on_ns =
    List.mapi
      (fun i d ->
        let seed = seed0 + i in
        let ns, r =
          time (fun () ->
              Cluster.run
                { (params seed) with trace_capacity = 1 lsl 20; trace_ctx = true })
        in
        if Cluster.digest r <> d then
          fail seed "tracing on changes the Cluster.run digest";
        ns)
      digests
  in
  (* the ledger's host times, at reference speed *)
  let reference_ns = median !references in
  let scale = Reference.nominal_ns /. reference_ns in
  let total f = float_of_int (sumi f rs) in
  let ops = total (fun r -> r.ops) in
  let per_op x = x /. ops in
  let layers =
    List.concat
      (List.init Ledger.n_layers (fun l ->
           let name = Ledger.names.(l) in
           let calls = float_of_int lg.Ledger.calls.(l) in
           [
             m (name ^ ".calls_per_op") "calls/op" (per_op calls);
             m (name ^ ".self_ns_per_op") "ns/op"
               (per_op lg.Ledger.self_ns.(l) *. scale);
             m (name ^ ".ns_per_call") "ns/call"
               (ratio lg.Ledger.self_ns.(l) calls *. scale);
             m (name ^ ".words_per_op") "words/op"
               (per_op lg.Ledger.self_words.(l));
           ]))
  in
  let counts =
    [
      m "sim.core.events_per_op" "events/op" (per_op (total (fun r -> r.events)));
      m "sim.net.payloads_per_msg" "payloads/msg"
        (ratio (total (fun r -> r.payloads)) (total (fun r -> r.sent)));
      m "sim.net.drop_share" "share"
        (ratio (total (fun r -> r.dropped)) (total (fun r -> r.sent)));
      m "store.replica.requests_per_op" "requests/op"
        (per_op (total (fun r -> r.requests)));
      m "store.replica.installs_per_write" "installs/write"
        (ratio (total (fun r -> r.installs)) (total (fun r -> r.writes)));
      m "store.replica.load_skew" "max/mean"
        (median (List.map (fun r -> r.load_skew) rs));
      m "sim.storage.installs_per_fsync" "installs/fsync"
        (ratio (total (fun r -> r.installs)) (total (fun r -> r.fsyncs)));
      m "rpc.engine.retries_per_op" "retries/op" (per_op (total (fun r -> r.retries)));
      m "rpc.engine.hedges_per_op" "hedges/op" (per_op (total (fun r -> r.hedges)));
      m "rpc.engine.timeouts_per_op" "timeouts/op"
        (per_op (total (fun r -> r.timeouts)));
      m "store.txn.commit_share" "share"
        (ratio (total (fun r -> r.ok_txns)) (total (fun r -> r.txn_attempts)));
    ]
  in
  let med_ratio f g = median (List.map (fun r -> ratio (f r) (g r)) rs) in
  let whole =
    [
      m "obs.trace_on_ratio" "ratio"
        (ratio (median on_ns) (median (List.map (fun r -> r.c_ns) rs)));
      m "bench.span_overhead_ratio" "ratio"
        (med_ratio (fun r -> r.t_ns) (fun r -> r.w_ns));
      m "bench.world_vs_cluster_ratio" "ratio"
        (med_ratio (fun r -> r.w_ns) (fun r -> r.c_ns));
    ]
  in
  let traced_wall = sumf (fun r -> r.t_ns) rs in
  Fmt.pr "ledger: self times sum to %.1f ms, %.1f%% of the traced runs' %.1f ms@."
    (Ledger.total_self_ns lg /. 1e6)
    (100.0 *. Ledger.total_self_ns lg /. traced_wall)
    (traced_wall /. 1e6);
  ( layers @ counts @ micro ~scale @ whole
    @ [ m "bench.reference_ns" "ns" reference_ns ],
    List.rev !failures )

(* ---------- one workload ---------- *)

let meta () =
  [
    ("ocaml", J.Str Sys.ocaml_version);
    ( "ocamlrunparam",
      J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
    ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
  ]

(* A fixed count per second of --seconds; the traced pass, which runs
   each seed four ways, takes a quarter of them. *)
let runs_for (w : Workloads.t) ~seconds ~trace ~runs =
  match runs with
  | Some n -> n
  | None ->
      let n = int_of_float (Float.round (w.runs_per_second *. float_of_int seconds)) in
      max 2 (if trace then n / 4 else n)

let run_workload (w : Workloads.t) ~seed ~seconds ~trace ~runs ~chrome =
  let seed0 = first_seed seed in
  let runs = runs_for w ~seconds ~trace ~runs in
  Fmt.pr "# %s: %d %s run(s) from seed %d; %s@." w.name runs
    (if trace then "traced" else "untraced")
    seed0
    (J.to_string (J.Obj (meta ())));
  let metrics, failures =
    if trace then traced_pass w ~seed0 ~runs ~chrome else e2e_pass w ~seed0 ~runs
  in
  print_table metrics;
  report_failures failures;
  let failed = List.length (List.sort_uniq compare (List.map fst failures)) in
  let correct = failed = 0 in
  Fmt.pr "%s@."
    (J.to_string (result_json ~correct ~attempted:runs ~failed metrics));
  if correct then 0 else 1

(* ---------- every workload, each in a child process ---------- *)

(* Run this executable on one workload and pass its report through,
   all but the closing JSON line, which is returned parsed. *)
let child ~args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec read last =
    match input_line ic with
    | l ->
        Option.iter (Fmt.pr "%s@.") last;
        read (Some l)
    | exception End_of_file -> last
  in
  let last = read None in
  let status = Unix.close_process_in ic in
  match (status, Option.map J.parse last) with
  | Unix.WEXITED 0, Some (Ok j) -> Ok j
  | _, Some (Ok j) -> Error (Some j)
  | _ -> Error None

let field name j = Option.value ~default:J.Null (at [ name ] j)

let run_all ~seed ~seconds ~runs =
  let exe = Sys.executable_name in
  let ok = ref true in
  let per_workload (w : Workloads.t) =
    let pass trace =
      let args =
        [ exe; "--workload"; w.name; "--seed"; string_of_int seed;
          "--seconds"; string_of_int seconds; "--trace"; trace ]
        @ match runs with Some n -> [ "--runs"; string_of_int n ] | None -> []
      in
      match child ~args with
      | Ok j -> j
      | Error j ->
          ok := false;
          Option.value ~default:J.Null j
    in
    let e2e = pass "0" in
    let layers = pass "1" in
    ( w.name,
      J.Obj
        [
          ("correct", field "correct" e2e);
          ("metrics", field "metrics" e2e);
          ("layers_correct", field "correct" layers);
          ("layers", field "metrics" layers);
        ] )
  in
  let doc =
    J.Obj
      ([ ("seed", J.Num (float_of_int seed)); ("seconds", J.Num (float_of_int seconds)) ]
      @ meta ()
      @ [ ("workloads", J.Obj (List.map per_workload Workloads.all)) ])
  in
  (doc, !ok)

(* ---------- --compare ---------- *)

let value_of doc ~workload ~section ~metric =
  Option.bind (at [ "workloads"; workload; section; metric; "value" ] doc) J.to_float_opt

(* (name, better, bound) of every end-to-end metric of BENCHMARK.json *)
let bounds_of bench =
  Option.value ~default:[]
    (Option.bind (J.member "end_to_end" bench) J.to_list)
  |> List.filter_map (fun e ->
         match
           ( Option.bind (J.member "name" e) J.to_string_opt,
             Option.bind (J.member "better" e) J.to_string_opt,
             Option.bind (J.member "bound" e) J.to_float_opt )
         with
         | Some n, Some b, Some x -> Some (n, b, x)
         | _ -> None)

let layer_names doc =
  match J.member "workloads" doc with
  | Some (J.Obj ((_, wj) :: _)) -> (
      match J.member "layers" wj with Some (J.Obj kvs) -> List.map fst kvs | _ -> [])
  | _ -> []

let compare_docs ~old ~now ~bounds =
  let regressions = ref 0 in
  Fmt.pr "@.%-14s %-40s %14s %14s %9s %7s@." "workload" "metric" "old" "new"
    "delta" "bound";
  List.iter
    (fun (w : Workloads.t) ->
      let row ~section ~metric ~flag =
        match
          ( value_of old ~workload:w.name ~section ~metric,
            value_of now ~workload:w.name ~section ~metric )
        with
        | Some a, Some b ->
            let delta = ratio (b -. a) (Float.abs a) in
            let verdict, bound = flag delta in
            Fmt.pr "%-14s %-40s %14.6g %14.6g %+8.2f%% %7s%s@." w.name metric a b
              (100.0 *. delta) bound verdict
        | _ -> Fmt.pr "%-14s %-40s %14s@." w.name metric "missing"
      in
      List.iter
        (fun (metric, better, bound) ->
          row ~section:"metrics" ~metric ~flag:(fun delta ->
              let worse = if better = "lower" then delta else -.delta in
              if worse > bound then begin
                incr regressions;
                ("  REGRESSION", Fmt.str "%.0f%%" (100.0 *. bound))
              end
              else ("", Fmt.str "%.0f%%" (100.0 *. bound))))
        bounds;
      List.iter
        (fun metric -> row ~section:"layers" ~metric ~flag:(fun _ -> ("", "-")))
        (layer_names now))
    Workloads.all;
  Fmt.pr "%d regression(s) beyond the BENCHMARK.json bounds@." !regressions;
  !regressions = 0

let load_json path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> Ok j
  | Error e -> Error (Fmt.str "%s: %s" path e)
  | exception Sys_error e -> Error e

(* ---------- CLI ---------- *)

let main workload seed seconds trace runs chrome baseline =
  if seconds < 1 then (Fmt.epr "--seconds must be at least 1@."; 2)
  else if (match runs with Some n -> n < 1 | None -> false) then
    (Fmt.epr "--runs must be at least 1@."; 2)
  else
    match workload with
    | Some name -> (
        match Workloads.find name with
        | None ->
            Fmt.epr "unknown workload %s (have: %s)@." name
              (String.concat ", "
                 (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
            2
        | Some w -> run_workload w ~seed ~seconds ~trace ~runs ~chrome)
    | None -> (
        let baseline =
          Option.map
            (fun path ->
              Result.bind (load_json path) (fun old ->
                  Result.map (fun b -> (old, bounds_of b)) (load_json "BENCHMARK.json")))
            baseline
        in
        match baseline with
        | Some (Error e) ->
            Fmt.epr "--compare: %s@." e;
            2
        | _ ->
            let doc, ok = run_all ~seed ~seconds ~runs in
            let same =
              match baseline with
              | Some (Ok (old, bounds)) -> compare_docs ~old ~now:doc ~bounds
              | _ -> true
            in
            Fmt.pr "%s@." (J.to_string doc);
            if ok && same then 0 else 1)

open Cmdliner

let workload =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"NAME"
        ~doc:"Run only this workload, in this process (default: every workload).")

let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Seed block of the runs.")

let seconds =
  Arg.(
    value & opt int 10
    & info [ "seconds" ] ~docv:"N"
        ~doc:"Run length: each workload runs a fixed number of seeds per second of $(docv).")

let trace =
  let zero_one = Arg.enum [ ("0", false); ("1", true) ] in
  Arg.(
    value & opt zero_one false
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"$(b,0): end-to-end metrics, tracing off.  $(b,1): the traced per-layer ledger.")

let runs =
  Arg.(
    value
    & opt (some int) None
    & info [ "runs" ] ~docv:"N" ~doc:"Override the run count (e.g. 2 for a smoke run).")

let chrome =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:"With --trace 1: write the first seed's spans to $(docv) as a Chrome trace.")

let baseline =
  Arg.(
    value
    & opt (some string) None
    & info [ "compare" ] ~docv:"OLD.json"
        ~doc:
          "With every workload: compare against an earlier result, flag each \
           end-to-end metric worse than its BENCHMARK.json bound, exit 1 on any.")

let () =
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "e2e" ~doc:"End-to-end and per-layer benchmark of the simulated store")
          Term.(const main $ workload $ seed $ seconds $ trace $ runs $ chrome $ baseline)))
