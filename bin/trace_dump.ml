(* Dump, filter, and analyze execution traces from seeded simulated
   runs.

   The default command runs a small replicated-store cluster (sim +
   net + store layers) and, unless --no-ioa, a randomized system-B
   execution through the quorum harness (ioa layer) — all into ONE
   tracer — then exports it as JSONL or Chrome trace_event JSON (load
   the latter in chrome://tracing or https://ui.perfetto.dev).  With
   --input FILE it instead re-exports an existing JSONL trace —
   strictly: a corrupt file exits 2 with no partial dump.  --cat and
   --track restrict the export either way.

   Subcommands:
     attribution   run a causally-stamped cluster and decompose each
                   operation's wall latency into phases (self-checking:
                   the phases must sum to the wall latency)
     invariance    prove tracing is observation-only: seeded runs with
                   tracing off / on / causally stamped must produce
                   identical simulation digests

   Examples:
     trace_dump.exe --seed 7 -o trace.json
     trace_dump.exe --format jsonl --ops 50 | head
     trace_dump.exe --validate              # well-formedness smoke check
     trace_dump.exe --input trace.jsonl --cat store --format jsonl
     trace_dump.exe attribution --seed 42 --shards 4 --json
     trace_dump.exe invariance --seeds 42,7,101 *)

open Cmdliner

(* params the cluster rejects are bad input: one line, exit 2 *)
let with_valid params k =
  match Store.Cluster.validate params with
  | Error e ->
      Fmt.epr "trace_dump: %s@." e;
      2
  | Ok () -> k ()

(* -o's file is opened before any work, so a bad path is bad input
   too: one line, exit 2, not a crash or a lost run at the end.  [k]
   writes to the file, or to stdout without -o. *)
let with_output out k =
  match out with
  | None -> k stdout
  | Some path -> (
      match open_out path with
      | exception Sys_error e ->
          Fmt.epr "trace_dump: cannot write %s@." e;
          2
      | oc ->
          Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
          let code = k oc in
          close_out oc;
          code)

(* ---------- dump (the default command) ---------- *)

let run_dump seed replicas clients ops loss partitions capacity format out
    validate no_ioa with_metrics input cat track =
  let filtered events = Obs.Query.filter_events ?cat ?track events in
  let params =
    {
      Store.Cluster.default_params with
      n_replicas = replicas;
      n_clients = clients;
      workload = { Store.Workload.default_spec with ops_per_client = ops };
      trace_capacity = capacity;
      loss;
      partitions;
      seed;
    }
  in
  (* strict import: any unreadable or corrupt line refuses the whole
     dump — partial traces mislead more than they help.  The import is
     read in full before -o is opened, so -o may name the input. *)
  let imported =
    match input with
    | None -> Ok None
    | Some path -> (
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error e -> Error (Fmt.str "cannot read %s: %s" path e)
        | contents -> (
            match Obs.Export.parse_jsonl contents with
            | Ok events -> Ok (Some events)
            | Error e -> Error (Fmt.str "corrupt trace %s: %s" path e)))
  in
  match imported with
  | Error e ->
      Fmt.epr "trace_dump: %s@." e;
      2
  | Ok imported -> (
      (* an imported trace runs no cluster, so its params go unchecked *)
      (if input = None then with_valid params else fun k -> k ()) @@ fun () ->
      with_output out @@ fun oc ->
      let events =
        match imported with
        | Some events -> filtered events
        | None ->
            (* the store/net/sim layers: a seeded cluster run *)
            let tracer = Obs.Trace.create ~capacity () in
            let results =
              Store.Cluster.run
                { params with Store.Cluster.tracer = Some tracer }
            in
            (* the ioa layer: a short system-B action trail through the
               harness *)
            (if not no_ioa then
               match
                 Quorum.Harness.run_and_check ~max_steps:400 ~tracer ~seed ()
               with
               | Ok _ -> ()
               | Error e -> Fmt.epr "warning: harness check failed: %s@." e);
            if with_metrics then
              Fmt.epr "%s" (Obs.Metrics.dump results.Store.Cluster.metrics);
            filtered (Obs.Trace.events tracer)
      in
      let contents =
        match format with
        | `Chrome -> Obs.Export.chrome_of_events events
        | `Jsonl -> Obs.Export.jsonl_of_events events
      in
      let validation =
        if not validate then Ok ()
        else
          match format with
          | `Chrome -> Obs.Export.check_chrome contents
          | `Jsonl -> (
              match Obs.Export.parse_jsonl contents with
              | Error e -> Error (Fmt.str "bad JSONL: %s" e)
              | Ok _ -> Obs.Query.check_balanced events)
      in
      match
        output_string oc contents;
        flush oc;
        Option.iter
          (Fmt.epr "wrote %d events to %s@." (List.length events))
          out
      with
      | exception Sys_error e ->
          Fmt.epr "cannot write trace: %s@." e;
          1
      | () -> (
          match validation with
          | Ok () ->
              if validate then
                Fmt.epr "trace OK: valid JSON, spans balanced@.";
              0
          | Error e ->
              Fmt.epr "trace INVALID: %s@." e;
              1))

let seed =
  Arg.(value & opt int 7 & info [ "s"; "seed" ] ~doc:"Simulation seed.")

let replicas =
  Arg.(value & opt int 5 & info [ "replicas" ] ~doc:"Number of replicas.")

let clients =
  Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Number of clients.")

let ops =
  Arg.(value & opt int 20 & info [ "ops" ] ~doc:"Operations per client.")

let loss =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Message loss rate.")

let partitions =
  Arg.(
    value
    & opt (some float) None
    & info [ "partitions" ] ~doc:"Mean time between nemesis partitions.")

let capacity =
  Arg.(
    value & opt int 262144
    & info [ "capacity" ] ~doc:"Trace ring-buffer capacity (events).")

let format =
  Arg.(
    value
    & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
    & info [ "format" ] ~doc:"Output format: $(b,chrome) or $(b,jsonl).")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE (default stdout).")

let validate =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:"Check the export is valid JSON with balanced span begin/ends; \
              exit 1 otherwise.")

let no_ioa =
  Arg.(
    value & flag
    & info [ "no-ioa" ] ~doc:"Skip the system-B (ioa layer) run.")

let with_metrics =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Also dump the metrics registry to stderr.")

let input =
  Arg.(
    value
    & opt (some string) None
    & info [ "input" ] ~docv:"FILE"
        ~doc:
          "Re-export an existing JSONL trace instead of running a \
           simulation.  The import is strict: an unreadable or corrupt \
           file exits 2 without emitting a partial dump.")

let cat_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "cat" ] ~docv:"CAT"
        ~doc:"Keep only events of this category (e.g. $(b,store), $(b,ioa)).")

let track_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "track" ] ~docv:"TRACK"
        ~doc:"Keep only events on this track (a client, replica, or node).")

let dump_term =
  Term.(
    const run_dump $ seed $ replicas $ clients $ ops $ loss $ partitions
    $ capacity $ format $ out $ validate $ no_ioa $ with_metrics $ input
    $ cat_filter $ track_filter)

(* ---------- attribution ---------- *)

let run_attribution seed replicas clients ops loss shards burst batch_window
    storage_cost fsync_cost json out =
  let tracer = Obs.Trace.create ~capacity:262144 ~enabled:true () in
  let params =
    {
      Store.Cluster.default_params with
      n_replicas = replicas;
      n_clients = clients;
      n_shards = shards;
      loss;
      seed;
      tracer = Some tracer;
      trace_ctx = true;
      batch_window;
      storage_cost;
      fsync_cost;
      policy = Store.Experiments.attribution_policy;
      workload =
        {
          Store.Workload.default_spec with
          ops_per_client = ops;
          zipf_s = 1.1;
          burst;
        };
    }
  in
  with_valid params @@ fun () ->
  with_output out @@ fun oc ->
  let results = Store.Cluster.run params in
  let events = Obs.Trace.events tracer in
  let bs = Obs.Attribution.of_events events in
  (* self-check: the decomposition must be exact — every operation's
     phases sum to its wall latency *)
  let bad =
    List.filter
      (fun b ->
        let sum =
          List.fold_left (fun a (_, d) -> a +. d) 0.0 b.Obs.Attribution.by_phase
        in
        Float.abs (Obs.Attribution.wall b -. sum) > 1e-6)
      bs
  in
  let total_ops =
    results.Store.Cluster.ok_reads + results.Store.Cluster.ok_writes
    + results.Store.Cluster.failed_reads + results.Store.Cluster.failed_writes
  in
  if bs = [] then begin
    Fmt.epr "attribution: no stamped operations in the trace@.";
    1
  end
  else if bad <> [] then begin
    List.iter
      (fun b ->
        Fmt.epr "attribution: phases of %s do not sum to its wall latency@."
          b.Obs.Attribution.op)
      bad;
    1
  end
  else begin
    let emit = output_string oc in
    if json then
      emit (Obs.Json.to_string (Obs.Attribution.report_to_json bs) ^ "\n")
    else begin
      let buf = Buffer.create 1024 in
      let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
      add "attributed %d of %d operations@\n" (List.length bs) total_ops;
      add "%-10s %6s %9s" "shard" "ops" "wall";
      List.iter
        (fun p -> add " %8s" (Obs.Attribution.phase_label p))
        Obs.Attribution.phases;
      add "@\n";
      List.iter
        (fun shard ->
          let mine =
            List.filter (fun b -> b.Obs.Attribution.shard = shard) bs
          in
          let n = List.length mine in
          let wall_mean =
            List.fold_left (fun a b -> a +. Obs.Attribution.wall b) 0.0 mine
            /. float_of_int n
          in
          add "%-10s %6d %9.3f"
            (match shard with
            | Some s -> Fmt.str "s%d" s
            | None -> "-")
            n wall_mean;
          List.iter
            (fun (_, d) -> add " %8.3f" d)
            (Obs.Attribution.mean_by_phase mine);
          add "@\n")
        (Obs.Attribution.shards bs);
      emit (Buffer.contents buf)
    end;
    0
  end

let shards =
  Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Number of shards.")

let burst =
  Arg.(value & opt int 4 & info [ "burst" ] ~doc:"Operations per burst.")

let attr_batch_window =
  Arg.(
    value
    & opt (some float) (Some 1.0)
    & info [ "batch-window" ] ~doc:"Client batching window (time units).")

let storage_cost =
  Arg.(
    value & opt float 0.05
    & info [ "storage-cost" ] ~doc:"Per-write latency of replica storage.")

let fsync_cost =
  Arg.(
    value & opt float 2.0
    & info [ "fsync-cost" ] ~doc:"Per-fsync latency of replica storage.")

let attr_json =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the machine-readable JSON report.")

let attr_ops =
  Arg.(value & opt int 40 & info [ "ops" ] ~doc:"Operations per client.")

let attribution_cmd =
  let doc =
    "decompose each operation's wall latency into causally-attributed phases"
  in
  Cmd.v
    (Cmd.info "attribution" ~doc)
    Term.(
      const run_attribution $ seed $ replicas $ clients $ attr_ops $ loss
      $ shards $ burst $ attr_batch_window $ storage_cost $ fsync_cost
      $ attr_json $ out)

(* ---------- invariance ---------- *)

let run_invariance seeds replicas clients ops loss shards burst batch_window
    storage_cost fsync_cost =
  let base seed =
    {
      Store.Cluster.default_params with
      n_replicas = replicas;
      n_clients = clients;
      n_shards = shards;
      loss;
      seed;
      batch_window;
      storage_cost;
      fsync_cost;
      workload =
        { Store.Workload.default_spec with ops_per_client = ops; burst };
    }
  in
  let digest p = Store.Cluster.digest (Store.Cluster.run p) in
  (* checking no seed proves nothing *)
  if seeds = [] then (
    Fmt.epr "trace_dump: --seeds must name at least one seed@.";
    2)
  else
  (* validity does not depend on the seed *)
  with_valid (base 0) @@ fun () ->
  let failures = ref 0 in
  List.iter
    (fun seed ->
      let p = base seed in
      let off = digest { p with Store.Cluster.trace_capacity = 0 } in
      let on = digest { p with Store.Cluster.trace_capacity = 262144 } in
      let ctx =
        digest
          {
            p with
            Store.Cluster.trace_capacity = 262144;
            Store.Cluster.trace_ctx = true;
          }
      in
      let ok = String.equal off on && String.equal on ctx in
      if not ok then incr failures;
      Fmt.pr "seed %d: off=%s on=%s ctx=%s %s@." seed off on ctx
        (if ok then "OK" else "MISMATCH"))
    seeds;
  if !failures = 0 then begin
    Fmt.pr "invariance OK: tracing changes no simulation outcome@.";
    0
  end
  else begin
    Fmt.epr "invariance FAILED for %d seed(s)@." !failures;
    1
  end

let seeds =
  Arg.(
    value
    & opt (list int) [ 42; 7; 101 ]
    & info [ "seeds" ] ~doc:"Comma-separated simulation seeds.")

let invariance_cmd =
  let doc =
    "check that enabling tracing or causal stamping changes no simulation \
     outcome (digest equality against tracing-off at the same seed)"
  in
  Cmd.v
    (Cmd.info "invariance" ~doc)
    Term.(
      const run_invariance $ seeds $ replicas $ clients $ attr_ops $ loss
      $ shards $ burst $ attr_batch_window $ storage_cost $ fsync_cost)

(* ---------- entry ---------- *)

let cmd =
  let doc = "dump, filter, and analyze simulation traces" in
  Cmd.group ~default:dump_term
    (Cmd.info "trace_dump" ~doc)
    [
      Cmd.v (Cmd.info "dump" ~doc:"dump a simulation trace") dump_term;
      attribution_cmd;
      invariance_cmd;
    ]

let () = exit (Cmd.eval' cmd)
