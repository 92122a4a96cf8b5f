(* Regenerates every experiment table of DESIGN.md's index.

   Usage:  tables.exe [COMMAND] [--seeds N]
   With no command, prints every table; `tables.exe --help` lists the
   commands.  Tables are Store.Experiments.table values printed through
   [render]. *)

module E = Store.Experiments

let bar = String.make 78 '-'

let header title =
  Fmt.pr "@.%s@.%s@.%s@." bar title bar

let render t =
  header t.E.title;
  E.print t

let shape text = Fmt.pr "@.shape: %s@." text

let all_clean t = List.for_all (fun (_, rs) -> List.for_all E.clean rs) t.E.rows

(* a gated command exits 1 when its gate (the last stdout line) fails *)
let gate name ok =
  if not ok then (
    Fmt.epr "%s ablation gate FAILED (see the gate line)@." name;
    exit 1)

(* ---------- formal results (E5-E12): seeds x checks ---------- *)

let formal_table seeds =
  let results =
    List.init seeds (fun i -> (i + 1, Quorum.Harness.run_and_check ~seed:(i + 1) ()))
  in
  let report f = function Ok r -> f r | Error _ -> "" in
  render
    {
      E.title =
        Fmt.str
          "E5-E10: Lemmas 5-8 + Theorem 10 on %d random replicated serial \
           systems"
          seeds;
      keys = [ ("seed", 8) ];
      columns =
        [
          E.col "steps" 8 (report (fun r -> string_of_int r.Quorum.Harness.steps));
          E.col "quiescent" 10
            (report (fun r -> string_of_bool r.Quorum.Harness.quiescent));
          E.col "items" 8 (report (fun r -> string_of_int r.Quorum.Harness.items));
          E.col "verdict" 10 (function Ok _ -> "OK" | Error e -> e);
        ];
      rows =
        List.filter_map
          (fun (seed, r) ->
            if Result.is_error r || seed <= 10 || seed mod 25 = 0 then
              Some ([ string_of_int seed ], r)
            else None)
          results;
    };
  Fmt.pr "...@.TOTAL: %d/%d runs pass every check (Lemma 5, 6, 7, 8; Thm 10)@."
    (List.length (List.filter (fun (_, r) -> Result.is_ok r) results))
    seeds;
  header
    (Fmt.str "E12: Section 4 reconfiguration invariants on %d random systems"
       (seeds / 2));
  let rfail = ref 0 and recons = ref 0 in
  for seed = 1 to seeds / 2 do
    match Recon.Harness.run_and_check ~seed () with
    | Ok r -> recons := !recons + r.Recon.Harness.recons_fired
    | Error e ->
        incr rfail;
        Fmt.pr "%-8d %-38s@." seed e
  done;
  Fmt.pr "TOTAL: %d/%d recon runs pass (with %d reconfigurations exercised)@."
    ((seeds / 2) - !rfail) (seeds / 2) !recons

(* ---------- E11 Theorem 11 ---------- *)

let theorem11_table seeds =
  let row (name, mode, expect_pass) =
    let passed =
      List.filter_map
        (fun i -> Result.to_option (Cc.Harness.run_and_check ~mode ~seed:(i + 1) ()))
        (List.init seeds Fun.id)
    in
    let pass = List.length passed in
    let verdict =
      if expect_pass then if pass = seeds then "OK" else "FAIL"
      else if pass < seeds then "violations found (expected)"
      else "UNEXPECTEDLY CLEAN"
    in
    ([ name ], (passed, verdict))
  in
  let sum f (passed, _) = string_of_int (E.total f passed) in
  render
    {
      E.title =
        Fmt.str
          "E11: one-copy serializability of concurrent replicated runs (%d \
           seeds per mode)"
          seeds;
      keys = [ ("mode", 8) ];
      columns =
        [
          E.col "pass" 10 (fun (passed, _) ->
              Fmt.str "%3d/%-6d" (List.length passed) seeds);
          E.col "commits" 10 (sum (fun r -> r.Cc.Harness.committed_tops));
          E.col "aborted" 12 (sum (fun r -> r.Cc.Harness.aborted_nodes));
          E.col "peak-conc" 12 (fun (passed, _) ->
              string_of_int
                (List.fold_left
                   (fun acc r -> max acc r.Cc.Harness.peak_concurrency)
                   0 passed));
          E.col "verdict" 10 snd;
        ];
      rows =
        List.map row
          [ ("2PL", `TwoPL, true); ("MVTO", `Mvto, true); ("none", `NoCC, false) ];
    }

(* ---------- E13 ADT extension ---------- *)

(* printed by hand: the counter column's cells are not padded *)
let adt_table () =
  header
    "E13 (extension): General Quorum Consensus for ADTs vs read-write quorums \
     (counter, n = 5, majority)";
  Fmt.pr "%-34s %-10s %-10s %-10s %-8s %-10s@." "scheme" "mut mean" "mut p90"
    "obs mean" "rounds" "counter";
  List.iter
    (fun (r : Adt.Experiments.row) ->
      Fmt.pr "%-34s %-10.2f %-10.2f %-10.2f %-8.1f %d/%d@."
        r.Adt.Experiments.scheme r.mutation_mean r.mutation_p90 r.observe_mean
        r.rounds_per_mutation r.final_total r.expected_total)
    (Adt.Experiments.counter_comparison ());
  Fmt.pr "@.lost updates under two racing incrementers (100 each):@.";
  Fmt.pr "%-24s %-8s %-8s %-8s@." "scheme" "done" "final" "lost";
  List.iter
    (fun (r : Adt.Experiments.race_row) ->
      Fmt.pr "%-24s %-8d %-8d %-8d@." r.Adt.Experiments.scheme r.issued r.final
        r.lost)
    (Adt.Experiments.race_comparison ())

(* ---------- E14 virtual partitions ---------- *)

let vp_table () =
  let c = Vp.Experiments.compare () in
  render
    {
      E.title =
        "E14 (extension): virtual partitions (El Abbadi-Toueg) — partition \
         timeline and read-one fast path";
      keys = [ ("phase", 18) ];
      columns =
        [
          E.col "ok" 8 (fun (r : Vp.Experiments.phase_row) -> string_of_int r.ok);
          E.col "failed" 8 (fun (r : Vp.Experiments.phase_row) -> string_of_int r.failed);
          E.col "read mean" 10 (fun (r : Vp.Experiments.phase_row) ->
              Fmt.str "%.2f" r.read_mean);
        ];
      rows = List.map (fun (r : Vp.Experiments.phase_row) -> ([ r.phase ], r)) c.phases;
    };
  Fmt.pr
    "@.read-one in healthy view: %.2f vs static majority quorum read: %.2f@."
    c.vp_read_mean c.majority_read_mean;
  Fmt.pr "stale reads: %d; minority-side view refused: %b@." c.stale_reads
    c.minority_view_refused

(* ---------- coterie quality ---------- *)

let coterie_table () =
  let dms = List.init 5 (fun i -> Fmt.str "d%d" i) in
  let coterie f = function None -> "-" | Some c -> f c in
  render
    {
      E.title =
        "Coterie analysis (Barbara & Garcia-Molina): write sides of the \
         standard configurations over 5 DMs";
      keys = [ ("configuration", 22) ];
      columns =
        [
          E.col "write side" 18 (function
            | None -> "not a coterie"
            | Some _ -> "coterie");
          E.col "non-dominated" 14
            (coterie (fun c -> string_of_bool (Quorum.Coterie.non_dominated c)));
          E.col "domination witness" 30
            (coterie (fun c ->
                 match Quorum.Coterie.domination_witness c with
                 | Some w -> String.concat "," w
                 | None -> "-"));
        ];
      rows =
        List.map
          (fun (name, c) -> ([ name ], Quorum.Coterie.of_write_side c))
          [
            ("majority", Quorum.Config.majority dms);
            ("read-one/write-all", Quorum.Config.rowa dms);
            ("read-all/write-one", Quorum.Config.raow dms);
            ( "grid 1x5-ish",
              Quorum.Config.weighted
                ~votes:(List.mapi (fun i d -> (d, if i = 0 then 2 else 1)) dms)
                ~read_threshold:2 ~write_threshold:5 );
          ];
    };
  shape
    "majority is non-dominated (optimal in the coterie sense); write-all is \
     dominated (any single site witnesses it) — the price of read-one reads."

(* ---------- exhaustive verification ---------- *)

let exhaustive_table () =
  let w v seq =
    Serial.User_txn.Access_child
      (Ioa.Txn.Access { obj = "x"; kind = Ioa.Txn.Write; data = Ioa.Value.Int v; seq })
  in
  let r seq =
    Serial.User_txn.Access_child
      (Ioa.Txn.Access { obj = "x"; kind = Ioa.Txn.Read; data = Ioa.Value.Nil; seq })
  in
  let quorum_instance name config_of dms ops include_aborts =
    let item =
      Quorum.Item.make ~name:"x" ~dms ~config:(config_of dms)
        ~initial:(Ioa.Value.Int 0)
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
                      Serial.User_txn.children = ops;
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
    ([ name ], Quorum.Explore.check_description ~budget:5_000_000 ~include_aborts d)
  in
  (* recon instance: config migrates {d0} -> {d1} around one write *)
  let recon_instance () =
    let tiny_item =
      Recon.Item.make ~name:"x" ~dms:[ "d0"; "d1" ] ~initial:(Ioa.Value.Int 0)
        ~initial_config:
          (Quorum.Config.make ~read_quorums:[ [ "d0" ] ] ~write_quorums:[ [ "d0" ] ])
        ~candidates:
          [ Quorum.Config.make ~read_quorums:[ [ "d1" ] ] ~write_quorums:[ [ "d1" ] ] ]
    in
    let rd =
      Recon.Description.make ~items:[ tiny_item ] ~raw_objects:[]
        ~root_script:
          {
            Serial.User_txn.children = [ w 1 0 ];
            ordered = true;
            eager = false;
            returns = Serial.User_txn.return_nil;
          }
        ~max_recons_per_txn:1
    in
    ( [ "recon {d0}->{d1}, write + spy recon" ],
      Recon.Explore.check_description ~budget:5_000_000 rd )
  in
  let rows =
    List.map
      (fun (name, config_of, ops, include_aborts) ->
        quorum_instance name config_of [ "d0"; "d1" ] ops include_aborts)
      [
        ("2-DM rowa, write+read, no aborts", Quorum.Config.rowa, [ w 1 0; r 1 ], false);
        ( "2-DM majority, write+read, no aborts",
          Quorum.Config.majority,
          [ w 1 0; r 1 ],
          false );
        ("2-DM rowa, write, WITH aborts", Quorum.Config.rowa, [ w 1 0 ], true);
      ]
  in
  render
    {
      E.title =
        "EX: exhaustive verification — every schedule of small instances \
         checked (Lemmas 5-8; recon invariants)";
      keys = [ ("instance", 44) ];
      columns =
        [
          E.col "schedules" 11 (fun s -> string_of_int s.Quorum.Explore.schedules);
          E.col "prefixes" 11 (fun s -> string_of_int s.Quorum.Explore.prefixes);
          E.col "exhausted" 10 (fun s -> string_of_bool s.Quorum.Explore.exhausted);
          E.col "verdict" 9 (fun s ->
              if s.Quorum.Explore.violation = None then "OK" else "VIOLATION");
        ];
      rows = rows @ [ recon_instance () ];
    }

(* ---------- store tables ---------- *)

let load () =
  render (E.load_table ());
  shape
    "targeting cuts messages ~n/|q|-fold and reveals the load axis (grid \
     spreads it; a primary-weighted scheme hot-spots the big site); \
     broadcast hides load but wins tail latency via quorum-wide hedging."

let retry () =
  render (E.retry_policy_table ());
  shape
    "fire-once pays the full operation timeout whenever one message of the \
     chosen quorum is lost; bounded retries resend to the unheard members \
     and recover most of the lost availability for a modest message \
     overhead, and hedging adds the unchosen replicas as a late fallback — \
     the audit stays clean throughout, since retries and hedges never weaken \
     quorum intersection."

let shards seeds =
  render (E.shard_table ~seeds ());
  shape
    "per-key quorums make sharding correctness-free capacity — messages stay \
     flat while replicas multiply; range sharding concentrates the Zipf head \
     in shard 0 (spread >> 1), and killing that shard is a total outage at 1 \
     shard but leaves the other shards' keys serving as the shard count \
     grows."

let batch () =
  render (E.batching_table ());
  shape
    "a burst of distinct keys shares one frame per replica per window, so \
     wire messages collapse (payloads count the logical work and stay equal) \
     at the cost of up to one window of queue delay per request in the p95 \
     columns; the audit is untouched — batching changes framing, never \
     quorum membership."

let window () =
  render (E.window_table ());
  shape
    "on bursts, wide static windows buy coalescing with queue delay; the AIMD \
     controller widens only while flushes keep finding full per-replica \
     frames, matching the best static message economy, and decays to zero on \
     the uniform low-rate workload — where it adds no window latency at all \
     (compare its op mean with unbatched)."

let attribution () =
  render (E.attribution_table ());
  shape
    "the phases sum to the wall mean by construction, so each knob's cost \
     lands in its own column — loss shows up as backoff gaps (and \
     timeout-inflated net), bursts as batch-window waits plus the \
     group-commit fsync share; what remains in net is genuine flight and \
     scheduling, the part no client-side knob can recover."

let optimal () =
  render (E.optimal_configurations ());
  shape
    "the optimum always weakly dominates both classical extremes; at moderate \
     p the skewed workloads are won by ASYMMETRIC quorums (e.g. 2-of-5 reads \
     / 4-of-5 writes), not by read-one/write-all — whose write side \
     collapses; rowa's real advantage is latency, not availability."

(* ---------- gated store tables ---------- *)

let io_check () =
  let t = E.io_table () in
  render t;
  shape
    "the device serializes, so per-install fsyncs queue behind each other and \
     every burst pays its full length in fsync latency; group commit drains \
     whatever accumulated behind the in-flight fsync as one group, \
     amortizing the dominant cost — acks still wait for durability, so the \
     audit is unchanged.";
  let fpi mode = E.mean E.fsyncs_per_install (E.find t [ mode ]) in
  let amortization = fpi "naive-fsync" /. fpi "group-commit" in
  Fmt.pr "@.group-commit fsync amortization vs naive: %.2fx (gate: >= 2.0)@."
    amortization;
  amortization >= 2.0 && all_clean t

let txn_check seeds =
  let t = E.txn_table ~seeds () in
  render t;
  let totals mode =
    let rs =
      List.concat_map
        (fun (labels, rs) -> if List.hd labels = mode then rs else [])
        t.E.rows
    in
    let n f = E.total f rs in
    ( n (fun r -> r.Store.Cluster.ok_txns),
      n (fun r -> List.length r.Store.Cluster.blocked_txns),
      n (fun r -> List.length r.Store.Cluster.audit_violations),
      n (fun r -> if E.txn_live r then 0 else 1) )
  in
  let two_pc = totals "2pc" and paxos = totals "paxos" in
  Fmt.pr "@.";
  List.iter
    (fun (mode, (acked, blocked, dirty, dead)) ->
      Fmt.pr
        "%-8s TOTAL: %d acked, %d blocked txn(s), %d audit violation(s), %d \
         stuck run(s)@."
        mode acked blocked dirty dead)
    [ ("2pc", two_pc); ("paxos", paxos) ];
  let _, b2, d2, _ = two_pc and _, bp, dp, deadp = paxos in
  shape
    "the kill lands between prepare and decision, so 2PC participants stay \
     prepared-but-undecided — locked and in doubt — until the coordinator \
     returns (here: never inside the measurement window); Paxos Commit lets \
     the prepared replicas elect a recovery leader over the same decision \
     register and finish the commit, so nothing stays blocked once the \
     partition heals, at no cost to the audit.";
  Fmt.pr "@.gate: 2pc blocked > 0: %b; paxos blocked = 0: %b; audits clean: \
          %b; paxos live after heal: %b@."
    (b2 > 0) (bp = 0)
    (d2 = 0 && dp = 0)
    (deadp = 0);
  b2 > 0 && bp = 0 && d2 = 0 && dp = 0 && deadp = 0

let tune_check seeds =
  let t = E.tune_table ~seeds () in
  render t;
  let find env mode = E.find t [ env; "90/10"; mode ] in
  let p99 = E.mean (fun r -> r.Store.Cluster.reads.Sim.Stats.p99) in
  let read_mean = E.mean (fun r -> r.Store.Cluster.reads.Sim.Stats.mean) in
  let maj = find "uniform" "majority" and opt = find "uniform" "optimized" in
  let smaj = find "slow-r4" "majority" and ssteer = find "slow-r4" "majority+steer" in
  let opt_win =
    Float.compare (E.mean E.throughput opt) (E.mean E.throughput maj) > 0
    || Float.compare (p99 opt) (p99 maj) < 0
  in
  let adopted = (List.hd opt).Store.Cluster.strategy_switches <> [] in
  let steer_win =
    Float.compare (p99 ssteer) (p99 smaj) < 0
    || Float.compare (read_mean ssteer) (read_mean smaj) < 0
  in
  let audits = all_clean t in
  shape
    "on the skewed mix the optimizer migrates the shard off majority onto a \
     small-read-quorum strategy (writes pay a larger install quorum, but at \
     90/10 the read side dominates both load and latency); with a slow \
     replica, steering routes reads around it using the per-replica latency \
     EWMA + live queue depths, while random quorum picks keep paying its \
     tax.  Every switch runs the joint-strategy transition + key migration, \
     so the audits stay clean throughout.";
  Fmt.pr
    "@.gate: optimizer adopted a strategy: %b; optimized beats majority \
     (throughput or read p99, 90/10): %b; steering beats random under \
     slow-r4 (read p99 or mean): %b; audits clean: %b@."
    adopted opt_win steer_win audits;
  adopted && opt_win && steer_win && audits

let all seeds =
  formal_table seeds;
  theorem11_table (min seeds 30);
  render (E.availability_sweep ());
  render (E.latency_table ());
  render (E.crossover ());
  render (E.gifford_examples ());
  render (E.reconfig_experiment ());
  adt_table ();
  vp_table ();
  coterie_table ();
  render (E.read_repair_experiment ());
  optimal ();
  load ();
  retry ();
  shards 1;
  batch ();
  attribution ();
  ignore (io_check ());
  window ();
  ignore (txn_check 4);
  ignore (tune_check 2);
  exhaustive_table ()

(* ---------- CLI ---------- *)

open Cmdliner

(* every --seeds is a positive count: 0 or less is a usage error,
   reported before any table output *)
let seeds ?(doc = "Number of random-system seeds for the formal checks.")
    default =
  let positive =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n > 0 -> Ok n
          | _ -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))),
        Fmt.int )
  in
  Arg.(value & opt positive default & info [ "seeds" ] ~docv:"N" ~doc)

let cmd name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())
let table name doc f = cmd name doc (fun () -> render (f ()))

let () =
  let cmds =
    [
      Cmd.v (Cmd.info "e5" ~doc:"Formal checks (Lemmas 5-8, Thm 10, recon)")
        Term.(const formal_table $ seeds 100);
      table "availability" "Q1 availability sweep" E.availability_sweep;
      table "latency" "Q2 latency by strategy" E.latency_table;
      table "crossover" "Q3 rowa/majority crossover" E.crossover;
      table "gifford" "G1-G3 weighted-voting examples" E.gifford_examples;
      table "reconfig" "Q4 reconfiguration experiment" E.reconfig_experiment;
      cmd "adt" "E13 ADT general quorum consensus (extension)" adt_table;
      cmd "vp" "E14 virtual partitions (extension)" vp_table;
      cmd "coterie" "Coterie quality analysis" coterie_table;
      table "repair" "Read-repair anti-entropy experiment" E.read_repair_experiment;
      cmd "exhaustive" "EX exhaustive verification" exhaustive_table;
      cmd "optimal" "Optimal vote assignments" optimal;
      cmd "load" "Broadcast vs targeted quorums (load/messages)" load;
      cmd "retry" "Retry/backoff/hedging policy ablation" retry;
      Cmd.v
        (Cmd.info "shards" ~doc:"Shard-balance ablation (1/2/4 shards)")
        Term.(
          const shards
          $ seeds 1
              ~doc:
                "Average the availability cells over $(docv) consecutive \
                 seeds, reporting min/mean per cell.");
      cmd "batch" "Multi-key batching ablation" batch;
      cmd "attribution"
        "Latency-attribution ablation (loss x burst phase decomposition)"
        attribution;
      cmd "io"
        "Replica io-pipeline ablation (exits 1 if group commit amortizes \
         fsyncs < 2x vs naive, or any audit is dirty)"
        (fun () -> gate "io" (io_check ()));
      cmd "window" "Adaptive batching-window ablation" window;
      Cmd.v
        (Cmd.info "txn"
           ~doc:
             "Cross-shard commit ablation: 2PC vs Paxos Commit under \
              coordinator kills (exits 1 unless 2PC blocks, Paxos Commit \
              does not, every audit is clean, and Paxos regains liveness \
              after the heal)")
        Term.(
          const (fun n -> gate "txn" (txn_check n))
          $ seeds 8 ~doc:"Seeds per commit mode.");
      Cmd.v
        (Cmd.info "tune"
           ~doc:
             "Workload-aware quorum tuning ablation: optimizer + read \
              steering vs static majority (exits 1 unless the optimizer \
              adopts a strategy and beats majority on the skewed mix, \
              steering beats random picks with a slow replica, and every \
              audit is clean)")
        Term.(
          const (fun n -> gate "tune" (tune_check n))
          $ seeds 3 ~doc:"Seeds averaged per cell.");
      Cmd.v (Cmd.info "theorem11" ~doc:"E11 serializability table")
        Term.(const theorem11_table $ seeds 30 ~doc:"Seeds per mode.");
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group
          ~default:Term.(const all $ seeds 100)
          (Cmd.info "tables" ~doc:"Regenerate the experiment tables")
          cmds))
