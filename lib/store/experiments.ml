(** The quantitative experiments (DESIGN.md ids Q1-Q4, G1-G3, and the
    ablations): the evaluation the paper's introduction motivates but,
    being a theory paper, never runs.  Every experiment is a {!table}:
    a row spec (labels plus the seeded runs or analytic value behind
    each row) and a column list; {!print} renders any of them. *)

module Prng = Qc_util.Prng
module Core = Sim.Core
module Net = Sim.Net

(** {1 The table form} *)

type 'a column = { header : string; width : int; cell : 'a -> string }

type 'a table = {
  title : string;
  keys : (string * int) list;
  columns : 'a column list;
  rows : (string list * 'a) list;
}

let col header width cell = { header; width; cell }
let find t labels = List.assoc labels t.rows

let cell t labels header =
  (List.find (fun c -> String.equal c.header header) t.columns).cell (find t labels)

let print t =
  let widths = List.map snd t.keys @ List.map (fun c -> c.width) t.columns in
  let line cells =
    Fmt.pr "%s@." (String.concat " " (List.map2 (Fmt.str "%-*s") widths cells))
  in
  line (List.map fst t.keys @ List.map (fun c -> c.header) t.columns);
  List.iter
    (fun (labels, v) -> line (labels @ List.map (fun c -> c.cell v) t.columns))
    t.rows

(** Run every row's params, in row order. *)
let run_grid ~title ~keys ~columns specs =
  let rows = List.map (fun (labels, ps) -> (labels, List.map Cluster.run ps)) specs in
  { title; keys; columns; rows }

(** Every [(x, y)] pair, [x]-major: the row order of a two-axis grid. *)
let cross xs ys f = List.concat_map (fun x -> List.map (f x) ys) xs

(** {1 Shared cells over a row's runs}

    Counts are totals over the runs, measures are means over them — so
    a one-run row shows that run's numbers unchanged. *)

let ok (r : Cluster.results) = r.ok_reads + r.ok_writes
let failed (r : Cluster.results) = r.failed_reads + r.failed_writes
let clean (r : Cluster.results) = r.audit_violations = []
let total f rs = List.fold_left (fun acc r -> acc + f r) 0 rs
let mean f rs =
  List.fold_left (fun acc r -> acc +. f r) 0.0 rs /. float_of_int (List.length rs)

let imbalance loads =
  let m = float_of_int (total Fun.id loads) /. float_of_int (List.length loads) in
  if m > 0.0 then float_of_int (List.fold_left max 0 loads) /. m else nan

let replica_imbalance (r : Cluster.results) = imbalance (List.map snd r.replica_loads)

let mean_op_latency (r : Cluster.results) =
  let weighted (s : Sim.Stats.summary) =
    if s.count = 0 then 0.0 else s.mean *. float_of_int s.count
  in
  let n = r.reads.count + r.writes.count in
  if n = 0 then nan else (weighted r.reads +. weighted r.writes) /. float_of_int n

let fsyncs_per_install (r : Cluster.results) =
  if r.installs = 0 then nan else float_of_int r.fsyncs /. float_of_int r.installs

let throughput (r : Cluster.results) = float_of_int (ok r) /. r.duration
let read_mean (r : Cluster.results) = r.reads.mean
let write_mean (r : Cluster.results) = r.writes.mean
let fixed prec x = Fmt.str "%.*f" prec x
let count header width f = col header width (fun rs -> string_of_int (total f rs))
let avg ?(prec = 2) header width f = col header width (fun rs -> fixed prec (mean f rs))
let audited rs = if List.for_all clean rs then "clean" else "DIRTY"
let audit width = col "audit" width audited
let messages = count "messages" 10 (fun r -> r.Cluster.net.Net.sent)
let payloads = count "payloads" 10 (fun r -> r.Cluster.net.Net.payload_sent)
let outcome ~failed_width = [ count "ok" 6 ok; count "failed" failed_width failed ]

let check_seeds name seeds =
  if seeds < 1 then invalid_arg (Fmt.str "Experiments.%s: seeds must be >= 1" name)

(** The strategy menu used across experiments. *)
let menu n : (string * Strategy.t) list =
  [
    ("read-one/write-all", Strategy.rowa n);
    ("majority", Strategy.majority n);
    ( "weighted(2,1,1,1,1) r=2 w=5",
      if n = 5 then
        Strategy.weighted ~name:"weighted" ~votes:[| 2; 1; 1; 1; 1 |] ~r:2 ~w:5
      else Strategy.majority n );
    ("primary-copy", Strategy.primary n);
  ]

(* a cluster of [n] replicas under a fixed strategy *)
let strategy_params ~n ~ops ~read_fraction ~seed strat =
  {
    Cluster.default_params with
    n_replicas = n;
    strategy = (fun _ -> strat);
    workload = { Workload.default_spec with ops_per_client = ops; read_fraction };
    seed;
  }

let votes_label votes = String.concat "," (List.map string_of_int votes)

(* the quorum-size columns of a (strategy, run) row *)
let quorum_sizes =
  [
    col "|rq|" 5 (fun ((s : Strategy.t), _) -> string_of_int s.min_read);
    col "|wq|" 5 (fun ((s : Strategy.t), _) -> string_of_int s.min_write);
  ]

(* replicas r0-r4 and one client c0 on a lognormal network, for the
   experiments that drive the client by hand *)
let five_replicas ~seed ~strategy ?read_repair () =
  let sim = Core.create ~seed in
  let names = List.init 5 (fun i -> Fmt.str "r%d" i) in
  let net =
    Net.create ~sim ~nodes:(names @ [ "c0" ])
      ~latency:(Net.lognormal_latency ~mu:1.0 ~sigma:0.5) ()
  in
  let replicas = List.map (fun name -> Replica.create ~name ()) names in
  List.iter (fun r -> Replica.attach r ~net) replicas;
  let client =
    Client.create ~name:"c0" ~sim ~net ~replicas:(Array.of_list names) ~strategy
      ~timeout:50.0 ?read_repair ()
  in
  Client.attach client;
  (sim, net, names, replicas, client)

(** {1 Q1 — availability vs. per-site availability p} *)

let availability_sweep ?(n = 5) ?(ps = [ 0.5; 0.7; 0.8; 0.9; 0.95; 0.99 ])
    ?(seed = 11) () =
  let row (name, strat) p =
    (* simulate: mtbf/mttr chosen so long-run availability = p *)
    let mttr = 50.0 in
    let mtbf = mttr *. p /. (1.0 -. p) in
    let params = strategy_params ~n ~ops:400 ~read_fraction:0.5 ~seed strat in
    ( [ name; fixed 2 p ],
      ( Strategy.availability strat ~p,
        Cluster.run
          { params with failures = Some { Sim.Failure.mtbf; mttr }; timeout = 60.0 } ) )
  in
  {
    title = "Q1: availability vs per-site availability p (n = 5 replicas)";
    keys = [ ("strategy", 28); ("p", 6) ];
    columns =
      [
        col "read(anal)" 12 (fun ((ar, _), _) -> fixed 4 ar);
        col "write(anal)" 12 (fun ((_, aw), _) -> fixed 4 aw);
        col "simulated" 10 (fun (_, r) -> fixed 4 (Cluster.availability r));
      ];
    rows = cross (menu n) ps row;
  }

(** {1 Q2 — latency by strategy} *)

let latency_table ?(n = 5) ?(seed = 23) () =
  let summary header stat =
    col header 28 (fun (_, r) -> Fmt.str "%a" Sim.Stats.pp_summary (stat r))
  in
  {
    title = "Q2: operation latency by strategy (n = 5, lognormal link latency)";
    keys = [ ("strategy", 28) ];
    columns =
      quorum_sizes
      @ [
          summary "read latency" (fun r -> r.Cluster.reads);
          summary "write latency" (fun r -> r.Cluster.writes);
        ];
    rows =
      List.map
        (fun (name, s) ->
          let params = strategy_params ~n ~ops:500 ~read_fraction:0.5 ~seed s in
          ([ name ], (s, Cluster.run params)))
        (menu n);
  }

(** {1 Q3 — crossover: who wins at which read fraction} *)

let crossover ?(n = 5) ?(seed = 31)
    ?(fractions = [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99 ]) () =
  let run f strat =
    Cluster.run (strategy_params ~n ~ops:400 ~read_fraction:f ~seed (strat n))
  in
  {
    title = "Q3: mean op latency, read-one/write-all vs majority, by read fraction";
    keys = [ ("read fraction", 15) ];
    columns =
      [
        col "rowa" 12 (fun (rowa, _) -> fixed 2 (mean_op_latency rowa));
        col "majority" 12 (fun (_, maj) -> fixed 2 (mean_op_latency maj));
        col "winner" 20 (fun (rowa, maj) ->
            if mean_op_latency rowa < mean_op_latency maj then "read-one/write-all"
            else "majority");
      ];
    rows =
      List.map
        (fun f ->
          let rowa = run f Strategy.rowa in
          ([ fixed 2 f ], (rowa, run f Strategy.majority)))
        fractions;
  }

(** {1 G1-G3 — weighted-voting configurations in the style of
    Gifford's examples} *)

let gifford_examples ?(seed = 47) () =
  let cases =
    [
      (* read-optimized: reads anywhere, writes everywhere *)
      ("G1 read-optimized", [ 2; 1; 1; 1 ], 1, 5);
      (* balanced majority voting *)
      ("G2 balanced", [ 1; 1; 1; 1; 1 ], 3, 3);
      (* primary-weighted: a strong site in every quorum *)
      ("G3 primary-weighted", [ 3; 1; 1 ], 3, 3);
    ]
  in
  let avail side (s, _) = fixed 4 (side (Strategy.availability s ~p:0.9)) in
  let row (label, votes, r, w) =
    let s = Strategy.weighted ~name:label ~votes:(Array.of_list votes) ~r ~w in
    let params =
      strategy_params ~n:(List.length votes) ~ops:400 ~read_fraction:0.5 ~seed s
    in
    ( [ label; votes_label votes; string_of_int r; string_of_int w ],
      (s, Cluster.run params) )
  in
  {
    title = "G1-G3: weighted-voting configurations (Gifford-style examples)";
    keys = [ ("example", 24); ("votes", 14); ("r", 4); ("w", 4) ];
    columns =
      quorum_sizes
      @ [
          col "Ar(p=.9)" 9 (avail fst);
          col "Aw(p=.9)" 9 (avail snd);
          col "lat(r)" 8 (fun (_, r) -> fixed 2 (read_mean r));
          col "lat(w)" 8 (fun (_, r) -> fixed 2 (write_mean r));
        ];
    rows = List.map row cases;
  }

(** {1 Q4 — reconfiguration restores availability after failures}

    Timeline: phase A (healthy, read-one/write-all over 5 replicas);
    phase B (replicas r3 and r4 crash permanently: reads still
    succeed, but writes need all five replicas and now fail); phase C
    (reconfigure to majority over the three survivors, migrating every
    key — safe because read-one/write-all wrote to {e every} replica,
    so the survivors hold the latest data); phase D (reconfigured:
    both reads and writes succeed again).  Success rates per phase are
    the deliverable — the Section 4 motivation, quantified. *)

let reconfig_experiment ?(seed = 53) () =
  (* old configuration: read-one/write-all — writes reach every
     replica, so any survivor set holds the latest data *)
  let sim, net, _, _, client = five_replicas ~seed ~strategy:(Strategy.rowa 5) () in
  (* new configuration: majority over the three survivors r0-r2 *)
  let new_strategy =
    Strategy.weighted ~name:"survivors-majority" ~votes:[| 1; 1; 1; 0; 0 |] ~r:2 ~w:2
  in
  let phases = Hashtbl.create 4 in
  let phase = ref "A-healthy" in
  let record ok =
    let o, f = Option.value ~default:(0, 0) (Hashtbl.find_opt phases !phase) in
    Hashtbl.replace phases !phase (if ok then (o + 1, f) else (o, f + 1))
  in
  let rng = Prng.create (seed lxor 0xff) in
  let keys = List.init 8 (fun i -> Fmt.str "k%d" i) in
  (* steady stream of operations throughout *)
  let rec traffic n =
    if n > 0 then
      Core.schedule sim ~delay:(Prng.exponential rng ~mean:4.0) (fun () ->
          let key = Prng.choose rng keys in
          if Prng.float rng < 0.5 then
            Client.read client ~key ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
                record ok)
          else
            Client.write client ~key ~value:(Prng.int rng 10_000)
              ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ -> record ok);
          traffic (n - 1))
  in
  traffic 600;
  (* t=600: crash r3 and r4 for good *)
  Core.schedule sim ~delay:600.0 (fun () ->
      phase := "B-failed";
      Net.crash net "r3";
      Net.crash net "r4");
  (* t=1200: reconfigure — migrate every key under the new quorum
     rule (Gifford's data-copy phase: push the current value and
     version to a write quorum of the new configuration), then let the
     client run with the new configuration *)
  Core.schedule sim ~delay:1200.0 (fun () ->
      phase := "C-migrating";
      client.Client.strategy <- new_strategy;
      let rec migrate = function
        | [] -> phase := "D-reconfigured"
        | key :: rest ->
            Client.read client ~key ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
                if ok then
                  Client.install client ~key ~vn:(vn + 1) ~value
                    ~on_done:(fun ~ok:_ ~vn:_ ~value:_ ~latency:_ -> migrate rest)
                else migrate rest)
      in
      migrate keys);
  Core.run sim;
  {
    title =
      "Q4: reconfiguration restores availability (RoWa/5 -> 2 replicas die -> \
       majority over survivors)";
    keys = [ ("phase", 18) ];
    columns =
      [
        col "ok" 8 (fun (ok, _) -> string_of_int ok);
        col "failed" 8 (fun (_, failed) -> string_of_int failed);
        col "rate" 8 (fun (ok, failed) ->
            fixed 3 (float_of_int ok /. float_of_int (max 1 (ok + failed))));
      ];
    rows =
      List.filter_map
        (fun phase ->
          Option.map (fun v -> ([ phase ], v)) (Hashtbl.find_opt phases phase))
        [ "A-healthy"; "B-failed"; "C-migrating"; "D-reconfigured" ];
  }

(** {1 Read repair: anti-entropy on the read path}

    Replicas that were down during writes come back stale and — under
    quorum reads — stay stale forever unless something fixes them
    (correctness does not require it: quorum intersection masks the
    staleness, at the cost of larger effective quorums and lost
    failure margin).  With read repair, reads push the newest version
    to the stale replicas they observed.  The experiment measures
    replica staleness after a failure-heavy write phase followed by a
    read-only phase, with repair off and on: a row holds the mean
    fraction of stale replicas per key when failures stop, the same
    after the read-only phase, and the repairs sent. *)

let read_repair_experiment ?(seed = 61) () =
  let run_one ~read_repair =
    let sim, net, replica_names, replicas, client =
      five_replicas ~seed ~strategy:(Strategy.majority 5) ~read_repair ()
    in
    let keys = List.init 8 (fun i -> Fmt.str "k%d" i) in
    let rng = Prng.create (seed lxor 0x5e) in
    (* failure-heavy write phase until t=800 *)
    List.iter
      (fun node ->
        ignore
          (Sim.Failure.attach ~sim ~net ~node
             ~spec:{ Sim.Failure.mtbf = 200.0; mttr = 100.0 }
             ~until:800.0 ()
            : Sim.Failure.t))
      replica_names;
    (* write phase strictly bounded to t < 700 so that no late write
       (broadcast to all replicas) masks the staleness left behind *)
    let rec writes n =
      if n > 0 && Core.now sim < 700.0 then
        Core.schedule sim ~delay:(Prng.exponential rng ~mean:5.0) (fun () ->
            if Core.now sim < 700.0 then
              Client.write client ~key:(Prng.choose rng keys)
                ~value:(Prng.int rng 100_000)
                ~on_done:(fun ~ok:_ ~vn:_ ~value:_ ~latency:_ -> writes (n - 1)))
    in
    writes 120;
    (* read-only phase from t=900 to t=1700 *)
    let rec reads n =
      if n > 0 then
        Core.schedule sim ~delay:(Prng.exponential rng ~mean:4.0) (fun () ->
            Client.read client ~key:(Prng.choose rng keys)
              ~on_done:(fun ~ok:_ ~vn:_ ~value:_ ~latency:_ -> reads (n - 1)))
    in
    Core.schedule sim ~delay:900.0 (fun () ->
        List.iter (fun r -> Net.recover net r) replica_names;
        reads 200);
    let staleness () =
      let per_key =
        List.map
          (fun key ->
            let vns = List.map (fun r -> fst (Replica.lookup r key)) replicas in
            let hi = List.fold_left max 0 vns in
            if hi = 0 then 0.0
            else
              float_of_int (List.length (List.filter (fun v -> v < hi) vns))
              /. float_of_int (List.length vns))
          keys
      in
      List.fold_left ( +. ) 0.0 per_key /. float_of_int (List.length per_key)
    in
    let mid = ref 0.0 in
    Core.schedule sim ~delay:890.0 (fun () -> mid := staleness ());
    Core.run sim;
    ( [ (if read_repair then "read repair on" else "read repair off") ],
      (!mid, staleness (), Obs.Metrics.value client.Client.repairs_sent) )
  in
  {
    title =
      "Read repair (anti-entropy): replica staleness after a failure-heavy \
       write phase, then a read-only phase (majority, n = 5)";
    keys = [ ("mode", 18) ];
    columns =
      [
        col "staleness(mid)" 16 (fun (mid, _, _) -> fixed 3 mid);
        col "staleness(end)" 16 (fun (_, fin, _) -> fixed 3 fin);
        col "repairs" 10 (fun (_, _, repairs) -> string_of_int repairs);
      ];
    rows = [ run_one ~read_repair:false; run_one ~read_repair:true ];
  }

(** {1 Optimal vote assignments}

    Gifford's paper chooses vote assignments by intuition and example;
    with exact analytic availability the choice can be {e optimized}:
    for a per-site availability [p] and a read fraction [f], score
    every (votes, r, w) configuration by
    [f * read_availability + (1 - f) * write_availability] and pick
    the best.  Searching all vote multisets (votes 0-3 per site, at
    least one positive) with minimal legal thresholds
    ([r + w = total + 1]; larger thresholds only lose availability)
    shows the availability optimum always weakly dominates both
    classical extremes, and that skewed workloads are won by
    {e asymmetric} thresholds (small quorums on the hot side, large on
    the cold side) rather than by read-one/write-all, whose write side
    collapses — rowa's real advantage is latency, not availability. *)

let optimal_configurations ?(n = 5) ?(ps = [ 0.8; 0.9; 0.99 ])
    ?(fractions = [ 0.1; 0.5; 0.9 ]) () =
  (* non-increasing vote vectors, entries 0..3, at least one positive *)
  let rec vote_vectors k maxv =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun v -> List.map (fun rest -> v :: rest) (vote_vectors (k - 1) v))
        (List.init (maxv + 1) (fun i -> maxv - i))
  in
  let candidates =
    List.filter_map
      (fun votes ->
        let total = List.fold_left ( + ) 0 votes in
        if total = 0 then None else Some (votes, total))
      (vote_vectors n 3)
  in
  let score strat ~p ~f =
    let ar, aw = Strategy.availability strat ~p in
    (f *. ar) +. ((1.0 -. f) *. aw)
  in
  let best p f =
    let top = ref None in
    List.iter
      (fun (votes, total) ->
        for r = 1 to total do
          let w = total + 1 - r in
          if w >= 1 && w <= total then begin
            let strat =
              Strategy.weighted ~name:"cand" ~votes:(Array.of_list votes) ~r ~w
            in
            let s = score strat ~p ~f in
            match !top with
            | Some (s', _) when s' >= s -> ()
            | _ -> top := Some (s, (votes, r, w))
          end
        done)
      candidates;
    let s, config = Option.get !top in
    ( [ fixed 2 p; fixed 2 f ],
      (config, (s, score (Strategy.rowa n) ~p ~f, score (Strategy.majority n) ~p ~f)) )
  in
  let score_col header pick = col header 10 (fun (_, s) -> fixed 5 (pick s)) in
  {
    title =
      "Optimal vote assignments (n = 5): best (votes, r, w) by availability, \
       per site availability p and read fraction f";
    keys = [ ("p", 6); ("f", 6) ];
    columns =
      [
        col "votes" 14 (fun ((votes, _, _), _) -> votes_label votes);
        col "r" 4 (fun ((_, r, _), _) -> string_of_int r);
        col "w" 4 (fun ((_, _, w), _) -> string_of_int w);
        score_col "score" (fun (s, _, _) -> s);
        score_col "rowa" (fun (_, rowa, _) -> rowa);
        score_col "majority" (fun (_, _, maj) -> maj);
      ];
    rows = cross ps fractions best;
  }

(** {1 Broadcast vs targeted quorums: messages, load, latency}

    Quorum-system theory's third axis (after availability and quorum
    size) is {e load} — how evenly work spreads over replicas (cf.
    grid quorums, designed exactly for this).  Under broadcast routing
    every replica sees every operation, so load is flat and the axis
    is invisible; targeted routing (message one random minimal quorum)
    reveals it, trading tail latency and messages for load. *)

let load_table ?(seed = 83) () =
  let n = 6 in
  let strategies =
    [
      ("majority-6", fun _ -> Strategy.majority n);
      ("grid-2x3", fun _ -> Strategy.grid ~rows:2 ~cols:3);
      ( "primary-weighted",
        fun _ -> Strategy.weighted ~name:"pw" ~votes:[| 3; 1; 1; 1; 1; 1 |] ~r:4 ~w:5 );
    ]
  in
  run_grid
    ~title:"Load & messages: broadcast vs targeted-quorum routing (n = 6, 80% reads)"
    ~keys:[ ("strategy", 18); ("mode", 11) ]
    ~columns:
      [
        messages;
        avg "read mean" 10 read_mean;
        avg ~prec:3 "availability" 12 Cluster.availability;
        avg "imbalance" 10 replica_imbalance;
      ]
    (cross strategies [ ("broadcast", `Broadcast); ("targeted", `Quorum) ]
       (fun (name, strategy) (mode, targeting) ->
         ( [ name; mode ],
           [
             {
               Cluster.default_params with
               n_replicas = n;
               strategy;
               targeting;
               workload =
                 { Workload.default_spec with ops_per_client = 400; read_fraction = 0.8 };
               seed;
             };
           ] )))

(** {1 Ablation — retry/backoff/hedging policy under adverse networks}

    The engine's robustness knobs against the two failure modes the
    other experiments inject: random message loss and nemesis
    partitions.  Targeted-quorum routing is the stress case — a single
    lost message stalls the chosen quorum, so fire-once clients pay
    the full operation timeout while retries resend and hedges fall
    back to the unchosen replicas. *)

let retry_policy_table ?(seed = 77) () =
  let policies =
    [
      ("fire-once", Rpc.Policy.default);
      ("retry x2", Rpc.Policy.with_retries 2);
      ( "retry x2 + hedge 12",
        Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0 );
    ]
  in
  (* the partition condition is the legacy storm expressed as a
     harness script — identical code path, identical numbers *)
  let conditions =
    [ ("loss 30%", 0.3, []); ("partitions", 0.0, Harness.Script.of_partitions 150.0) ]
  in
  let n_clients = 4 in
  (* the engine's counters are per client; re-fetching the same
     (name, labels) pair from the shared registry yields the same
     instrument, so summing over client names aggregates *)
  let engine name (r : Cluster.results) =
    total
      (fun ci ->
        Obs.Metrics.value
          (Obs.Metrics.counter r.metrics ~labels:[ ("client", Fmt.str "c%d" ci) ] name))
      (List.init n_clients Fun.id)
  in
  run_grid
    ~title:
      "Retry & hedging ablation: success rate and latency vs RPC policy under \
       loss and partitions (majority-5, targeted quorums)"
    ~keys:[ ("policy", 22); ("condition", 12) ]
    ~columns:
      (outcome ~failed_width:8
      @ [
          avg ~prec:3 "success" 9 Cluster.availability;
          avg "read mean" 10 read_mean;
          messages;
          count "retries" 8 (engine "rpc.retries");
          count "hedges" 7 (engine "rpc.hedges");
          audit 7;
        ])
    (cross policies conditions (fun (policy_name, policy) (condition, loss, script) ->
         ( [ policy_name; condition ],
           [
             {
               Cluster.default_params with
               targeting = `Quorum;
               policy;
               loss;
               script;
               n_clients;
               workload =
                 { Workload.default_spec with ops_per_client = 150; read_fraction = 0.5 };
               seed;
             };
           ] )))

(** {1 Ablation — sharding the keyspace across replica groups}

    Per-item quorum consensus makes the keyspace trivially
    partitionable: each key's quorums intersect inside its own replica
    group, so shards add capacity without touching correctness.  The
    table drives a Zipf-skewed workload over 1/2/4 range shards of 3
    replicas each and reports how the skew lands on replicas and
    shards — range sharding deliberately concentrates the hot low
    ranks in shard 0 — plus the blast radius of losing a whole shard:
    the same run with the hot shard killed mid-way.  One shard means
    the kill is a total outage; more shards keep every other shard's
    keys serving.

    A row holds the seeds' plain runs and their shard-kill runs.  The
    load/message columns come from the base seed's run, so a one-seed
    table is unchanged; the availability cells report min/mean over
    the seeds.  The shard kill is the legacy nemesis expressed as a
    harness script. *)

let shard_table ?(seed = 91) ?(seeds = 1) () =
  check_seeds "shard_table" seeds;
  let run n_shards script seed =
    Cluster.run
      {
        Cluster.default_params with
        n_shards;
        n_replicas = 3;
        strategy = Strategy.majority;
        shard_scheme = `Range;
        workload =
          {
            Workload.default_spec with
            zipf_s = 1.1;
            ops_per_client = 300;
            read_fraction = 0.8;
          };
        seed;
        script;
      }
  in
  let seed_list = List.init seeds (fun i -> seed + i) in
  let base header width f =
    col header width (fun (runs, _) -> f (List.hd runs : Cluster.results))
  in
  let availability header pick =
    col header 19 (fun v ->
        let avail = List.map Cluster.availability (pick v) in
        let m = fixed 3 (mean Fun.id avail) in
        if seeds = 1 then m
        else Fmt.str "%s/%s" (fixed 3 (List.fold_left Float.min infinity avail)) m)
  in
  {
    title =
      "Shard-balance ablation: Zipf s=1.1 keys over 1/2/4 range shards \
       (majority-3 per shard, 80% reads), with the hot shard killed at t=500"
      ^
      if seeds = 1 then ""
      else Fmt.str " — availability cells min/mean over %d seeds" seeds;
    keys = [ ("shards", 8) ];
    columns =
      [
        base "replicas" 10 (fun r -> string_of_int (List.length r.replica_loads));
        base "messages" 10 (fun r -> string_of_int r.net.Net.sent);
        base "imbalance" 11 (fun r -> fixed 2 (replica_imbalance r));
        (* how unevenly the key skew lands on shards (1 shard: 1.0) *)
        base "shard spread" 13 (fun r ->
            let loads = List.map (fun (s : Cluster.shard_stat) -> s.load) r.shards in
            fixed 2 (imbalance loads));
        availability "availability" fst;
        availability "kill avail" snd;
      ];
    rows =
      List.map
        (fun n_shards ->
          let runs = List.map (run n_shards []) seed_list in
          (* range sharding puts the hot low ranks in shard 0 *)
          let kill = Harness.Script.of_shard_kill (0, 500.0) in
          ([ string_of_int n_shards ], (runs, List.map (run n_shards kill) seed_list)))
        [ 1; 2; 4 ];
  }

(** {1 Ablation — multi-key batching}

    Burst-issuing clients give the engine several distinct keys in
    flight; with a batching window those keys' waves coalesce into one
    frame per replica per window.  Wire messages collapse (the [>= 30%]
    reduction the engine promises — in practice far more under skew)
    while logical payloads stay equal, at the price of up to one
    window of added queue delay per request — visible in the p95
    columns. *)

let batching_table ?(seed = 97) () =
  let window = 1.0 in
  run_grid
    ~title:
      "Multi-key batching ablation: burst-8 clients, batched vs unbatched \
       (majority-5, broadcast), uniform and Zipf-skewed keys"
    ~keys:[ ("workload", 15); ("mode", 15) ]
    ~columns:
      ([
         messages;
         payloads;
         avg "read p95" 10 (fun r -> r.Cluster.reads.p95);
         avg "write p95" 10 (fun r -> r.Cluster.writes.p95);
       ]
      @ outcome ~failed_width:8 @ [ audit 7 ])
    (cross
       [ ("uniform (s=0)", 0.0); ("zipf s=1.1", 1.1) ]
       [ ("unbatched", None); (Fmt.str "batched w=%g" window, Some window) ]
       (fun (zipf_label, zipf_s) (mode, batch_window) ->
         ( [ zipf_label; mode ],
           [
             {
               Cluster.default_params with
               batch_window;
               workload =
                 { Workload.default_spec with zipf_s; burst = 8; ops_per_client = 200 };
               seed;
             };
           ] )))

(** {1 Ablation — replica-side io pipeline}

    With a storage device attached ([storage_cost]/[fsync_cost] > 0)
    every install must reach disk before it acks.  The naive
    discipline fsyncs per install — one serialized
    [write_cost + fsync_cost] each, exactly 1.0 fsyncs per install by
    construction — while group commit drains whatever accumulated
    behind the in-flight fsync as one group per fsync, amortizing the
    dominant cost across the burst.  The audit runs unchanged: acks
    still certify durable versions, so quorum intersection (and
    therefore the audit) is untouched by the pipeline. *)

let io_table ?(seed = 42) () =
  run_grid
    ~title:
      "Replica io-pipeline ablation: per-install fsync vs group commit \
       (majority-3, burst-8 Zipf, 30% reads, write_cost=0.05 fsync_cost=5.0)"
    ~keys:[ ("mode", 15) ]
    ~columns:
      ([
         count "installs" 10 (fun r -> r.Cluster.installs);
         count "fsyncs" 8 (fun r -> r.Cluster.fsyncs);
         avg ~prec:3 "fsyncs/install" 14 fsyncs_per_install;
         avg "write mean" 11 write_mean;
         avg "write p95" 10 (fun r -> r.Cluster.writes.p95);
       ]
      @ outcome ~failed_width:8 @ [ audit 7 ])
    (List.map
       (fun (mode, storage, group_commit) ->
         ( [ mode ],
           [
             {
               Cluster.default_params with
               n_replicas = 3;
               n_clients = 4;
               workload =
                 {
                   Workload.default_spec with
                   ops_per_client = 60;
                   read_fraction = 0.3;
                   zipf_s = 1.1;
                   burst = 8;
                 };
               storage_cost = (if storage then 0.05 else 0.0);
               fsync_cost = (if storage then 5.0 else 0.0);
               group_commit;
               seed;
             };
           ] ))
       [
         ("no-storage", false, true);
         ("naive-fsync", true, false);
         ("group-commit", true, true);
       ])

(** {1 Ablation — adaptive batching windows}

    The static window is a bet placed once: too small and bursts leave
    coalescing on the table, too large and a quiet client pays queue
    delay for frames that never form.  The AIMD controller moves the
    bet every flush — peak per-destination batch size >= 2 widens the
    window additively, an idle flush halves it toward zero.  The table
    runs both regimes: a burst-8 Zipf workload (where wide windows
    win the message economy) and a uniform low-rate workload (where
    any fixed window only adds latency; the controller should sit at
    zero and match the unbatched mean). *)

let window_statics = [ 0.5; 1.0; 2.0; 4.0 ]

let window_table ?(seed = 42) () =
  let bursty =
    {
      Workload.default_spec with
      ops_per_client = 60;
      read_fraction = 0.7;
      zipf_s = 1.1;
      burst = 8;
    }
  in
  let uniform =
    {
      Workload.default_spec with
      ops_per_client = 60;
      read_fraction = 0.9;
      zipf_s = 0.0;
      think_time = 10.0;
      burst = 1;
    }
  in
  let static w =
    (Fmt.str "static w=%g" w, fun p -> { p with Cluster.batch_window = Some w })
  in
  let adaptive p = { p with Cluster.adaptive_window = Some Rpc.Window.default_config } in
  let modes =
    (("unbatched", Fun.id) :: List.map static window_statics) @ [ ("adaptive", adaptive) ]
  in
  run_grid
    ~title:
      "Adaptive batching-window ablation: static windows vs AIMD control \
       (majority-3, burst-8 Zipf vs uniform low-rate)"
    ~keys:[ ("workload", 18); ("mode", 15) ]
    ~columns:
      ([ messages; payloads; avg "op mean" 10 mean_op_latency ]
      @ outcome ~failed_width:8 @ [ audit 7 ])
    (cross [ ("burst-8 zipf", bursty); ("uniform low-rate", uniform) ] modes
       (fun (name, workload) (mode, set) ->
         let p =
           { Cluster.default_params with n_replicas = 3; n_clients = 4; workload; seed }
         in
         ([ name; mode ], [ set p ])))

(** {1 Ablation — latency attribution}

    Where does a quorum operation's wall latency actually go?  The
    causal traces answer: each stamped operation's wall interval is
    decomposed by {!Obs.Attribution} into net / backoff / hedge /
    batch-wait / replica-queue / apply / fsync / reply phases that sum
    exactly to the measured latency.  The table crosses loss (clean
    vs 30% drop — retries and their backoff gaps appear) with burst
    size (closed-loop vs burst-8 — batch-window waits and group-commit
    amortization appear), holding retries, batching, and storage costs
    fixed, so each knob's latency cost shows up in its own phase
    instead of as an undifferentiated mean.  A row holds the run's
    per-operation breakdowns and the run. *)

let attribution_table ?(seed = 42) () =
  let row (loss_label, loss) (burst_label, burst) =
    let r =
      Cluster.run
        {
          Cluster.default_params with
          n_replicas = 3;
          n_clients = 4;
          n_shards = 2;
          loss;
          tracer = Some (Obs.Trace.create ~capacity:262144 ~enabled:true ());
          trace_ctx = true;
          batch_window = Some 1.0;
          storage_cost = 0.05;
          fsync_cost = 2.0;
          policy =
            {
              Rpc.Policy.default with
              max_attempts = 3;
              attempt_timeout = 25.0;
              backoff = 2.0;
            };
          workload =
            {
              Workload.default_spec with
              ops_per_client = 60;
              read_fraction = 0.5;
              zipf_s = 1.1;
              burst;
            };
          seed;
        }
    in
    ( [ Fmt.str "%s %s" loss_label burst_label ],
      (Obs.Attribution.of_events (Obs.Trace.events r.trace), r) )
  in
  (* phase columns are right-aligned: header and cell come pre-padded *)
  let phase p =
    col
      (Fmt.str "%8s" (Obs.Attribution.phase_label p))
      8
      (fun (bs, _) -> Fmt.str "%8.3f" (List.assoc p (Obs.Attribution.mean_by_phase bs)))
  in
  {
    title =
      "Latency attribution: per-phase decomposition of mean op latency, loss x \
       burst (majority-3 x 2 shards, retries, batch window 1.0, storage \
       0.05/2.0)";
    keys = [ ("condition", 18) ];
    columns =
      (col "ops" 6 (fun (bs, _) -> string_of_int (List.length bs))
       (* the phases sum to this wall mean up to float error *)
       :: col "wall" 9 (fun (bs, _) -> fixed 3 (mean Obs.Attribution.wall bs))
       :: List.map phase Obs.Attribution.phases)
      @ [ col "audit" 7 (fun (_, r) -> audited [ r ]) ];
    rows =
      cross
        [ ("loss=0%", 0.0); ("loss=30%", 0.3) ]
        [ ("burst=1", 1); ("burst=8", 8) ]
        row;
  }

(** {1 Ablation — workload-aware quorum tuning}

    The optimizer + steering ablation behind [tables.exe tune]: a
    skewed (90/10) and a balanced (50/50) read mix, in a uniform
    cluster and in one where replica r4 is slow on every link, across
    four modes — static majority (the baseline), the optimizer alone,
    optimizer + queue-aware steering, and steering alone under static
    majority (the slow-replica isolation).  Quorum targeting with the
    default fire-once policy, so the chosen quorum's members are the
    ops' whole fate — exactly the regime the model scores.  A row holds
    one run per seed; strategy and switch count come from the base
    seed. *)

let tune_mixes = [ ("90/10", 0.9); ("50/50", 0.5) ]
let tune_modes = [ "majority"; "optimized"; "optimized+steer"; "majority+steer" ]

let tune_spec_of_mode = function
  | "majority" -> None
  | "optimized" -> Some { Cluster.default_tune_spec with steer = false }
  | "optimized+steer" -> Some Cluster.default_tune_spec
  | "majority+steer" -> Some { Cluster.default_tune_spec with optimize = false }
  | mode -> invalid_arg (Fmt.str "tune_spec_of_mode: %s" mode)

let tune_table ?(seed = 42) ?(seeds = 3) () =
  check_seeds "tune_table" seeds;
  let base_latency = Net.lognormal_latency ~mu:1.0 ~sigma:0.5 in
  (* one slow replica: every link touching r4 pays a constant on top
     of the base draw (same rng consumption, so runs stay comparable) *)
  let slow_latency : Net.latency =
   fun rng ~src ~dst ->
    let l = base_latency rng ~src ~dst in
    if String.equal src "r4" || String.equal dst "r4" then l +. 4.0 else l
  in
  let row (env, latency) ((mix, read_fraction), mode) =
    ( [ env; mix; mode ],
      List.init seeds (fun i ->
          {
            Cluster.default_params with
            n_replicas = 5;
            n_clients = 4;
            targeting = `Quorum;
            latency;
            workload =
              {
                Workload.default_spec with
                ops_per_client = 150;
                read_fraction;
                think_time = 2.0;
              };
            tune = tune_spec_of_mode mode;
            seed = seed + (31 * i);
          }) )
  in
  let base header width f =
    col header width (fun rs -> f (List.hd rs : Cluster.results))
  in
  run_grid
    ~title:
      (Fmt.str
         "TUNE: workload-aware quorum optimizer + queue-aware read steering \
          vs static majority (5 replicas, 4 clients, quorum targeting, \
          fire-once; %d seeds per cell)"
         seeds)
    ~keys:[ ("env", 8); ("mix", 8); ("mode", 16) ]
    ~columns:
      ([
         base "strategy" 18 (fun r ->
             match r.shard_strategies with s :: _ -> s | [] -> "?");
         base "sw" 4 (fun r -> string_of_int (List.length r.strategy_switches));
       ]
      @ outcome ~failed_width:7
      @ [
          avg ~prec:4 "thruput" 8 throughput;
          avg "read-mean" 9 read_mean;
          avg "read-p99" 9 (fun r -> r.Cluster.reads.p99);
          audit 6;
        ])
    (cross
       [ ("uniform", base_latency); ("slow-r4", slow_latency) ]
       (cross tune_mixes tune_modes (fun mix mode -> (mix, mode)))
       row)

(** {1 Ablation — cross-shard commit: 2PC vs Paxos Commit}

    The pinned coordinator-kill schedule of test/test_txn.ml: two
    client-coordinators die inside the commit window and recover only
    near the end of the run, after which the network heals.  One row
    per (commit mode, seed). *)

let txn_kill_script =
  Harness.Script.
    [
      At (30.0, Crash "c0");
      At (55.0, Crash "c1");
      At (700.0, Recover "c0");
      At (700.0, Recover "c1");
      At (701.0, Heal);
    ]

let txn_live (r : Cluster.results) =
  Harness.Check.liveness_after_heal ~script:txn_kill_script ~completions:r.completions
  = Ok ()

let txn_table ?(seeds = 8) () =
  check_seeds "txn_table" seeds;
  run_grid
    ~title:
      (Fmt.str
         "TXN: coordinator-kill ablation — blocking 2PC vs Paxos Commit (3 \
          shards x majority-3, 3 clients, 2 coordinators killed in the commit \
          window, healed at t=701; %d seeds per mode)"
         seeds)
    ~keys:[ ("mode", 8); ("seed", 6) ]
    ~columns:
      [
        count "acked" 8 (fun r -> r.Cluster.ok_txns);
        count "failed" 8 (fun r -> r.Cluster.failed_txns);
        count "decided" 9 (fun r -> r.Cluster.decided_txns);
        count "blocked" 9 (fun r -> List.length r.Cluster.blocked_txns);
        avg "lat mean" 10 (fun r -> r.Cluster.txn_latency.mean);
        audit 7;
        col "liveness" 9 (fun rs -> if List.for_all txn_live rs then "live" else "STUCK");
      ]
    (cross [ `Two_phase; `Paxos ] (List.init seeds succ) (fun commit_mode seed ->
         ( [ Txn.mode_label commit_mode; string_of_int seed ],
           [
             {
               Cluster.default_params with
               n_replicas = 3;
               n_clients = 3;
               n_shards = 3;
               seed;
               script = txn_kill_script;
               workload = { Workload.default_spec with n_keys = 24; think_time = 4.0 };
               txns =
                 Some { Cluster.default_txn_spec with commit_mode; txns_per_client = 12 };
             };
           ] )))
