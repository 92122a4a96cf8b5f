(** Wiring: build a complete simulated cluster — replicas, clients,
    network, failure injectors — run a workload, and collect metrics
    plus a consistency audit.

    The audit exploits the single-writer-per-key discipline of
    {!Workload}: per key, completed writes carry strictly increasing
    version numbers, and every successful read must return a version
    at least as new as the newest write completed before the read
    began, with the value that was actually written at that version.
    Quorum intersection is exactly what makes this hold across
    failures; a configuration without intersection (or a protocol bug)
    fails the audit.  Sharding does not weaken it: quorums intersect
    per key inside the key's own replica group, so the audit runs
    unchanged over any shard count.  The audit state machine itself
    lives in {!Harness.Check} so nemesis tests and the seed swarm
    share it.

    Fault injection goes through the {!Harness.Script} DSL: the
    [failures]/[partitions]/[shard_kill] params are thin legacy
    constructors compiled onto the script ({!Harness.Script.of_legacy})
    and interpreted by {!Harness.Run} — byte-identically to the old
    inline nemesis code — and [script] appends arbitrary scripted
    steps on top.

    Each client is a {!Router} over [n_shards] replica groups of
    [n_replicas] each.  The defaults — one shard, no batching, burst 1
    — construct and schedule exactly the historical single-group
    cluster, byte for byte. *)

module Prng = Qc_util.Prng
module Core = Sim.Core
module Net = Sim.Net

type params = {
  n_replicas : int;  (** per shard *)
  n_clients : int;
  strategy : int -> Strategy.t;  (** from n_replicas, per shard *)
  workload : Workload.spec;
  latency : Net.latency;
  loss : float;
  timeout : float;
  failures : Sim.Failure.spec option;  (** applied to every replica *)
  targeting : Client.targeting;
  policy : Rpc.Policy.t;
      (** per-request retry/backoff/hedging policy of every client *)
  partitions : float option;
      (** nemesis: every ~[mean] time units, cut the replica set along
          a random bipartition (clients stay connected to one random
          side), heal it half a period later — operations may fail but
          the audit must stay clean (quorum intersection at work) *)
  seed : int;
  trace_capacity : int;
      (** ring-buffer size of the run's tracer; 0 disables tracing *)
  tracer : Obs.Trace.t option;
      (** use this tracer instead of creating one — e.g. to collect
          several runs, or a cluster run plus an IOA run, in one
          trace; overrides [trace_capacity] *)
  n_shards : int;
      (** replica groups the keyspace is split across (default 1 — the
          historical single-group cluster) *)
  shard_scheme : Router.scheme;  (** key → shard map (default [`Hash]) *)
  batch_window : float option;
      (** multi-key batching window of every client engine; [None]
          (default) sends every request unbatched, byte-identically to
          historical runs *)
  shard_kill : (int * float) option;
      (** targeted-failure nemesis: crash every replica of shard [s]
          at time [at] for the rest of the run — the blast-radius
          experiment (only the killed shard's keys become
          unavailable) *)
  storage_cost : float;
      (** per-write latency of every replica's storage device; with
          [fsync_cost] both zero (the default) no device is attached
          and installs stay synchronous — byte-identical runs *)
  fsync_cost : float;  (** per-fsync latency of every replica's device *)
  group_commit : bool;
      (** with storage attached: drain the apply queue a whole group
          per fsync (default) vs one install per fsync (the naive
          baseline of the io ablation) *)
  adaptive_window : Rpc.Window.config option;
      (** AIMD-controlled batching window of every client engine
          (takes precedence over [batch_window]); [None] (default)
          keeps the static window, byte-identically *)
  trace_ctx : bool;
      (** stamp every operation with a causal trace context (op id +
          parent span) carried through engine and protocol frames to
          the replicas — the raw material of [Obs.Attribution]; off by
          default because the stamps change the trace byte stream *)
  health_window : float option;
      (** attach an [Obs.Health] monitor with this rolling window and
          sample it every half-window while the workload runs; [None]
          (default) attaches nothing and schedules nothing *)
  script : Harness.Script.t;
      (** scripted fault schedule installed on top of the legacy
          nemesis knobs (which compile onto the same interpreter);
          times are relative to the run start.  [[]] (default) adds
          nothing — byte-identical runs *)
  txns : txn_spec option;
      (** run a cross-shard transaction workload instead of the
          single-key op loop: each client issues multi-key
          transactions through a {!Txn} coordinator, the audit
          switches to the multi-key serializability checks, and the
          results gain transaction counts plus the blocked
          (in-doubt) set.  [None] (default) changes nothing —
          byte-identical runs *)
  tune : tune_spec option;
      (** workload-aware quorum tuning: per-shard reply-latency EWMAs
          and queue probes feed queue-aware read steering
          ({!Client.probe}) and a periodic optimizer that
          re-strategizes each shard through {!Autotune} (joint-
          strategy transition + key migration — DESIGN.md §16).
          [None] (default) changes nothing — byte-identical runs.
          The optimizer half only runs on single-key workloads
          ([txns = None]); steering applies wherever the shard
          clients issue quorum-targeted reads *)
}

and txn_spec = {
  txns_per_client : int;
  keys_per_txn : int;  (** footprint size (distinct keys) *)
  txn_read_fraction : float;  (** fraction of the footprint read-only *)
  commit_mode : Txn.mode;  (** [`Two_phase] or [`Paxos] *)
  txn_timeout : float;  (** per-transaction coordinator deadline *)
  txn_retries : int;
      (** re-executions of a failed transaction (each a fresh txid) *)
  recovery_delay : float;
      (** replica in-doubt recovery timer base (Paxos-Commit mode) *)
}

and tune_spec = {
  optimize : bool;  (** run the periodic per-shard strategy optimizer *)
  tune_epoch : float;  (** optimizer period (simulated time) *)
  steer : bool;  (** queue-aware read steering on the shard clients *)
  queue_weight : float;  (** steering cost per queued apply entry *)
  ewma_alpha : float;  (** reply-latency tracker blend weight *)
  p_alive : float;
      (** assumed per-replica alive probability for the availability
          floors of the optimizer's model *)
  min_read_avail : float;  (** read-availability admission floor *)
  min_write_avail : float;  (** write-availability admission floor *)
  w_load : float;  (** objective weight on peak load *)
  w_latency : float;  (** objective weight on expected op latency *)
}

let default_params =
  {
    n_replicas = 5;
    n_clients = 4;
    strategy = Strategy.majority;
    workload = Workload.default_spec;
    latency = Net.lognormal_latency ~mu:1.0 ~sigma:0.5;
    loss = 0.0;
    timeout = 100.0;
    failures = None;
    targeting = `Broadcast;
    policy = Rpc.Policy.default;
    partitions = None;
    seed = 42;
    trace_capacity = 0;
    tracer = None;
    n_shards = 1;
    shard_scheme = `Hash;
    batch_window = None;
    shard_kill = None;
    storage_cost = 0.0;
    fsync_cost = 0.0;
    group_commit = true;
    adaptive_window = None;
    trace_ctx = false;
    health_window = None;
    script = [];
    txns = None;
    tune = None;
  }

let default_txn_spec =
  {
    txns_per_client = 20;
    keys_per_txn = 3;
    txn_read_fraction = 0.34;
    commit_mode = `Paxos;
    txn_timeout = 400.0;
    txn_retries = 2;
    recovery_delay = 150.0;
  }

let default_tune_spec =
  {
    optimize = true;
    tune_epoch = 40.0;
    steer = true;
    queue_weight = 2.0;
    ewma_alpha = 0.2;
    p_alive = 0.99;
    min_read_avail = 0.99;
    min_write_avail = 0.98;
    w_load = 1.0;
    w_latency = 0.05;
  }

type shard_stat = {
  shard : int;
  ok_ops : int;
  failed_ops : int;
  load : int;  (** queries + installs over the shard's replicas *)
}

type results = {
  reads : Sim.Stats.summary;
  writes : Sim.Stats.summary;
  ok_reads : int;
  failed_reads : int;
  ok_writes : int;
  failed_writes : int;
  net : Net.counters;
  replica_loads : (string * int) list;
      (** queries + installs processed per replica — the "load"
          dimension quorum targeting tunes *)
  shards : shard_stat list;  (** per-shard operations and load *)
  audit_violations : string list;
  duration : float;
      (** virtual time of the run's last foreground event: its last
          live message, storage write or timer (cancelled timers and
          background fault processes do not count) *)
  installs : int;  (** installs processed across every replica *)
  fsyncs : int;
      (** fsyncs across every replica's storage device ([0] without
          storage) — [fsyncs / installs] is the amortization the io
          ablation measures *)
  trace : Obs.Trace.t;
      (** the run's trace — export with [Obs.Export], query with
          [Obs.Query]; empty unless tracing was enabled *)
  metrics : Obs.Metrics.t;
      (** the shared registry of every replica and client counter *)
  health : Obs.Health.snapshot list;
      (** every health sample taken during the run, chronological —
          empty unless [health_window] was set *)
  completions : (float * bool) list;
      (** chronological [(finished_at, ok)] of every completed
          operation — the input of
          {!Harness.Check.liveness_after_heal}; not part of the digest
          (it is derivable from the traced run) *)
  txn_run : bool;  (** the run used a transaction workload *)
  ok_txns : int;  (** client-acked commits *)
  failed_txns : int;  (** aborted / timed-out attempts (after retries) *)
  txn_latency : Sim.Stats.summary;  (** acked-commit latencies *)
  blocked_txns : string list;
      (** txids still prepared-but-undecided at some replica when the
          run drained — in-doubt forever; the blocking-2PC metric *)
  decided_txns : int;  (** distinct committed decisions (≥ ok_txns) *)
  tune_run : bool;  (** the run had quorum tuning enabled *)
  strategy_switches : (float * int * string) list;
      (** chronological [(committed_at, shard, strategy_name)] of
          every re-strategize the optimizer completed (joint
          transition + migration included) *)
  shard_strategies : string list;
      (** each shard's strategy name at the end of the run, in shard
          order — the initial strategy when nothing switched *)
}

let availability r =
  let ok = r.ok_reads + r.ok_writes and bad = r.failed_reads + r.failed_writes in
  if ok + bad = 0 then nan else float_of_int ok /. float_of_int (ok + bad)

let run (p : params) : results =
  if p.n_shards < 1 then invalid_arg "Cluster.run: n_shards must be >= 1";
  let sim = Core.create ~seed:p.seed in
  let tracer =
    match p.tracer with
    | Some tr -> tr
    | None ->
        Obs.Trace.create ~capacity:p.trace_capacity
          ~enabled:(p.trace_capacity > 0) ()
  in
  Core.attach_tracer sim tracer;
  let metrics = Obs.Metrics.create () in
  (* one shard keeps the historical flat names (and seeded runs
     byte-identical); several shards qualify them *)
  let group_names =
    if p.n_shards = 1 then
      [| Array.init p.n_replicas (fun i -> Fmt.str "r%d" i) |]
    else
      Array.init p.n_shards (fun s ->
          Array.init p.n_replicas (fun i -> Fmt.str "s%d:r%d" s i))
  in
  let replica_names =
    Array.to_list group_names |> List.concat_map Array.to_list
  in
  let client_names = List.init p.n_clients (fun i -> Fmt.str "c%d" i) in
  let net =
    Net.create ~sim ~nodes:(replica_names @ client_names) ~latency:p.latency
      ~loss:p.loss ()
  in
  (* a storage device per replica, but only when a cost is nonzero:
     default runs attach nothing and schedule nothing new *)
  let storage_enabled = p.storage_cost > 0.0 || p.fsync_cost > 0.0 in
  let replicas =
    Array.mapi
      (fun s group ->
        let extra_labels =
          if p.n_shards = 1 then []
          else [ ("shard", string_of_int s) ]
        in
        Array.map
          (fun name ->
            let storage =
              if storage_enabled then
                Some
                  (Sim.Storage.create ~sim ~name ~write_cost:p.storage_cost
                     ~fsync_cost:p.fsync_cost ())
              else None
            in
            Replica.create ~metrics ~extra_labels ?storage
              ~group_commit:p.group_commit
              ?txn_recovery_delay:
                (Option.map (fun s -> s.recovery_delay) p.txns)
              ~name ())
          group)
      group_names
  in
  Array.iter (Array.iter (fun r -> Replica.attach r ~net)) replicas;
  let strategy = p.strategy p.n_replicas in
  let strategies = Array.make p.n_shards strategy in
  let shard_of =
    Router.shard_fn p.shard_scheme ~n_shards:p.n_shards
      ~n_keys:p.workload.Workload.n_keys
  in
  let read_lat = Sim.Stats.create () and write_lat = Sim.Stats.create () in
  let ok_reads = ref 0 and failed_reads = ref 0 in
  let ok_writes = ref 0 and failed_writes = ref 0 in
  (* the health monitor, when asked for: per-shard rolling windows fed
     by every completed operation, with the apply-queue probe averaging
     over the shard's replicas *)
  let health_samples = ref [] in
  let health =
    match p.health_window with
    | None -> None
    | Some w ->
        let queue_depth s =
          let g = replicas.(s) in
          let total =
            Array.fold_left (fun acc r -> acc + Replica.queue_depth r) 0 g
          in
          float_of_int total /. float_of_int (Array.length g)
        in
        let h = Obs.Health.create ~window:w ~n_shards:p.n_shards ~queue_depth () in
        Obs.Health.subscribe h (fun snaps ->
            health_samples := List.rev_append snaps !health_samples);
        Some h
  in
  let health_record ~shard ~read ~ok ~latency =
    match health with
    | Some h ->
        Obs.Health.record h ~at:(Core.now sim) ~shard ~read ~ok ~latency
    | None -> ()
  in
  let shard_ok = Array.make p.n_shards 0 in
  let shard_failed = Array.make p.n_shards 0 in
  (* per-shard read/write attempt counts — the live mix estimate the
     optimizer feeds on (cheap to keep unconditionally) *)
  let shard_reads = Array.make p.n_shards 0 in
  let shard_writes = Array.make p.n_shards 0 in
  (* audit state (the shared single-writer state machine) plus the
     completion log liveness predicates consume *)
  let audit = Harness.Check.audit () in
  let completions = ref [] in
  (* the multi-key audit of transaction runs, fed by every replica's
     decision hook (authoritative — covers commits whose coordinator
     died) and by client-acked commits *)
  let txn_audit = Harness.Check.txn_audit () in
  let ok_txns = ref 0 and failed_txns = ref 0 in
  let txn_lat = Sim.Stats.create () in
  (match p.txns with
  | None -> ()
  | Some _ ->
      Array.iter
        (Array.iter (fun r ->
             Replica.set_on_decided r (fun ~txid ~commit ~writes ->
                 Harness.Check.txn_decided txn_audit ~txid ~commit ~writes)))
        replicas);
  let z = Workload.zipf ~n:p.workload.Workload.n_keys ~s:p.workload.Workload.zipf_s in
  let clients =
    List.mapi
      (fun ci name ->
        let c =
          Router.create ~name ~sim ~net ~groups:group_names ~strategies
            ~scheme:p.shard_scheme ~n_keys:p.workload.Workload.n_keys
            ~timeout:p.timeout ~targeting:p.targeting
            ~trace_ctx:p.trace_ctx ~policy:p.policy
            ~seed:(p.seed + ci) ~metrics ?batch_window:p.batch_window
            ?adaptive_window:p.adaptive_window ()
        in
        Router.attach c;
        (ci, c))
      client_names
  in
  let wrng = Prng.create (p.seed lxor 0xabcdef) in
  (* one completed logical operation, with its audit bookkeeping;
     [k] continues the client's loop *)
  let run_read (c : Router.t) key ~k =
    let started = Core.now sim in
    Router.read c ~key ~on_done:(fun ~ok ~vn ~value ~latency ->
        let s = shard_of key in
        shard_reads.(s) <- shard_reads.(s) + 1;
        health_record ~shard:s ~read:true ~ok ~latency;
        if ok then begin
          incr ok_reads;
          shard_ok.(s) <- shard_ok.(s) + 1;
          Sim.Stats.add read_lat latency;
          Harness.Check.read_ok audit ~key ~started ~vn ~value
        end
        else begin
          incr failed_reads;
          shard_failed.(s) <- shard_failed.(s) + 1
        end;
        completions := (Core.now sim, ok) :: !completions;
        k ())
  in
  let run_write (c : Router.t) key v ~k =
    Router.write c ~key ~value:v ~on_done:(fun ~ok ~vn ~value:_ ~latency ->
        let s = shard_of key in
        shard_writes.(s) <- shard_writes.(s) + 1;
        health_record ~shard:s ~read:false ~ok ~latency;
        if ok then begin
          incr ok_writes;
          shard_ok.(s) <- shard_ok.(s) + 1;
          Sim.Stats.add write_lat latency;
          Harness.Check.write_ok audit ~key ~vn ~value:v ~now:(Core.now sim)
        end
        else begin
          incr failed_writes;
          shard_failed.(s) <- shard_failed.(s) + 1
        end;
        completions := (Core.now sim, ok) :: !completions;
        k ())
  in
  (* closed-loop driver per client: think, then issue [burst]
     operations concurrently and wait for the whole burst (burst 1 is
     the historical strictly-closed loop, draw for draw) *)
  let burst = max 1 p.workload.Workload.burst in
  let rec issue ci (c : Router.t) remaining op_counter =
    if remaining > 0 then
      let think = Prng.exponential wrng ~mean:p.workload.Workload.think_time in
      Core.schedule sim ~delay:think (fun () ->
          if burst = 1 then
            let k () = issue ci c (remaining - 1) (op_counter + 1) in
            match
              Workload.next_op p.workload z wrng ~ci ~n_clients:p.n_clients
                ~op_counter
            with
            | Workload.Read key -> run_read c key ~k
            | Workload.Write (key, v) -> run_write c key v ~k
          else begin
            let b = min burst remaining in
            let ops =
              List.init b (fun j ->
                  Workload.next_op p.workload z wrng ~ci
                    ~n_clients:p.n_clients ~op_counter:(op_counter + j))
            in
            (* single-writer-per-key holds between bursts but not
               within one: demote a repeat write to the same key to a
               read so concurrent same-key writes never race *)
            let seen_writes = Hashtbl.create 4 in
            let ops =
              List.map
                (function
                  | Workload.Read _ as op -> op
                  | Workload.Write (key, v) as op ->
                      if Hashtbl.mem seen_writes key then Workload.Read key
                      else begin
                        Hashtbl.replace seen_writes key ();
                        ignore v;
                        op
                      end)
                ops
            in
            let outstanding = ref b in
            let k () =
              decr outstanding;
              if !outstanding = 0 then issue ci c (remaining - b) (op_counter + b)
            in
            List.iter
              (function
                | Workload.Read key -> run_read c key ~k
                | Workload.Write (key, v) -> run_write c key v ~k)
              ops
          end)
  in
  (* the transaction driver: a closed loop per client issuing
     multi-key transactions through a coordinator, with bounded
     retries (each a fresh txid) spaced by think-time draws *)
  let run_txns spec =
    if spec.keys_per_txn < 1 then
      invalid_arg "Cluster.run: keys_per_txn must be >= 1";
    let n_reads =
      int_of_float
        (spec.txn_read_fraction *. float_of_int spec.keys_per_txn)
    in
    List.iter
      (fun (ci, c) ->
        let coord =
          Txn.create
            ~name:(Fmt.str "c%d" ci)
            ~sim ~router:c ~mode:spec.commit_mode ~timeout:spec.txn_timeout
            ()
        in
        let rec next remaining =
          if remaining > 0 then
            let think =
              Prng.exponential wrng ~mean:p.workload.Workload.think_time
            in
            Core.schedule sim ~delay:think (fun () ->
                (* a distinct-key Zipf footprint (bounded redraws) *)
                let keys = ref [] and have = ref 0 and tries = ref 0 in
                let cap = 100 * spec.keys_per_txn in
                while !have < spec.keys_per_txn && !tries < cap do
                  incr tries;
                  let k = Workload.key_name (Workload.sample z wrng) in
                  if not (List.exists (String.equal k) !keys) then begin
                    keys := k :: !keys;
                    incr have
                  end
                done;
                let keys = List.rev !keys in
                let reads = List.filteri (fun i _ -> i < n_reads) keys in
                let wkeys = List.filteri (fun i _ -> i >= n_reads) keys in
                let txn_no = spec.txns_per_client - remaining in
                let writes =
                  List.mapi
                    (fun j k ->
                      (k, ((ci + 1) * 1_000_000) + (txn_no * 1000) + j))
                    wkeys
                in
                let rec attempt retries_left =
                  let started = Core.now sim in
                  (* the footprint is nonempty, so on_done fires from a
                     scheduled reply or timeout — never inside execute —
                     and the txid cell is filled before it runs *)
                  let txid = ref "" in
                  txid :=
                    Txn.execute coord ~reads ~writes
                      ~on_done:(fun ~committed ~reads:rsnap ~writes:wset
                                    ~latency ->
                        completions := (Core.now sim, committed) :: !completions;
                        if committed then begin
                          incr ok_txns;
                          Sim.Stats.add txn_lat latency;
                          Harness.Check.txn_committed txn_audit ~txid:!txid
                            ~started ~now:(Core.now sim) ~reads:rsnap
                            ~writes:wset;
                          next (remaining - 1)
                        end
                        else if retries_left > 0 then
                          Core.schedule sim
                            ~delay:
                              (Prng.exponential wrng
                                 ~mean:p.workload.Workload.think_time)
                            (fun () -> attempt (retries_left - 1))
                        else begin
                          incr failed_txns;
                          next (remaining - 1)
                        end)
                      ()
                in
                attempt spec.txn_retries)
        in
        next spec.txns_per_client)
      clients
  in
  (match p.txns with
  | None ->
      List.iter
        (fun (ci, c) -> issue ci c p.workload.Workload.ops_per_client ci)
        clients
  | Some spec -> run_txns spec);
  (* the health sampler: every half-window until the workload has
     completed, so the event queue still drains *)
  (match health with
  | Some h ->
      let total =
        match p.txns with
        | None -> p.n_clients * p.workload.Workload.ops_per_client
        | Some spec -> p.n_clients * spec.txns_per_client
      in
      let period = Obs.Health.window h /. 2.0 in
      let completed () =
        match p.txns with
        | None -> !ok_reads + !failed_reads + !ok_writes + !failed_writes
        | Some _ -> !ok_txns + !failed_txns
      in
      let rec tick () =
        Core.schedule sim ~delay:period (fun () ->
            ignore (Obs.Health.sample h ~at:(Core.now sim));
            if completed () < total then tick ())
      in
      if total > 0 then tick ()
  | None -> ());
  (* workload-aware quorum tuning: shared per-shard latency trackers
     and queue probes on every shard client (queue-aware read
     steering), plus — on single-key workloads — a periodic optimizer
     that re-strategizes shards through a joint-strategy transition
     with key migration, then a deadline-length fence before the new
     quorums activate (DESIGN.md §16) *)
  let strategy_switches = ref [] in
  (match p.tune with
  | None -> ()
  | Some spec ->
      if
        not
          (Float.is_finite spec.tune_epoch
          && Float.compare spec.tune_epoch 0.0 > 0)
      then invalid_arg "Cluster.run: tune_epoch must be positive";
      let ewmas =
        Array.init p.n_shards (fun _ ->
            Tune.Ewma.create ~n:p.n_replicas ~alpha:spec.ewma_alpha ())
      in
      List.iter
        (fun (_, c) ->
          for s = 0 to p.n_shards - 1 do
            Router.set_probe c ~shard:s
              (Some
                 {
                   Client.ewma = ewmas.(s);
                   queue_depth =
                     (fun i ->
                       float_of_int (Replica.queue_depth replicas.(s).(i)));
                   queue_weight = spec.queue_weight;
                   steer = spec.steer;
                 })
          done)
        clients;
      match p.txns with
      | Some _ -> () (* the optimizer drives single-key workloads only *)
      | None ->
          if spec.optimize && p.n_clients > 0 then begin
            let config =
              {
                Tune.Model.w_load = spec.w_load;
                w_latency = spec.w_latency;
                min_read_availability = spec.min_read_avail;
                min_write_availability = spec.min_write_avail;
              }
            in
            let total = p.n_clients * p.workload.Workload.ops_per_client in
            let completed () =
              !ok_reads + !failed_reads + !ok_writes + !failed_writes
            in
            let all_keys =
              List.init p.workload.Workload.n_keys Workload.key_name
            in
            let migrator = snd (List.hd clients) in
            let transitioning = Array.make p.n_shards false in
            let set_shard_strategy s st =
              List.iter
                (fun (_, c) -> Router.set_strategy c ~shard:s st)
                clients
            in
            (* Re-strategize shard [s]: move every client to the joint
               strategy (quorums of both old and new — reads still
               cover data at rest, writes already land on new-strategy
               quorums), migrate each of the shard's keys by reading
               its newest version and re-installing it at a joint
               write quorum, then — after the op deadline has fenced
               out anything issued under the old strategy — commit the
               new one.  Any migration failure aborts back to the old
               strategy, which joint quorums also satisfy. *)
            let begin_transition s next_s =
              let current = strategies.(s) in
              let j = Autotune.joint current next_s in
              if Strategy.legal j then begin
                transitioning.(s) <- true;
                let started = Core.now sim in
                set_shard_strategy s j;
                let keys = List.filter (fun k -> shard_of k = s) all_keys in
                let pending = ref (List.length keys) in
                let failed = ref false in
                let commit () =
                  let fence = started +. p.timeout -. Core.now sim in
                  Core.schedule sim ~delay:(Float.max 0.0 fence) (fun () ->
                      set_shard_strategy s next_s;
                      strategies.(s) <- next_s;
                      strategy_switches :=
                        (Core.now sim, s, next_s.Strategy.name)
                        :: !strategy_switches;
                      transitioning.(s) <- false)
                in
                let abort () =
                  set_shard_strategy s current;
                  transitioning.(s) <- false
                in
                let key_done () =
                  decr pending;
                  if !pending = 0 then if !failed then abort () else commit ()
                in
                if keys = [] then commit ()
                else
                  List.iter
                    (fun key ->
                      Router.read migrator ~key
                        ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
                          if not ok then begin
                            failed := true;
                            key_done ()
                          end
                          else if vn = 0 then key_done ()
                          else
                            Router.install migrator ~key ~vn ~value
                              ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
                                if not ok then failed := true;
                                key_done ())))
                    keys
              end
            in
            let rec tick () =
              Core.schedule sim ~delay:spec.tune_epoch (fun () ->
                  if completed () < total then begin
                    for s = 0 to p.n_shards - 1 do
                      if not transitioning.(s) then begin
                        let reads = shard_reads.(s)
                        and writes = shard_writes.(s) in
                        let f =
                          if reads + writes = 0 then
                            p.workload.Workload.read_fraction
                          else
                            float_of_int reads /. float_of_int (reads + writes)
                        in
                        match
                          Autotune.choose ~config ~read_fraction:f
                            ~p_alive:spec.p_alive
                            ~lat:(Tune.Ewma.value ewmas.(s))
                            p.n_replicas
                        with
                        | Some { Autotune.strategy = next_s; _ }
                          when Strategy.legal next_s
                               && not
                                    (String.equal next_s.Strategy.name
                                       strategies.(s).Strategy.name) ->
                            begin_transition s next_s
                        | _ -> ()
                      end
                    done;
                    tick ()
                  end)
            in
            if total > 0 then tick ()
          end);
  (* fault injection: the legacy knobs compile onto the script DSL (in
     the order the inline nemesis code installed them — failures,
     partitions, shard kill — which byte-identical replay depends on)
     and any extra scripted steps ride on top *)
  (match p.shard_kill with
  | Some (s, _) when s < 0 || s >= p.n_shards ->
      invalid_arg (Fmt.str "Cluster.run: shard_kill shard %d out of range" s)
  | _ -> ());
  let env =
    {
      Harness.Run.sim;
      net;
      groups = group_names;
      clients = client_names;
      seed = p.seed;
    }
  in
  let script =
    Harness.Script.of_legacy ?failures:p.failures ?partitions:p.partitions
      ?shard_kill:p.shard_kill ()
    @ p.script
  in
  ignore (Harness.Run.install env script : Sim.Failure.t list);
  Core.run sim;
  (* transaction epilogue: run the end-of-run multi-key checks and
     collect the in-doubt (blocked) set across every replica *)
  let blocked =
    match p.txns with
    | None -> []
    | Some _ ->
        Harness.Check.txn_check txn_audit;
        Array.to_list replicas |> List.concat_map Array.to_list
        |> List.concat_map Replica.in_doubt
        |> List.sort_uniq String.compare
  in
  let shard_stats =
    List.init p.n_shards (fun s ->
        {
          shard = s;
          ok_ops = shard_ok.(s);
          failed_ops = shard_failed.(s);
          load =
            Array.fold_left
              (fun acc r -> acc + Replica.load r)
              0
              replicas.(s);
        })
  in
  {
    reads = Sim.Stats.summarize read_lat;
    writes = Sim.Stats.summarize write_lat;
    ok_reads = !ok_reads;
    failed_reads = !failed_reads;
    ok_writes = !ok_writes;
    failed_writes = !failed_writes;
    net = Net.counters net;
    replica_loads =
      Array.to_list replicas |> List.concat_map Array.to_list
      |> List.map (fun (r : Replica.t) -> (r.Replica.name, Replica.load r));
    shards = shard_stats;
    audit_violations =
      (match p.txns with
      | None -> Harness.Check.violations audit
      | Some _ -> Harness.Check.txn_violations txn_audit);
    duration = Core.now sim;
    installs =
      Array.to_list replicas |> List.concat_map Array.to_list
      |> List.fold_left
           (fun acc (r : Replica.t) -> acc + Obs.Metrics.value r.Replica.installs)
           0;
    fsyncs =
      Array.to_list replicas |> List.concat_map Array.to_list
      |> List.fold_left (fun acc r -> acc + Replica.fsyncs r) 0;
    trace = tracer;
    metrics;
    health = List.rev !health_samples;
    completions = List.rev !completions;
    txn_run = p.txns <> None;
    ok_txns = !ok_txns;
    failed_txns = !failed_txns;
    txn_latency = Sim.Stats.summarize txn_lat;
    blocked_txns = blocked;
    decided_txns = Harness.Check.txn_decided_count txn_audit;
    tune_run = p.tune <> None;
    strategy_switches = List.rev !strategy_switches;
    shard_strategies =
      Array.to_list
        (Array.map (fun (s : Strategy.t) -> s.Strategy.name) strategies);
  }

(** A stable digest of the run's simulation outcome — every
    observable result except the observability side channels (trace,
    metrics registry, health samples).  Floats render as hex ([%h]),
    so equality is bit-equality: two runs digest equal iff the
    simulation behaved identically.  This is what the tracing
    non-interference check compares — enabling tracing or causal
    stamping must never change the digest of a seeded run. *)
let digest (r : results) : string =
  let b = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  let summary (s : Sim.Stats.summary) =
    add "%d %h %h %h %h %h %h %h;" s.Sim.Stats.count s.Sim.Stats.mean
      s.Sim.Stats.p50 s.Sim.Stats.p90 s.Sim.Stats.p95 s.Sim.Stats.p99
      s.Sim.Stats.p999 s.Sim.Stats.max
  in
  summary r.reads;
  summary r.writes;
  add "ops %d %d %d %d;" r.ok_reads r.failed_reads r.ok_writes r.failed_writes;
  add "net %d %d %d %d %d %d %d %d %d;" r.net.Net.sent r.net.Net.delivered
    r.net.Net.payload_sent r.net.Net.payload_delivered r.net.Net.dropped
    r.net.Net.drop_sender_down r.net.Net.drop_dest_down r.net.Net.drop_link_cut
    r.net.Net.drop_loss;
  List.iter (fun (name, load) -> add "load %s %d;" name load) r.replica_loads;
  List.iter
    (fun s -> add "shard %d %d %d %d;" s.shard s.ok_ops s.failed_ops s.load)
    r.shards;
  List.iter (fun v -> add "violation %s;" v) r.audit_violations;
  add "duration %h;" r.duration;
  add "io %d %d" r.installs r.fsyncs;
  (* the txn section exists only on transaction runs, so every legacy
     configuration digests byte-identically to before *)
  if r.txn_run then begin
    add ";txns %d %d %d;" r.ok_txns r.failed_txns r.decided_txns;
    summary r.txn_latency;
    List.iter (fun txid -> add "blocked %s;" txid) r.blocked_txns
  end;
  (* likewise, the tune section exists only when tuning was enabled *)
  if r.tune_run then begin
    add ";tune";
    List.iteri (fun s name -> add " %d:%s" s name) r.shard_strategies;
    add ";";
    List.iter
      (fun (at, s, name) -> add "switch %h %d %s;" at s name)
      r.strategy_switches
  end;
  Digest.to_hex (Digest.string (Buffer.contents b))
