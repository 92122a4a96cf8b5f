(** Wiring: a complete simulated cluster — replicas, clients, network,
    failure injectors — running a workload, with metrics and a
    consistency audit (single-writer-per-key: reads must return a
    version at least as new as the newest write completed before the
    read began, with the value written at that version; the state
    machine is {!Harness.Check}).  Fault injection goes through the
    {!Harness.Script} DSL: the legacy [failures]/[partitions]/
    [shard_kill] knobs compile onto it byte-identically, and [script]
    appends arbitrary scripted steps. *)

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
  targeting : Client.targeting;  (** broadcast vs targeted quorum sends *)
  policy : Rpc.Policy.t;
      (** per-request retry/backoff/hedging policy of every client;
          the default fire-once policy reproduces historical runs
          byte for byte *)
  partitions : float option;
      (** nemesis: cut the replica set along a random bipartition
          roughly every [mean] time units (clients follow one side),
          healing half a period later *)
  seed : int;
  trace_capacity : int;  (** tracer ring size; 0 disables tracing *)
  tracer : Obs.Trace.t option;
      (** collect into this tracer instead of creating one (overrides
          [trace_capacity]) *)
  n_shards : int;
      (** replica groups the keyspace is split across (default 1 —
          the historical single-group cluster; byte-identical runs) *)
  shard_scheme : Router.scheme;  (** key → shard map (default [`Hash]) *)
  batch_window : float option;
      (** static multi-key batching window of every client engine,
          run as a pinned controller ({!Rpc.Window.fixed}); [None] =
          off, the historical behaviour, unless [adaptive_window] is
          set *)
  shard_kill : (int * float) option;
      (** targeted-failure nemesis: crash every replica of shard [s]
          at time [at] for the rest of the run *)
  storage_cost : float;
      (** per-write latency of every replica's storage device; with
          [fsync_cost] both zero (the default) no device is attached
          and installs stay synchronous — byte-identical runs *)
  fsync_cost : float;  (** per-fsync latency of every replica's device *)
  group_commit : bool;
      (** with storage: a whole group per fsync (default) vs one
          install per fsync (the naive baseline) *)
  adaptive_window : Rpc.Window.config option;
      (** AIMD-controlled batching window of every client engine.
          When set it takes precedence over [batch_window];
          {!Router.create} decides that, and is the only place that
          does.  [None] leaves batching to [batch_window]. *)
  trace_ctx : bool;
      (** stamp every operation with a causal trace context carried
          through the engine and protocol frames to the replicas — the
          raw material of [Obs.Attribution]; off by default because
          the stamps change the trace byte stream (never the
          simulation — see {!digest}) *)
  health_window : float option;
      (** attach an [Obs.Health] monitor with this rolling window,
          sampled every half-window while the workload runs ([None] =
          none, the historical behaviour) *)
  script : Harness.Script.t;
      (** scripted fault schedule installed on top of the legacy
          nemesis knobs; times relative to the run start ([[]] =
          nothing, byte-identical runs) *)
  txns : txn_spec option;
      (** run a cross-shard transaction workload through {!Txn}
          coordinators instead of the single-key op loop; the audit
          switches to the multi-key serializability checks ([None] =
          off, byte-identical runs) *)
  tune : tune_spec option;
      (** workload-aware quorum tuning: per-shard reply-latency EWMAs
          + queue probes feed queue-aware read steering, and a
          periodic optimizer re-strategizes shards through
          {!Autotune} — joint-strategy transition, key migration, and
          a deadline-length fence before the new quorums activate
          (DESIGN.md §16).  The optimizer half runs on single-key
          workloads only.  [None] = off, byte-identical runs *)
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
  optimize : bool;
      (** run the per-shard strategy optimizer every 40 time units,
          choosing with {!Autotune.choose} *)
  steer : bool;
      (** queue-aware read steering on the shard clients, at
          {!Steer.queue_weight} *)
}

val default_params : params

val default_txn_spec : txn_spec
(** 20 txns/client, 3 keys each, ~1/3 read-only, [`Paxos], timeout
    400, 2 retries, recovery base 150. *)

val default_tune_spec : tune_spec
(** Optimizer and steering both on.  The model's constants live with
    the code that reads them: the 40-unit epoch here, the EWMA alpha
    in {!Ewma}, the queue weight in {!Steer}, and the assumed
    availability, floors and objective weights in {!Autotune}. *)

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
      (** queries + installs processed per replica *)
  shards : shard_stat list;  (** per-shard operations and load *)
  audit_violations : string list;
  duration : float;
      (** virtual time of the run's last foreground event: its last
          live message, storage write or timer (cancelled timers and
          background fault processes do not count) *)
  installs : int;  (** installs processed across every replica *)
  fsyncs : int;
      (** fsyncs across every replica's storage device ([0] without
          storage) *)
  trace : Obs.Trace.t;
      (** export with [Obs.Export], query with [Obs.Query] *)
  metrics : Obs.Metrics.t;
      (** shared registry of every replica and client counter *)
  health : Obs.Health.snapshot list;
      (** every health sample taken during the run, chronological —
          empty unless [health_window] was set *)
  completions : (float * bool) list;
      (** chronological [(finished_at, ok)], one per finished
          single-key operation or, in a transaction run, one per
          transaction {e attempt} (a retried attempt logs its failure)
          — feed to {!Harness.Check.liveness_after_heal}; not digested *)
  txn_run : bool;  (** the run used a transaction workload *)
  ok_txns : int;  (** client-acked commits *)
  failed_txns : int;  (** transactions whose every attempt failed *)
  txn_latency : Sim.Stats.summary;  (** acked-commit latencies *)
  blocked_txns : string list;
      (** txids still prepared-but-undecided at some replica when the
          run drained — the blocking-2PC metric ([= []] under Paxos
          Commit once partitions heal) *)
  decided_txns : int;  (** distinct committed decisions (≥ ok_txns) *)
  tune_run : bool;  (** the run had quorum tuning enabled *)
  strategy_switches : (float * int * string) list;
      (** chronological [(committed_at, shard, strategy_name)] of
          every completed re-strategize *)
  shard_strategies : string list;
      (** each shard's strategy name at the end of the run, in shard
          order *)
}

val availability : results -> float
(** Fraction of operations that succeeded. *)

val group_names : n_shards:int -> n_replicas:int -> string array array
(** The replica names of a run, one row per shard: [r0 .. r{n-1}] with
    one shard, [s{s}:r{i}] with several. *)

val client_names : int -> string list
(** The client names of a run: [c0 .. c{n-1}]. *)

val validate : params -> (unit, string) result
(** Every check {!run} makes, in this order, reporting the first that
    fails: [n_shards], [n_replicas] >= 1, [n_replicas] <=
    {!Rpc.Engine.max_group} (a replica set is an [int] mask),
    [n_clients] >= 0, [loss] in \[0, 1), [timeout] > 0;
    [storage_cost] and [fsync_cost] finite and >= 0; >= 2 replicas in
    all under partition storms; the workload's [n_keys] >= 1, a
    finite [zipf_s], [read_fraction] in \[0, 1], [think_time] finite
    and >= 0, [ops_per_client] >= 0 and [burst] >= 1;
    [trace_capacity] >= 0; [batch_window] finite and >= 0; a positive
    [health_window]; the transaction spec's [keys_per_txn] >= 1 (and
    <= [n_keys] when [txns] is set), [txns_per_client] >= 0,
    [txn_read_fraction] in \[0, 1], [txn_timeout] > 0, [txn_retries]
    >= 0 and a positive [recovery_delay]; the [policy]
    ({!Rpc.Policy.validate}) and [adaptive_window]
    ({!Rpc.Window.validate}); and last, the fault script the params
    compile to ({!Harness.Script.validate} against the run's
    {!group_names} and {!client_names}: node names and shard indices
    included). *)

val run : params -> results
(** Build the cluster, drive the workload until it drains, and collect
    the results.
    @raise Invalid_argument on params {!validate} rejects. *)

val digest : results -> string
(** A stable digest of the run's simulation outcome — latency
    summaries, operation/net counters, per-replica loads, shard stats,
    audit verdicts, duration, io counts — excluding the observability
    side channels (trace, metrics registry, health samples).  Floats
    compare bit-exactly.  Two seeded runs digest equal iff the
    simulation behaved identically, which is how the tracing
    non-interference check asserts that enabling tracing or causal
    stamping changes no simulation outcome. *)
