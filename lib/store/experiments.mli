(** The quantitative experiments (DESIGN.md Q1-Q4, G1-G3, and the
    ablations): the evaluation the paper's introduction motivates.
    Every experiment is a {!table}, printed by {!print}. *)

(** {1 The table form} *)

type 'a column = {
  header : string;
  width : int;  (** the cell is left-aligned and padded to this width *)
  cell : 'a -> string;
}

type 'a table = {
  title : string;
  keys : (string * int) list;  (** header and width of each label column *)
  columns : 'a column list;
  rows : (string list * 'a) list;
      (** one label per key, then the row's value: the results of its
          seeded run(s), or an analytic value *)
}

val col : string -> int -> ('a -> string) -> 'a column
(** [col header width cell] *)

val find : 'a table -> string list -> 'a
(** The value of the row with these labels.  @raise Not_found *)

val cell : 'a table -> string list -> string -> string
(** [cell t labels header] is one rendered cell.  @raise Not_found *)

val print : 'a table -> unit
(** The header line, then one line per row: every cell padded to its
    column's width, cells separated by one space. *)

(** {1 Shared cells}

    A run row's counts are totals over its runs and its measures are
    means over them, so a one-run row shows that run's numbers. *)

val clean : Cluster.results -> bool
val total : ('a -> int) -> 'a list -> int
val mean : ('a -> float) -> 'a list -> float

val replica_imbalance : Cluster.results -> float
(** max / mean replica load (1.0 = perfectly flat). *)

val mean_op_latency : Cluster.results -> float
val fsyncs_per_install : Cluster.results -> float

val throughput : Cluster.results -> float
(** ok ops per time unit *)

(** {1 The experiments} *)

val availability_sweep :
  ?n:int ->
  ?ps:float list ->
  ?seed:int ->
  unit ->
  ((float * float) * Cluster.results) table
(** Q1: analytic (read, write) and simulated availability per strategy
    and per-site availability p. *)

val latency_table :
  ?n:int -> ?seed:int -> unit -> (Strategy.t * Cluster.results) table
(** Q2: operation latency by strategy. *)

val crossover :
  ?n:int ->
  ?seed:int ->
  ?fractions:float list ->
  unit ->
  (Cluster.results * Cluster.results) table
(** Q3: read-one/write-all vs majority runs per read fraction, and who
    wins. *)

val gifford_examples : ?seed:int -> unit -> (Strategy.t * Cluster.results) table
(** G1-G3: weighted-voting configurations in the style of Gifford's
    examples. *)

val reconfig_experiment : ?seed:int -> unit -> (int * int) table
(** Q4: (ok, failed) operations per phase — reconfiguration restores
    availability after permanent replica failures (RoWa ->
    majority-of-survivors with data migration). *)

val read_repair_experiment : ?seed:int -> unit -> (float * float * int) table
(** Anti-entropy on the read path, repair off vs on: mean replica
    staleness after a failure-heavy write phase, again after a
    read-only phase, and the repairs sent. *)

val optimal_configurations :
  ?n:int ->
  ?ps:float list ->
  ?fractions:float list ->
  unit ->
  ((int list * int * int) * (float * float * float)) table
(** Search all vote assignments (votes 0-3, minimal legal thresholds)
    for the availability-optimal [(votes, r, w)] per (p, read
    fraction) point, with its score and read-one/write-all's and
    majority's. *)

val load_table : ?seed:int -> unit -> Cluster.results list table
(** Broadcast vs targeted-quorum routing: message counts, read
    latency, availability, and per-replica load imbalance. *)

val retry_policy_table : ?seed:int -> unit -> Cluster.results list table
(** Ablation: operation success rate and latency vs the engine's
    retry/backoff/hedging policy, under message loss and nemesis
    partitions (targeted-quorum routing — the stress case for
    fire-once clients). *)

val shard_table :
  ?seed:int ->
  ?seeds:int ->
  unit ->
  (Cluster.results list * Cluster.results list) table
(** Ablation: a Zipf-skewed workload over 1/2/4 range shards (3
    replicas each) — load spread across replicas and shards, and the
    blast radius of killing the hot shard mid-run.  A row holds one
    plain and one shard-kill run per seed; [seeds] (default 1) is
    reported as min/mean availability, load/message columns come from
    the base seed.  @raise Invalid_argument if [seeds < 1]. *)

val batching_table : ?seed:int -> unit -> Cluster.results list table
(** Ablation: multi-key batching on burst-issuing clients, uniform vs
    Zipf-skewed keys — wire messages vs logical payloads, and the p95
    latency cost of the batching window. *)

val io_table : ?seed:int -> unit -> Cluster.results list table
(** Ablation: the replica-side apply pipeline under a burst-8 Zipf
    write-heavy workload with per-write and per-fsync storage costs —
    naive per-install fsync (1.0 fsyncs/install, serialized) vs group
    commit (one fsync per drained group), with the free-storage
    baseline alongside.  The audit must stay clean in every mode. *)

val window_table : ?seed:int -> unit -> Cluster.results list table
(** Ablation: static batching windows vs the AIMD-controlled adaptive
    window, on a burst-8 Zipf workload (coalescing pays) and a uniform
    low-rate workload (any window only adds latency). *)

val attribution_table :
  ?seed:int -> unit -> (Obs.Attribution.breakdown list * Cluster.results) table
(** Ablation: causal latency attribution across loss (0% vs 30%) and
    burst size (1 vs 8) on a 2-shard cluster with retries, a static
    batch window, and storage costs — each knob's latency cost lands
    in its own phase, and every row's phases sum to its wall mean. *)

val tune_table : ?seed:int -> ?seeds:int -> unit -> Cluster.results list table
(** Ablation: the workload-aware optimizer and queue-aware read
    steering vs. static majority, across read mixes (90/10, 50/50)
    and environments (uniform, one slow replica), one run per seed
    (default 3).  Rows are labelled [env; mix; mode].
    @raise Invalid_argument if [seeds < 1]. *)

val txn_live : Cluster.results -> bool
(** Some operation succeeds after the coordinator-kill script of
    {!txn_table} heals. *)

val txn_table : ?seeds:int -> unit -> Cluster.results list table
(** Ablation: blocking 2PC vs Paxos Commit when two coordinators die
    inside the commit window and the network heals at t=701, one row
    per [mode; seed] for seeds 1..[seeds] (default 8).
    @raise Invalid_argument if [seeds < 1]. *)
