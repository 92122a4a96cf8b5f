(** The shard router: the keyspace split across replica groups, each
    with its own strategy and engine; logical keys resolve to shards
    through a pure, deterministic map.  Per-item quorum consensus
    makes any key partition correctness-preserving — each key's
    quorums intersect inside that key's own group.  A 1-shard router
    is constructed and wired exactly like the historical single-group
    client, so default runs stay byte-identical. *)

module Net = Sim.Net

type scheme = [ `Hash | `Range ]
(** [`Hash]: FNV-1a of the key modulo the shard count (spreads hot
    keys).  [`Range]: contiguous ranges of the numeric key index
    (keys ["k<i>"]; locality-preserving, concentrates skew);
    non-numeric keys fall back to the hash map. *)

val scheme_label : scheme -> string

val key_index : string -> int option
(** The numeric suffix of a key like ["k12"]. *)

val shard_fn : scheme -> n_shards:int -> n_keys:int -> string -> int
(** The pure key → shard map.  Same configuration, same map — no
    coordination needed between clients.
    @raise Invalid_argument if [n_shards < 1]. *)

type t

val create :
  name:string ->
  sim:Sim.Core.t ->
  net:Protocol.msg Net.t ->
  groups:string array array ->
  strategies:Strategy.t array ->
  scheme:scheme ->
  n_keys:int ->
  ?timeout:float ->
  ?read_repair:bool ->
  ?targeting:Client.targeting ->
  ?trace_ctx:bool ->
  ?policy:Rpc.Policy.t ->
  ?seed:int ->
  ?metrics:Obs.Metrics.t ->
  ?batch_window:float ->
  ?adaptive_window:Rpc.Window.config ->
  unit ->
  t
(** One shard client per replica group (group [s] gets
    [strategies.(s)], seed [seed + 7919*s], and — when there is more
    than one shard — a [("shard", s)] metric label).  [n_keys] bounds
    the [`Range] partition.  [adaptive_window] enables batching under
    an AIMD controller of that config on every shard; otherwise
    [batch_window] [w] enables it under [Rpc.Window.fixed w] (see
    {!Client.create}).  This is the one place where the adaptive
    window takes precedence over the static one.  [trace_ctx]
    (default false) turns on causal trace stamping on every shard
    client — shard clients share the router's name, so sharded op ids
    embed the shard (["c0.s1#3"]; see {!Client.create}).
    @raise Invalid_argument on zero shards or mismatched strategies. *)

val n_shards : t -> int
val shard_of : t -> string -> int
val scheme : t -> scheme
val client : t -> shard:int -> Client.t
val clients : t -> Client.t array
val replicas : t -> shard:int -> string array

val attach : t -> unit
(** Install the router's reply handler: a single shard attaches its
    client directly (the historical path); several shards register a
    demultiplexer routing each reply to the shard owning its source
    replica. *)

val read :
  t -> key:string ->
  on_done:(ok:bool -> vn:int -> value:int -> latency:float -> unit) -> unit

val write :
  t -> key:string -> value:int ->
  on_done:(ok:bool -> vn:int -> value:int -> latency:float -> unit) -> unit

val install :
  t -> key:string -> vn:int -> value:int ->
  on_done:(ok:bool -> vn:int -> value:int -> latency:float -> unit) -> unit

val set_policy : t -> Rpc.Policy.t -> unit
(** Apply to every shard. @raise Invalid_argument on an invalid policy. *)

val policy : t -> Rpc.Policy.t

val set_batching : t -> Rpc.Window.config option -> unit
(** Apply to every shard, each with its own controller (see
    {!Client.set_batching}).
    @raise Invalid_argument if the config fails {!Rpc.Window.validate}. *)

val batching : t -> Rpc.Window.t option
(** Shard 0's live controller while batching is on. *)

val set_strategy : t -> shard:int -> Strategy.t -> unit
(** Adopt a new strategy on the shard's client and bump its epoch;
    in-flight ops finish under the strategy they were issued with
    (see {!Client.set_strategy}). *)

val strategy : t -> shard:int -> Strategy.t
(** The shard's current quorum strategy. *)

val epoch : t -> shard:int -> int
(** The shard's strategy generation. *)

val set_probe : t -> shard:int -> Steer.t option -> unit
(** Install (or remove) the shard client's steering probe (see
    {!Client.set_probe}). *)
