(** The quorum client — the practical transaction manager, following
    Section 3.1's logic over RPC: reads assemble a read quorum of
    replies and return the highest-versioned value; writes first learn
    the version from a read quorum, then install [(vn + 1, value)] at
    a write quorum.  The request mechanics — rids, the pending table,
    the deadline, retries/backoff/hedging — come from {!Rpc.Engine};
    timeout = failed operation. *)

module Core = Sim.Core
module Net = Sim.Net

(** Request routing: [`Broadcast] (fastest-quorum hedging, 2n messages
    per round) or [`Quorum] (one randomly chosen minimal quorum —
    fewer messages, spreadable load, weaker tail latency and
    availability; a hedging policy turns the unchosen replicas into
    the fallback pool). *)
type targeting = [ `Broadcast | `Quorum ]

(** Live signals for queue-aware read steering, shared by every client
    of a shard: per-replica reply-latency EWMA, apply-queue probe, and
    the steering cost weight.  With [steer = false] the tracker still
    learns from replies (feeding the optimizer's latency model) but
    targeting stays random. *)
type probe = {
  ewma : Ewma.t;
  queue_depth : int -> float;
  queue_weight : float;
  steer : bool;
}

type t = {
  name : string;
  sim : Core.t;
  net : Protocol.msg Net.t;
  eng : Protocol.msg Rpc.Engine.t;  (** the shared request engine *)
  group : Rpc.Engine.group;
      (** the replicas, by name and by node id (see {!Rpc.Engine.group}) *)
  mutable strategy : Strategy.t;
      (** swappable (reconfiguration) — prefer {!set_strategy}, which
          also bumps the generation *)
  mutable epoch : int;  (** strategy generation *)
  mutable probe : probe option;  (** steering signals, [None] = off *)
  timeout : float;
  read_repair : bool;
      (** reads push the newest (version, value) back to stale
          replicas they observed — anti-entropy on the read path *)
  targeting : targeting;
  trace_ctx : bool;
      (** mint a causal trace context per operation and stamp it onto
          every frame the operation sends (see {!Obs.Ctx}) — off by
          default, because the stamps change the trace byte stream *)
  shard : int option;
      (** embedded in op ids, so routed clients sharing a name still
          mint unique ids *)
  mutable next_op : int;  (** per-client operation sequence number *)
  rng : Qc_util.Prng.t;
  own_vns : int Qc_util.Strtbl.t;
      (** highest version issued per key — the single writer never
          reuses a version, even past a timed-out install that left
          residue at a minority (the coordinator-timestamp role) *)
  repairs_sent : Obs.Metrics.counter;
  ops_ok : Obs.Metrics.counter;
  ops_failed : Obs.Metrics.counter;
  read_latency : Obs.Metrics.histogram;  (** successful-op latencies *)
  write_latency : Obs.Metrics.histogram;
}

val create :
  name:string ->
  sim:Core.t ->
  net:Protocol.msg Net.t ->
  replicas:string array ->
  strategy:Strategy.t ->
  ?timeout:float ->
  ?read_repair:bool ->
  ?targeting:targeting ->
  ?trace_ctx:bool ->
  ?policy:Rpc.Policy.t ->
  ?seed:int ->
  ?metrics:Obs.Metrics.t ->
  ?shard:int ->
  ?batch_window:float ->
  ?adaptive_window:Rpc.Window.config ->
  unit ->
  t
(** [metrics] defaults to a private registry; pass a shared one to
    aggregate a whole cluster.  [policy] (default {!Rpc.Policy.default},
    fire-once) governs per-request retries, backoff and hedging.
    [shard] adds a [("shard", i)] label to the client's and engine's
    metrics — set by the router when several clients serve one logical
    node.  [batch_window] enables multi-key batching on the engine
    (see {!Rpc.Engine.set_batching}); off by default.
    [adaptive_window] instead enables batching under an AIMD window
    controller (see {!Rpc.Window}) and takes precedence over
    [batch_window].
    Every operation is traced as a span on the simulator's tracer
    (begin at issue, end at quorum/timeout), with reply / phase-switch
    / timeout instants in between.
    [trace_ctx] (default [false]) additionally mints a causal context
    per operation — an op id like ["c0#12"] (["c0.s1#3"] when sharded)
    rooted at the operation span — and stamps it onto every request
    frame, attempt span, and reply/hedge instant, so replica-side
    spans link back to the originating operation and {!Obs.Query} /
    {!Obs.Attribution} can stitch the full causal tree.  Off, the
    emitted trace is byte-identical to historical runs. *)

val set_strategy : t -> Strategy.t -> unit
(** Adopt a new strategy and bump [epoch].  In-flight operations are
    unaffected: each op captures its strategy at issue, so it keeps
    completing against the quorum predicate it was sent under (the
    per-operation epoch fence — see DESIGN.md §16 for when a switch
    additionally needs a joint transition). *)

val epoch : t -> int

val set_probe : t -> probe option -> unit
(** Install (or remove) the steering probe.  With a probe present,
    every counted reply feeds the EWMA; with [steer] also true, reads
    in [`Quorum] targeting pick the minimal read quorum minimizing the
    freshness-weighted cost (see {!Steer}) instead of a random
    smallest one.  The client's PRNG is not consulted on steered
    picks, and is untouched whenever the probe is [None]. *)

val probe : t -> probe option

val set_policy : t -> Rpc.Policy.t -> unit
(** Swap the retry/hedge policy; applies to operations issued after
    the call.  @raise Invalid_argument on an invalid policy — use
    {!Rpc.Policy.validate} first to report errors gracefully. *)

val policy : t -> Rpc.Policy.t

val set_batch_window : t -> float option -> unit
(** Enable ([Some window]) or disable ([None]) multi-key batching for
    subsequently issued requests.
    @raise Invalid_argument if the window is negative or not finite. *)

val batch_window : t -> float option

val set_adaptive_window : t -> Rpc.Window.config option -> unit
(** Enable ([Some cfg]) adaptive batching — batching switches on at the
    config's initial window and an AIMD controller takes over the flush
    delay — or remove the controller ([None]), falling back to the
    engine's static window (disable that too with
    {!set_batch_window}).
    @raise Invalid_argument if the config fails {!Rpc.Window.validate}. *)

val adaptive_window : t -> Rpc.Window.t option
(** The live controller, if one is installed — inspect its current
    window with {!Rpc.Window.window}. *)

val attach : t -> unit
(** Install the client's reply handler on the network. *)

val handle : t -> src:string -> Protocol.msg -> unit
(** Dispatch one incoming reply by hand — for layers (the shard
    router) that own the node's net handler. *)

val read :
  t -> key:string ->
  on_done:(ok:bool -> vn:int -> value:int -> latency:float -> unit) -> unit

val write :
  t -> key:string -> value:int ->
  on_done:(ok:bool -> vn:int -> value:int -> latency:float -> unit) -> unit

val install :
  t -> key:string -> vn:int -> value:int ->
  on_done:(ok:bool -> vn:int -> value:int -> latency:float -> unit) -> unit
(** Install directly, skipping the version query — the data-migration
    step of reconfiguration. *)
