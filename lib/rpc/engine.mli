(** The shared replication RPC engine.

    All three replicated-store clients (read-write quorums, virtual
    partitions, ADT event logs) run the same loop from the paper's
    Section 3.1 TM algorithm: allocate a request id, send a wave of
    messages, accumulate replies until a quorum predicate is
    satisfied, fail on a deadline.  The engine owns that loop once —
    rid allocation, the pending table, reply dispatch, the operation
    deadline — and adds the robustness machinery the hand-rolled
    clients never had: per-attempt timeouts with bounded retry,
    exponential backoff with deterministic jitter, and hedged requests
    (late fan-out beyond the initial wave).

    {2 Determinism rules}

    - Under {!Policy.default} the engine schedules exactly one timer
      per operation (the deadline) and sends exactly one wave per
      call, in ascending member order — byte-identical to the
      historical clients for any seed.
    - Jitter draws come from the engine's {e own} PRNG (seeded at
      creation), never from the simulator's: enabling retries on one
      client cannot perturb message-loss or latency draws elsewhere,
      and runs stay reproducible from the seed.

    {2 Hygiene invariant}

    Every completed or timed-out operation removes all of its pending
    entries, closes its open attempt spans and cancels its timers (the
    deadline, and every call's attempt, retry and hedge timers): after
    the simulator drains, [pending_count] is [0], and a finished
    operation leaves no event in the simulator's queue.  Tests assert
    this. *)

type verdict =
  | Continue  (** keep gathering replies *)
  | Done  (** the accumulated reply set satisfies the predicate *)

type 'msg batching = {
  wrap : rid:int -> 'msg list -> 'msg;
      (** build the batch frame around [>= 2] requests for one
          destination; the rid is fresh and identifies the frame, the
          wrapped requests keep their own rids *)
  unwrap : 'msg -> 'msg list option;
      (** split an incoming batch reply into its per-request parts;
          [None] for ordinary messages *)
}
(** Multi-key batching (see {!set_batching}): distinct calls' requests
    to the same destination inside one window travel as a single wire
    message, and each wrapped reply still completes its own call
    through the pending table.  Latency cost: up to one window of
    queue delay per request.  Message gain: one frame per destination
    per window, however many keys are in flight. *)

type 'msg t

type 'msg op
(** An operation context: one user-visible operation (which may span
    several calls — e.g. a write's version query then install), under
    a single overall deadline. *)

val create :
  name:string ->
  sim:Sim.Core.t ->
  net:'msg Sim.Net.t ->
  rid_of:('msg -> int) ->
  ?policy:Policy.t ->
  ?cat:string ->
  ?seed:int ->
  ?metrics:Obs.Metrics.t ->
  ?extra_labels:(string * string) list ->
  unit ->
  'msg t
(** An engine for node [name] on [net].  [rid_of] projects the request
    id out of a reply so the engine can dispatch it.  [cat] is the
    trace category for the engine's events (default ["rpc"]; the store
    client passes ["store"] so its traces keep their historical
    shape).  [seed] seeds the jitter PRNG.  [metrics] defaults to a
    private registry.  [extra_labels] are appended to the engine's
    metric labels after [("client", name)] — e.g. a shard label when
    several engines serve one logical client.
    @raise Invalid_argument if [policy] fails {!Policy.validate}. *)

val attach : 'msg t -> unit
(** Register the engine's reply dispatcher as [name]'s net handler. *)

val handle_id : 'msg t -> src:int -> 'msg -> unit
(** Dispatch one incoming message from the node with id [src] by hand —
    for layers (e.g. a shard router) that own the node's net handler
    and demultiplex to several engines.  Batch replies are split and
    dispatched per part. *)

val handle : 'msg t -> src:string -> 'msg -> unit
(** {!handle_id} by the sender's name. *)

val set_batching : 'msg t -> ('msg batching * Window.t) option -> unit
(** Enable ([Some (b, w)]) or disable ([None]) multi-key batching for
    sends issued after the call.  The controller [w] is the only
    source of the coalescing delay: the first send queued arms one
    flush timer at [Window.window w], and every flush reports its peak
    per-destination batch size to {!Window.observe}.  A static window
    is a controller pinned by {!Window.fixed}.  The default is off,
    which keeps the send path byte-identical to historical runs; the
    first enable registers an [rpc.batch_size] histogram and an
    [rpc.window] gauge tracking [w]'s window.  Disabling keeps the
    unwrap function, so batch replies still in flight complete
    normally, and flushes any still-queued sends immediately
    (unwrapped, in enqueue order) rather than stranding them until the
    armed window timer, which it cancels: sends queued after a later
    re-enable wait their own full window. *)

val batching : 'msg t -> ('msg batching * Window.t) option

val name : 'msg t -> string
val policy : 'msg t -> Policy.t

val set_policy : 'msg t -> Policy.t -> unit
(** Applies to calls started after the change.
    @raise Invalid_argument if the policy fails {!Policy.validate}. *)

val fresh_rid : 'msg t -> int
(** Allocate a request id.  Exposed for fire-and-forget sends (e.g.
    read repair) and for callers that need the rid before {!call}
    (trace span arguments); pass it back via [?rid]. *)

val pending_count : 'msg t -> int
(** Outstanding calls in the pending table; [0] at quiescence. *)

val start_op :
  ?ctx:Obs.Ctx.t ->
  'msg t ->
  timeout:float ->
  on_timeout:(unit -> unit) ->
  'msg op
(** Begin an operation and arm its overall deadline: after [timeout]
    time units, if the operation is still live, [on_timeout] runs (it
    should fail the operation and call {!finish_op}).

    When [ctx] is supplied, every trace event the engine emits for the
    operation's calls — attempt spans, reply and hedge instants, and
    the per-send [batchq] coalescing-wait spans — carries the context's
    causal stamp ([op] id and [parent] span), so {!Obs.Query} can
    stitch client- and replica-side spans into one causal tree.  With
    no [ctx] (the default) the emitted events are byte-identical to
    historical runs. *)

val op_live : 'msg op -> bool
val op_started : 'msg op -> float

val finish_op : 'msg t -> 'msg op -> unit
(** Mark the operation dead, cancel its deadline, and drop its
    outstanding calls from the pending table, closing their attempt
    spans and cancelling their timers.  Idempotent; late replies for
    the operation become no-ops. *)

val max_group : int
(** The widest replica group {!call} accepts: one bit per member in an
    [int] mask, [Sys.int_size - 1] (62 on 64-bit hosts). *)

type group
(** A replica group resolved once: the members' names, and their node
    ids on the engine's network, which {!call}'s sends and the reply
    dispatch use.  Bit [i] of a member mask stands for member [i]. *)

val group : 'msg t -> string array -> group
(** The group of these members, in this order.  A name the network
    does not know becomes a down node (see {!Sim.Net.id}).
    @raise Invalid_argument if there are more than {!max_group}
    members. *)

val group_names : group -> string array
val group_ids : group -> int array

val call :
  'msg t ->
  op:'msg op ->
  ?rid:int ->
  targets:group ->
  ?first:int ->
  make:(int -> 'msg) ->
  on_reply:(member:int -> heard:int -> 'msg -> verdict) ->
  unit ->
  int
(** The quorum-gather combinator over the replica group [targets]: a
    set of members is an [int] mask whose bit [i] stands for member
    [i].  Sends [make rid] to the members of [first]
    (default: all — broadcast) in ascending order — one message per
    send wave (first wave, retry, hedge), shared by its targets, so
    [make] must not count on being called per target — then accumulates
    replies: each reply to this rid from a member [i] is handed to
    [on_reply ~member:i ~heard] with [heard] the set of members heard
    from {e before} this reply (so [heard land (1 lsl i) <> 0] marks a
    duplicate, and [heard lor (1 lsl i)] is the set heard so far).  The
    call completes when [on_reply] returns [Done].  Replies from
    non-members are dropped: a reply's member is found by comparing
    its sender's node id with the group's.  Returns the rid.

    Under the engine's policy:
    - if [max_attempts > 1], an unfinished attempt times out after
      {!Policy.attempt_timeout} and is retried — after an
      exponentially growing, jittered backoff delay, the request is
      resent to the members sent to but not yet heard from, the first
      wave's before the hedged ones', each in ascending order; when
      attempts are exhausted, the call ends its attempt span, counts
      [rpc.exhausted] and waits for the operation deadline;
    - if [hedge_delay] is [Some d], after [d] time units without
      completion the request goes to the members outside [first], in
      ascending order — broadcast and targeted-quorum routing are the
      two extremes ([first] = all hedges nothing; [first] = one minimal
      quorum with a small [d] approaches broadcast latency at quorum
      message cost).

    Duplicate replies (e.g. to a retransmission) reach [on_reply], but
    retransmissions skip members already heard from.  [on_reply] may
    start further calls or finish the operation. *)
