(** A replica server: per key a (version-number, value) pair — the DM
    state of Section 3.1 — answering queries and installs.  Installs
    only overwrite with a version at least the stored one, so
    retransmissions and stale retries are harmless.  Work is counted
    through [Obs.Metrics] counters labelled with the replica name, and
    handled messages are logged to the network's tracer.  Batch frames
    are answered with one batch reply carrying the per-request
    answers in order.

    With a {!Sim.Storage} device attached, installs run through an
    apply pipeline: they queue, apply in version order, and a whole
    group acknowledges after one amortized fsync (group commit).
    Queries answer from applied state immediately; installs ack only
    after durability, so a write quorum of acks certifies the version
    exactly as in the synchronous replica.  Without a device (the
    default) every request is answered synchronously, byte-identically
    to the historical replica.

    Requests stamped with a causal context (see {!Obs.Ctx}) earn
    ctx-stamped trace events: the query/install instants carry the op
    id, and a pipelined install opens [replica.queue] /
    [replica.apply] / [replica.fsync] spans linked to the originating
    operation's causal tree.  Unstamped frames trace byte-identically
    to before. *)

type pending
(** An install waiting in the apply queue. *)

type cell
(** One key's state: its (vn, value) pair and the id of the txid
    holding its transaction lock.  A prepared transaction keeps its
    footprint's cells, so its decision and lock release look nothing
    up. *)

type prepared
(** A transaction in doubt here: its yes-vote's write set, locked
    footprint and snapshot, and the recovery round it leads.  With
    the txid's open {!Register} it is the transaction's live record;
    the decision drops both. *)

type t = private {
  name : string;
  data : cell Qc_util.Strtbl.t;  (** key -> its cell *)
  queries : Obs.Metrics.counter;
  installs : Obs.Metrics.counter;
  storage : Sim.Storage.t option;
      (** the replica's disk; [None] = free, synchronous installs *)
  group_commit : bool;  (** drain whole groups vs one install at a time *)
  mutable queue : pending list;
      (** installs awaiting apply + fsync, newest first *)
  mutable ready : pending list;
      (** without group commit: installs taken off [queue], oldest
          first, each waiting to be drained alone *)
  mutable queued : int;  (** the length of [queue] and [ready] together *)
  mutable draining : bool;  (** a group is at the device right now *)
  m_fsyncs : Obs.Metrics.counter option;  (** [replica.fsync] *)
  m_queue_depth : Obs.Metrics.histogram option;  (** [replica.queue_depth] *)
  txns : Register.table;
      (** txid id -> its register: open while the txid is undecided,
          then the shared decision alone *)
  mutable doubt : prepared array;
  mutable n_doubt : int;
      (** [doubt.(0 .. n_doubt-1)]: the prepared entries, unordered —
          kept at prepare and at resolve *)
  txn_recovery_delay : float;
  mutable txn_sim : Sim.Core.t option;
  mutable txn_send : dst:string -> Protocol.msg -> unit;
  mutable on_decided :
    (txid:Qc_util.Txid.t ->
    commit:bool ->
    writes:(string * int * int) list ->
    unit)
    option;
}

val create :
  ?metrics:Obs.Metrics.t ->
  ?extra_labels:(string * string) list ->
  ?storage:Sim.Storage.t ->
  ?group_commit:bool ->
  ?txn_recovery_delay:float ->
  name:string ->
  unit ->
  t
(** [metrics] defaults to a private registry; pass a shared one to
    aggregate a whole cluster.  [extra_labels] are appended after
    [("replica", name)] — e.g. a shard label.  [storage] attaches a
    disk model and routes installs through the apply pipeline;
    [group_commit] (default true, meaningful only with storage) drains
    the queue a whole group per fsync rather than one install per
    fsync.  Pipelined replicas additionally register [replica.fsync]
    and [replica.queue_depth] instruments.  [txn_recovery_delay]
    (default 150.0 sim-ms) times the first in-doubt recovery attempt
    in Paxos-Commit mode; at most 8 attempts are made, so the event
    queue always drains. *)

val lookup : t -> string -> int * int
(** The key's (vn, value); [(0, 0)] for a key never installed here. *)

val apply : t -> vn:int -> key:string -> value:int -> unit
(** Install [(vn, value)] at [key] directly, if [vn] is at least the
    stored version — the effect of a storage-free [Install_req], with
    no counter, trace or reply.  For tests that seed replica state. *)

val bindings : t -> (string * int * int) list
(** The (key, vn, value) of every key an install moved off the
    initial [(0, 0)], sorted by key.  A key that was only ever locked
    is not among them. *)

val load : t -> int
(** Queries + installs handled. *)

val fsyncs : t -> int
(** Fsyncs completed by the storage device; [0] without one. *)

val queue_depth : t -> int
(** Installs currently waiting in the apply queue. *)

val set_on_decided :
  t ->
  (txid:Qc_util.Txid.t ->
  commit:bool ->
  writes:(string * int * int) list ->
  unit) ->
  unit
(** Install the decision hook: fired exactly once per transaction, on
    the first locally learned decision (whether it arrived as a
    coordinator [Txn_decide], a recovery broadcast, or a decided
    short-circuit).  The audit's authoritative commit log. *)

val in_doubt : t -> string list
(** The txid names of transactions prepared here but not yet decided
    — blocked (in-doubt) transactions.  Sorted. *)

val locked_keys : t -> (string * string) list
(** The (key, owner's txid name) pairs currently write-locked, sorted
    by key. *)

val serve :
  t ->
  ?src:string ->
  tr:Obs.Trace.t ->
  reply:(Protocol.msg -> unit) ->
  Protocol.msg ->
  unit
(** Process one request, delivering each reply through [reply] —
    synchronously for queries and storage-free installs, after the
    group's fsync for pipelined installs; a batch frame replies once
    its last part has.  Non-requests produce no reply.  [src] names
    the sender; recovery-leader bookkeeping (phase-1b/2b quorum
    counting) needs it, request handling does not. *)

val handle_one : t -> tr:Obs.Trace.t -> Protocol.msg -> Protocol.msg option
(** The synchronous view of {!serve}: the reply produced in the same
    instant, or [None] — which for a storage-free replica means "no
    reply at all", and for a pipelined one may mean "ack still queued
    behind the fsync".  Exposed for tests; [attach] wires {!serve} to
    the network. *)

val attach : t -> net:Protocol.msg Sim.Net.t -> unit
