(** Cross-shard transactions over the router: multi-key read/write
    transactions as a parent with one quorum-replicated child per
    participant shard.  The prepare round locks and snapshots the
    footprint at a vote quorum per shard (simultaneously a read and a
    write quorum, so version currency and conflict detection both come
    from quorum intersection); the decision is then either a
    coordinator bit ([`Two_phase] — textbook blocking 2PC) or a
    per-transaction Paxos register over the union of participant
    replicas ([`Paxos] — Gray & Lamport's Consensus on Transaction
    Commit, one-instance form), which prepared replicas can resolve
    on their own after a coordinator failure. *)

type mode = [ `Two_phase | `Paxos ]

val mode_label : mode -> string
(** ["2pc"] / ["paxos"] — table and flag labels. *)

type t

val create :
  name:string ->
  sim:Sim.Core.t ->
  router:Router.t ->
  mode:mode ->
  ?timeout:float ->
  ?txn0:int ->
  unit ->
  t
(** A coordinator issuing transactions as [name] (the router client's
    node, whose engines and reply routing it reuses).  [timeout]
    (default 400.0) is the overall per-transaction deadline.  [txn0]
    (default 0) seeds the txid sequence.  The [n]th transaction's
    txid ({!Qc_util.Txid.make}) is built once per attempt and carried
    by every message of it: an int, [coord lsl 32 lor n] with [coord]
    the node id of [name], which the replicas, the lock holders and
    the audit key by; and a name, ["<name>#t<n>"], rendered only in
    traces, digests, audit messages, {!Replica.in_doubt} and
    {!Replica.locked_keys}.  Replicas remember decided txids forever,
    so a second coordinator over the same replicas must continue the
    sequence (see {!next_txn}) rather than restart it. *)

val mode : t -> mode

val next_txn : t -> int
(** The sequence number the next {!execute} will use — pass it as
    another coordinator's [txn0] to keep txids unique across
    coordinators sharing a replica set. *)

val execute :
  t ->
  ?reads:string list ->
  ?writes:(string * int) list ->
  on_done:
    (committed:bool ->
    reads:(string * int * int) list ->
    writes:(string * int * int) list ->
    latency:float ->
    unit) ->
  unit ->
  string
(** Run one transaction reading [reads] and writing [writes] (all
    footprint keys must be distinct); returns its txid's name.  [on_done]
    fires exactly once: on commit, [reads] carries the prepare-time
    snapshot and [writes] the installed write set — (key, vn, value)
    triples.  [committed:false] covers abort, conflict and timeout,
    and is ambiguous after the decision was proposed: the transaction
    may still commit through recovery — the replica-side
    {!Replica.set_on_decided} hook is the authoritative commit log. *)
