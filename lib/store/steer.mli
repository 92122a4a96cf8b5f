(** Queue-aware read steering: pick, among a strategy's minimal read
    quorums, the one whose slowest member looks cheapest right now.
    Fully deterministic — ties break by cardinality then lowest mask,
    never by PRNG. *)

(** A shard's live steering signals, shared by every client of the
    shard (so its tracker sees all the shard's replies).  With [steer]
    off the tracker still learns — feeding the optimizer's latency
    model — but targeting stays random. *)
type t = {
  ewma : Ewma.t;  (** recent reply latency per replica *)
  queue_depth : int -> float;  (** live apply-queue depth per replica *)
  steer : bool;  (** steer reads by {!best} *)
}

val queue_weight : float
(** Cost units per queued apply entry: 2. *)

val replica_cost : t -> int -> float
(** [Ewma.value ewma i + queue_weight * queue_depth i]. *)

val cost : t -> int -> float
(** Max of [replica_cost] over the mask's members — a quorum is as
    fast as its slowest reply. *)

val best : t -> int list -> int option
(** The cheapest mask ([None] on an empty list). *)
