(** Workload-aware strategy optimization: candidate families over [n]
    replicas scored by an analytic load / latency / availability model
    after "Read-Write Quorum Systems Made Practical" (PAPERS.md).
    Shared by the cluster's re-strategizing epoch, the REPL's [tune]
    command and the [tables.exe tune] ablation. *)

type score = {
  peak_load : float;
      (** max over replicas of expected touch probability per op *)
  read_latency : float;
  write_latency : float;
  op_latency : float;
      (** mix-weighted: [f * read + (1 - f) * (read + write)] — a write
          pays the version query before the install *)
  read_availability : float;
  write_availability : float;
}

val score :
  Strategy.t -> read_fraction:float -> p_alive:float -> lat:(int -> float) -> score
(** Score under read fraction [f], per-replica alive probability, and
    per-replica latency estimate [lat] (e.g. [Ewma.value]), over the
    strategy's smallest minimal quorums. *)

val p_alive : float
(** The per-replica alive probability {!choose} assumes: 0.99. *)

val admissible : score -> bool
(** Meets both availability floors: read >= 0.99, write >= 0.98. *)

val objective : score -> float
(** [1.0 * peak_load + 0.05 * op_latency] — lower is better. *)

val pp_score : score Fmt.t

val candidates : int -> Strategy.t list
(** Majority (first, so ties resolve conservatively), the full unit-
    vote threshold sweep (read-[r]/write-[n+1-r], covering rowa and
    write-one), every [rows * cols = n] grid with both sides >= 2,
    the tree family at [n >= 4], and primary-copy.
    @raise Invalid_argument unless [n >= 1]. *)

type choice = { strategy : Strategy.t; score : score }

val choose : read_fraction:float -> lat:(int -> float) -> int -> choice option
(** The objective-minimal {!Strategy.legal}, availability-admissible
    candidate over [n] replicas, scored at {!p_alive}; earlier
    candidates win ties.  [None] if nothing meets the floors. *)

val joint : Strategy.t -> Strategy.t -> Strategy.t
(** The transitional strategy for re-strategizing [a] -> [b]: quorums
    satisfy both predicates.  Reads still cover data at rest under
    [a]; writes already land on [b]'s quorums (DESIGN.md §16).
    @raise Invalid_argument if replica counts differ. *)
