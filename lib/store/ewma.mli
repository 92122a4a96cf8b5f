(** Per-replica exponentially weighted moving averages — the online
    latency tracker behind queue-aware read steering.  Deterministic:
    state depends only on the observation sequence. *)

type t

val alpha : float
(** The blend weight of each new observation: 0.2. *)

val create : n:int -> t
(** A tracker over [n] indices.  0 is reported for indices never
    observed; the first observation for an index seeds its average
    directly.
    @raise Invalid_argument unless [n >= 1]. *)

val n : t -> int

val observe : t -> int -> float -> unit
(** Blend one observation into index [i]'s average.
    @raise Invalid_argument on an out-of-range index. *)

val value : t -> int -> float
(** The current average (0 when never observed). *)

val known : t -> int -> bool
(** Has this index been observed at least once? *)
