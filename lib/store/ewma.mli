(** Per-replica exponentially weighted moving averages — the online
    latency tracker behind queue-aware read steering.  Deterministic:
    state depends only on the observation sequence. *)

type t

val create : n:int -> ?alpha:float -> ?init:float -> unit -> t
(** A tracker over [n] indices.  [alpha] (default 0.2) is the blend
    weight of each new observation; [init] (default 0) is reported for
    indices never observed.  The first observation for an index seeds
    its average directly.
    @raise Invalid_argument unless [n >= 1] and [alpha] in (0, 1]. *)

val n : t -> int
val alpha : t -> float

val observe : t -> int -> float -> unit
(** Blend one observation into index [i]'s average.
    @raise Invalid_argument on an out-of-range index. *)

val value : t -> int -> float
(** The current average ([init] when never observed). *)

val known : t -> int -> bool
(** Has this index been observed at least once? *)
