(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component in the repository draws randomness
    through this module, so any execution, simulation, or failure
    pattern is exactly reproducible from one integer seed. *)

type t
(** Generator state (mutable). *)

val create : int -> t
(** [create seed] builds a generator; equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val bits : t -> int
(** 62 uniformly random non-negative bits. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n).  Requires [n > 0]. *)

val float : t -> float
(** Uniform on [0, 1). *)

val bool : t -> bool
(** A fair coin flip. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform on the inclusive range [lo, hi]. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list.
    @raise Invalid_argument on the empty list. *)

val choose_opt : t -> 'a list -> 'a option
(** [None] on the empty list, otherwise a uniform pick. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation (Fisher-Yates). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp (mu + sigma z)] for a standard normal [z], drawn by a
    128-layer ziggurat (Marsaglia & Tsang 2000, Doornik's ZIGNOR
    layout): exact in distribution, and on about 98.8 % of draws one
    64-bit draw and one table lookup. *)

(** The ziggurat's tables, read-only, for checking them. *)
module Ziggurat : sig
  val r : float
  (** Where the tail starts: [edge 1]. *)

  val v : float
  (** Every layer's area under [exp (-x^2/2)]. *)

  val edge : int -> float
  (** [edge i], [0 <= i <= 128], is layer [i]'s right edge [x_i]:
      decreasing from [edge 0 = v / exp (-r^2/2)] to [edge 128 = 0]. *)
end

val split : t -> t
(** Derive an independent child generator; the parent advances. *)

val subset : t -> 'a list -> p:float -> 'a list
(** Keep each element independently with probability [p]. *)
