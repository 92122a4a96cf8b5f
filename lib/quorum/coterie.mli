(** Coterie analysis (Barbara & Garcia-Molina): antichains of
    pairwise-intersecting quorums, domination, non-domination (the
    optimality criterion for quorum choices), and the weak-domination
    comparison for read/write configurations.  Exhaustive checks, for
    universes up to ~16. *)

type t = {
  universe : string list;
  quorums : int list;  (** bitmasks over [universe], an antichain *)
}

val mask_of : string list -> string list -> int
val quorum_of : string list -> int -> string list

val minimize : int list -> int list
(** The antichain of minimal quorums. *)

val make : universe:string list -> quorums:string list list -> t
(** @raise Invalid_argument when two quorums fail to intersect. *)

val of_write_side : Config.t -> t option
(** The write side as a coterie — [None] when write quorums do not
    pairwise intersect (legal for the paper's algorithm; that is the
    generalization). *)

val covers : t -> int -> bool
val transversal : t -> int -> bool

val non_dominated : t -> bool
(** Every transversal contains a quorum. *)

val domination_witness : t -> string list option
(** A transversal containing no quorum, if any — the set one would add
    to dominate this coterie. *)

val dominates : t -> t -> bool

val minimize_config : Config.t -> Config.t

val config_dominates : Config.t -> Config.t -> bool
(** Weak domination: [c1] can serve every operation [c2] can, on every
    liveness pattern, and they differ. *)

