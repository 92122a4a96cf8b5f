(** Quorum strategies over [n] replicas as bitmask predicates — the
    practical-systems counterpart of [Quorum.Config], with exact
    analytic availability by enumeration. *)

(** One side's quorums, enumerated once per strategy. *)
type quorums = {
  minimal : int list;
      (** every minimal quorum as a bitmask, in descending mask order *)
  smallest : int list;  (** the minimal quorums of least cardinality *)
  size : int;  (** that cardinality; [n] when the side is never satisfied *)
}

type t = private {
  name : string;
  n : int;
  read_ok : int -> bool;  (** mask of replicas contains a read quorum? *)
  write_ok : int -> bool;
  reads : quorums Lazy.t;  (** forced on first use by {!quorums} *)
  writes : quorums Lazy.t;
}

val popcount : int -> int
val full : int -> int
val make : name:string -> n:int -> read_ok:(int -> bool) -> write_ok:(int -> bool) -> t

val quorums : t -> [ `Read | `Write ] -> quorums
(** The side's minimal quorums, enumerated on the first call. *)

val min_read : t -> int
(** Size of the smallest read quorum ([n] if there is none). *)

val min_write : t -> int

val legal : t -> bool
(** No disjoint (read-quorum, write-quorum) pair, the empty read set
    included — exact check by enumeration (n <= ~12). *)

val rowa : int -> t
val majority : int -> t

val weighted : name:string -> votes:int array -> r:int -> w:int -> t
(** Gifford's weighted voting.
    @raise Invalid_argument unless [r + w] exceeds the total votes. *)

val grid : rows:int -> cols:int -> t
(** Read = one full row; write = one full row + one per row. *)

val tree : ?groups:int -> int -> t
(** Two-level hierarchical (Kumar) quorums: a majority of [groups]
    contiguous subtrees, each represented by a within-subtree
    majority; read = write.  Quorums of ~[n^0.63] vs. majority's
    [n/2 + 1] (e.g. 4 of 9).  [groups] defaults to 3.
    @raise Invalid_argument unless [1 <= groups <= n]. *)

val primary : int -> t
(** Non-replicated baseline (everything on replica 0). *)

val availability : t -> p:float -> float * float
(** [(read, write)] probability a live quorum exists when each replica
    is independently alive with probability [p] — exact enumeration. *)
