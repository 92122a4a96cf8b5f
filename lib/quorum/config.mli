(** Quorum configurations (paper Section 2.3, after Barbara &
    Garcia-Molina): a set of read-quorums and a set of write-quorums
    over DM names; legal when every read-quorum intersects every
    write-quorum.  Strictly generalizes Gifford's vote-based scheme;
    the classical strategies are constructors. *)

type t = Ioa.Value.config = {
  read_quorums : string list list;
  write_quorums : string list list;
}

val make : read_quorums:string list list -> write_quorums:string list list -> t
(** Sorts and dedupes each quorum. *)

val legal : t -> bool
(** Every read-quorum meets every write-quorum (and neither side is
    empty) — the sole constraint the correctness proof needs. *)

val members : t -> string list
(** Every DM name mentioned by some quorum. *)

val read_covered : t -> string list -> bool
(** Does the set contain some read-quorum?  The precondition test of
    the TMs' REQUEST_COMMIT / write-phase operations. *)

val write_covered : t -> string list -> bool

val rowa : string list -> t
(** Read-one / write-all. *)

val raow : string list -> t
(** Read-all / write-one. *)

val majority : string list -> t
(** All subsets of size ceil((n+1)/2), both sides. *)

val weighted :
  votes:(string * int) list -> read_threshold:int -> write_threshold:int -> t
(** Gifford's weighted voting: minimal vote-covering subsets.
    @raise Invalid_argument unless [read_threshold + write_threshold]
    exceeds the total votes. *)

val grid : rows:int -> cols:int -> string list -> t
(** Grid quorums (row-major): read = one full row; write = one full
    row plus one DM from every row.
    @raise Invalid_argument unless the DM count equals [rows * cols]. *)

val subsets_of_size : int -> 'a list -> 'a list list
val pp : t Fmt.t
val equal : t -> t -> bool
