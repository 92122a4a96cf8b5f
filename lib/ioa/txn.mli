(** Transaction names and the transaction tree (paper Section 2.2).

    A name is the path of segments from the root [T0] (the empty
    path), so the tree relations are computable from names alone —
    the "predefined naming scheme for all possible transactions" the
    paper postulates.  [Access] segments carry the access attributes
    [kind(T)] and [data(T)]; [Param] segments carry input parameters
    of internal transactions (transactions with different parameters
    are different transactions, per the paper's footnote 1). *)

type kind = Read | Write

type seg =
  | Seg of string
  | Param of string * Value.t
  | Access of { obj : string; kind : kind; data : Value.t; seq : int }

type t = seg list
(** A transaction name: path of segments from the root. *)

val root : t
(** [T0], the root transaction modelling the environment. *)

val is_root : t -> bool
val seg_equal : seg -> seg -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val parent : t -> t
(** The paper's [parent] mapping.
    @raise Invalid_argument on the root. *)

val child : t -> seg -> t
val last_seg : t -> seg option
val depth : t -> int

val is_ancestor : t -> t -> bool
(** [is_ancestor a t]: reflexive ancestor relation. *)

val is_proper_ancestor : t -> t -> bool

val lca : t -> t -> t
(** Least common ancestor. *)

val are_siblings : t -> t -> bool
(** Distinct transactions with the same parent. *)

val access_info : t -> (string * kind * Value.t * int) option
(** The access attributes carried by the final segment, if any:
    (object, kind, data, sequence number). *)

val obj_of : t -> string option
val kind_of : t -> kind option
val data_of : t -> Value.t option

val pp_seg : seg Fmt.t
val pp : t Fmt.t
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
