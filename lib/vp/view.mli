(** Views (virtual partitions, El Abbadi-Toueg [2]): numbered sets of
    replicas believed mutually reachable; a view serves operations
    only when primary (contains a majority), so successive primary
    views intersect and state carries forward. *)

type t = { id : int; members : string list }

val initial : replicas:string list -> t
val primary : n_total:int -> t -> bool
val pp : t Fmt.t
