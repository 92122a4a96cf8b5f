(** The int-keyed hash table of the per-message paths (request ids,
    txids): a chained table specialised to [int] keys.  A key hashes
    as itself folded onto its low 32 bits ([k lxor (k lsr 32)]), so a
    lookup runs no [caml_hash] and no functor indirection, and a
    resize relinks the cells in place.

    Below [2^32] a key hashes as itself, so sequential ids spread
    evenly over the buckets; an id packing a node into its high half
    and a sequence number into its low half (a txid) spreads over
    both.  A key has at most one binding.  There is no [iter] or
    [fold]: bucket order is never observed. *)

type 'a t

val create : int -> 'a t
(** An empty table with at least that many buckets (a power of two). *)

val length : 'a t -> int
(** The number of bindings. *)

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is unbound. *)

val find_or : 'a t -> int -> 'a -> 'a
(** [find_or t k default] is [k]'s binding, or [default] if it has
    none: a lookup that neither allocates an option nor raises. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its binding if it has one. *)

val remove : 'a t -> int -> unit
(** Unbind the key; a no-op if it is unbound. *)
