(** A binary min-heap over (time, sequence-number) keys — the event
    queue of the discrete-event simulator.  Sequence numbers break
    ties FIFO, keeping runs deterministic.

    Keys are ordered by [t1 < t2 || (t1 = t2 && s1 < s2)]; callers
    must never push a NaN time and must keep sequence numbers unique.
    Every entry has a {!handle}, by which it can be removed before it
    reaches the top.  [add], [push], [cancel], [min_time], [min_seq]
    and [take] allocate nothing (beyond the occasional capacity
    doubling), and a taken or cancelled value is no longer reachable
    from the heap. *)

type 'a t

type handle = private int
(** Names one entry for its lifetime in the heap.  Once the entry is
    taken or cancelled the handle is stale for good, even after its
    storage is reused by a later entry. *)

val none : handle
(** A handle no entry ever has: cancelling it does nothing. *)

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> float -> int -> 'a -> handle
(** Insert an entry and return its handle. *)

val push : 'a t -> float -> int -> 'a -> unit
(** [add] without the handle. *)

val cancel : 'a t -> handle -> bool
(** Remove the handle's entry in O(log n).  Returns [false], and does
    nothing, when the handle is stale or {!none}. *)

val min_time : 'a t -> float
(** The minimum entry's time.  Raises [Invalid_argument] when empty. *)

val min_seq : 'a t -> int
(** The minimum entry's sequence number.  Raises [Invalid_argument]
    when empty. *)

val take : 'a t -> 'a
(** Remove the minimum entry and return its value.  Raises
    [Invalid_argument] when empty. *)

val pop : 'a t -> (float * int * 'a) option
(** [take] with the key, as an option (allocates). *)

val peek : 'a t -> (float * int * 'a) option
