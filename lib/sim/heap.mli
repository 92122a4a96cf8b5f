(** A binary min-heap over (time, sequence-number) keys — the event
    queue of the discrete-event simulator.  Sequence numbers break
    ties FIFO, keeping runs deterministic.

    Keys are ordered by [t1 < t2 || (t1 = t2 && s1 < s2)]; callers
    must never push a NaN time and must keep sequence numbers unique.
    [push], [min_time], [min_seq] and [take] allocate nothing (beyond
    the occasional capacity doubling), and a taken value is no longer
    reachable from the heap. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> int -> 'a -> unit

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
