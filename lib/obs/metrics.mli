(** A metrics registry: named counters, gauges, and fixed-bucket
    histograms with labels.  The same (name, labels) pair always
    yields the same instrument; [dump] output follows registration
    order, so deterministic runs dump deterministically. *)

type labels = (string * string) list

type counter
type gauge
type histogram

type t

val create : unit -> t

val counter : t -> ?labels:labels -> string -> counter
val gauge : t -> ?labels:labels -> string -> gauge

val default_buckets : float array

val histogram : t -> ?labels:labels -> ?buckets:float array -> string -> histogram
(** [buckets] are ascending upper bounds; an implicit +inf bucket
    catches the rest.  Default: 1, 2, 5, ..., 500 (latency-ish).
    Asking again for a registered (name, labels) pair returns the same
    histogram when the buckets are the same.
    @raise Invalid_argument if the pair was registered with other
    buckets, or as another kind of instrument. *)

val inc : counter -> unit
val value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** (upper bound, count) pairs; the final bound is [infinity]. *)

val quantile : histogram -> float -> float
(** Conservative bucket-quantile estimate: upper bound of the first
    bucket whose cumulative count reaches [q * total]. *)

val dump : t -> string
(** One line per instrument, registration order. *)

