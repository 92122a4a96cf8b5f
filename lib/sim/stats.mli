(** Latency samples with percentile summaries (nearest-rank
    definition, [Float.compare] ordering). *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

val of_list : float list -> t
(** E.g. to summarize span durations from [Obs.Query.durations]. *)

val merge : t -> t -> t
(** Combine two sample sets (per-replica stats) into a fresh one. *)

val sorted : t -> float array
(** The samples in [Float.compare] order (nan first), as a fresh
    array; equal samples keep the order they were added in. *)

val percentile : t -> float -> float
(** Nearest-rank: the value at rank [ceil (p * n)] of the sorted
    samples. *)

val summarize : t -> summary

val pp_summary : summary Fmt.t
(** Stable format (does not print p95/p999). *)
