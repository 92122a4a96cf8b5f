(** Critical-path latency attribution: decompose each completed
    stamped operation's wall latency into named phases — exact by
    construction (segments partition the wall interval, so the phases
    sum to the measured latency up to float addition error).

    Classification priority over each segment:
    fsync > apply > queue > batch > backoff > reply > hedge > net,
    where [reply] is residual time after the last replica-side event,
    [hedge] residual time after the first hedge fan-out, and [net]
    every other uncovered segment. *)

type phase = Net | Backoff | Hedge | Batch | Queue | Apply | Fsync | Reply

val phases : phase list
(** Fixed order, used everywhere phases are enumerated. *)

val phase_label : phase -> string

type breakdown = {
  op : string;  (** operation id, e.g. ["c0#12"] *)
  op_name : string;  (** root span name: read / write / install *)
  track : string;  (** the issuing client *)
  shard : int option;  (** root span's shard stamp, if sharded *)
  ok : bool;
  start : float;
  stop : float;
  by_phase : (phase * float) list;  (** every phase, in {!phases} order *)
}

val wall : breakdown -> float
val phase_duration : breakdown -> phase -> float

val of_events : Trace.event list -> breakdown list
(** Breakdowns of every completed stamped operation in the trace, in
    root-span-id order. *)

val shards : breakdown list -> int option list
(** The shard stamps present, [None] (unsharded) first, then
    ascending. *)

val mean_by_phase : breakdown list -> (phase * float) list
(** Mean time units per operation spent in each phase. *)

val observe : Metrics.t -> breakdown list -> unit
(** Aggregate per-shard phase histograms ([attr.phase], labels
    [shard]/[phase]) into the registry, in deterministic registration
    order. *)

val report_to_json : breakdown list -> Json.t
(** Machine-readable report: total op count plus per-shard op counts,
    mean wall latency, and mean phase decomposition. *)
