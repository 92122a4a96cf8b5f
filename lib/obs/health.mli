(** Rolling-window per-shard health monitoring on virtual time:
    record completed operations, sample snapshots (op rate, read
    fraction, success rate, p99, apply-queue depth), render a live
    table.  Deterministic given the records
    and the probe. *)

type snapshot = {
  at : float;  (** sample time *)
  shard : int;
  window : float;
  ops : int;  (** operations completed inside the window *)
  rate : float;  (** ops per time unit over the window *)
  read_fraction : float;  (** [nan] when the window is empty *)
  success_rate : float;  (** [nan] when the window is empty *)
  p99 : float;
      (** nearest-rank p99 latency of the window's successful ops;
          [nan] when there were none *)
  queue_depth : float;  (** probed at sample time; [nan] without a probe *)
}

type t

val create : window:float -> n_shards:int -> ?queue_depth:(int -> float) ->
  unit -> t
(** A monitor over [n_shards] shards with a rolling [window] of
    virtual time.  [queue_depth shard] is probed at each sample — wire
    it to the shard's replica apply queues.
    @raise Invalid_argument on a non-positive window or shard count. *)

val window : t -> float
val n_shards : t -> int

val record :
  t -> at:float -> shard:int -> read:bool -> ok:bool -> latency:float -> unit
(** One completed operation.  Records must arrive in non-decreasing
    [at] order (virtual time does).
    @raise Invalid_argument on an out-of-range shard. *)

val sample : t -> at:float -> snapshot list
(** One snapshot per shard (ascending), pruning records older than the
    window. *)

val peek : t -> at:float -> snapshot list
(** Like {!sample} but side-effect free: one snapshot per shard
    without pruning the window.  What a
    tuning inspector calls between sampling rounds. *)

val render : snapshot list -> string
(** Fixed-width table of one sampling round (the REPL's [top]);
    deterministic, so tests pin it. *)

