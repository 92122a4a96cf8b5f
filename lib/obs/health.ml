(** Rolling-window health monitoring, per shard, on virtual time.

    Completed operations are {!record}ed as they finish; {!sample}
    prunes everything older than the window and distils each shard
    into a snapshot — op rate, read fraction, success rate, p99
    latency (nearest-rank over the window's successful ops), and an
    instantaneous apply-queue depth probed from the caller-provided
    hook.  The samples are the feed a live dashboard (the REPL's
    [top]) or a run's result consumes.

    Deterministic: no wall clock, no allocation-order dependence —
    records arrive in virtual-time order and snapshots are pure
    functions of the recorded window plus the probe.  Statistics are
    computed inline (nearest-rank percentile over a sorted copy)
    because [lib/obs] sits below [lib/sim] in the dependency order. *)

type record = {
  r_at : float;
  r_read : bool;
  r_ok : bool;
  r_latency : float;
}

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

type t = {
  hwindow : float;
  n_shards : int;
  queue_depth : (int -> float) option;
  shards : record Queue.t array;  (** per shard, in arrival order *)
}

let create ~window ~n_shards ?queue_depth () =
  if (not (Float.is_finite window)) || window <= 0.0 then
    invalid_arg "Health.create: window must be finite and > 0";
  if n_shards < 1 then invalid_arg "Health.create: n_shards must be >= 1";
  {
    hwindow = window;
    n_shards;
    queue_depth;
    shards = Array.init n_shards (fun _ -> Queue.create ());
  }

let window t = t.hwindow
let n_shards t = t.n_shards

let record t ~at ~shard ~read ~ok ~latency =
  if shard < 0 || shard >= t.n_shards then
    invalid_arg (Fmt.str "Health.record: shard %d out of range" shard);
  Queue.add
    { r_at = at; r_read = read; r_ok = ok; r_latency = latency }
    t.shards.(shard)

let nearest_rank_p99 (latencies : float list) =
  match latencies with
  | [] -> nan
  | _ ->
      let a = Array.of_list latencies in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
      a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

(* The shard's snapshot over its records newer than the window's left
   edge.  Reads the queue only: stale records are skipped, not
   popped. *)
let summarize t ~at shard =
  let cutoff = at -. t.hwindow in
  let ops = ref 0 and reads = ref 0 and oks = ref 0 and lats = ref [] in
  Queue.iter
    (fun r ->
      if r.r_at > cutoff then begin
        incr ops;
        if r.r_read then incr reads;
        if r.r_ok then begin
          incr oks;
          lats := r.r_latency :: !lats
        end
      end)
    t.shards.(shard);
  let f = float_of_int in
  let ops = !ops in
  {
    at;
    shard;
    window = t.hwindow;
    ops;
    rate = f ops /. t.hwindow;
    read_fraction = (if ops = 0 then nan else f !reads /. f ops);
    success_rate = (if ops = 0 then nan else f !oks /. f ops);
    p99 = nearest_rank_p99 !lats;
    queue_depth =
      (match t.queue_depth with Some probe -> probe shard | None -> nan);
  }

(* records arrive in virtual-time order, so pruning pops from the
   front up to the window's left edge *)
let prune t ~at =
  let cutoff = at -. t.hwindow in
  Array.iter
    (fun q ->
      while
        match Queue.peek_opt q with Some r -> r.r_at <= cutoff | None -> false
      do
        ignore (Queue.pop q)
      done)
    t.shards

(** One snapshot per shard like {!sample}, but with no side effect:
    nothing pruned.  The read-only probe a tuning inspector uses
    between sampling rounds. *)
let peek t ~at = List.init t.n_shards (summarize t ~at)

(** One snapshot per shard (ascending), pruning the window first. *)
let sample t ~at =
  prune t ~at;
  peek t ~at

(* ---------- rendering ---------- *)

let cell fmt v = if Float.is_nan v then "-" else Fmt.str fmt v

(** A fixed-width table of one sampling round — what the REPL's [top]
    prints.  Deterministic given the snapshots, so tests pin it. *)
let render (snaps : snapshot list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Fmt.str "%5s %6s %8s %6s %6s %8s %6s@\n" "shard" "ops" "rate" "read%"
       "ok%" "p99" "queue");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Fmt.str "%5d %6d %8s %6s %6s %8s %6s@\n" s.shard s.ops
           (cell "%.3f" s.rate)
           (cell "%.1f" (s.read_fraction *. 100.0))
           (cell "%.1f" (s.success_rate *. 100.0))
           (cell "%.2f" s.p99)
           (cell "%.2f" s.queue_depth)))
    snaps;
  Buffer.contents buf
