(** Critical-path latency attribution: decompose each completed
    operation's wall latency into named phases, from its stamped trace
    (see {!Ctx}).

    The decomposition is exact by construction.  The operation's
    [start, stop] interval is cut at every boundary of every stamped
    child interval (batch-window waits, retry backoff gaps, replica
    queue/apply/fsync spans), plus two thresholds (first hedge
    instant, last replica-side event); each resulting segment is
    classified once, by priority:

      fsync > apply > queue > batch > backoff > reply > hedge > net

    where [reply] is residual time after the last replica-side event
    (the final answer's flight home), [hedge] is residual time after
    the first hedge fan-out, and [net] is every other uncovered
    segment (request flight, scheduling).  Segments partition the
    interval, so the phase durations sum to the measured wall latency
    up to float addition error — the invariant the acceptance test
    pins.

    Overlap across replicas is resolved by the same priority: if any
    replica is fsyncing during a segment, the segment counts as fsync
    even if another replica is still queueing — the phases answer
    "what was the operation waiting on", not "what was each replica
    doing". *)

type phase = Net | Backoff | Hedge | Batch | Queue | Apply | Fsync | Reply

let phases = [ Net; Backoff; Hedge; Batch; Queue; Apply; Fsync; Reply ]

let phase_label = function
  | Net -> "net"
  | Backoff -> "backoff"
  | Hedge -> "hedge"
  | Batch -> "batch"
  | Queue -> "queue"
  | Apply -> "apply"
  | Fsync -> "fsync"
  | Reply -> "reply"

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

let wall b = b.stop -. b.start

let phase_duration b p =
  match List.assoc_opt p b.by_phase with Some d -> d | None -> 0.0

(* clamp an interval to [lo, hi]; None when empty after clamping *)
let clamp ~lo ~hi (a, b) =
  let a = Float.max lo a and b = Float.min hi b in
  if a < b then Some (a, b) else None

let span_names_replica = [ "replica.queue"; "replica.apply"; "replica.fsync" ]

(* the intervals of the op's child spans with a given name *)
let intervals_of (children : Query.span list) name =
  List.filter_map
    (fun (s : Query.span) ->
      if String.equal s.Query.name name then Some (s.Query.start, s.Query.stop)
      else None)
    children

(* backoff gaps: between consecutive attempts of the same rid, the
   time from one attempt span's end to the next one's begin *)
let backoff_intervals (children : Query.span list) =
  let attempts =
    List.filter (fun (s : Query.span) -> String.equal s.Query.name "attempt")
      children
  in
  let keyed =
    List.map
      (fun (s : Query.span) ->
        ( Option.value ~default:(-1) (Query.arg_int s.Query.args "rid"),
          Option.value ~default:0 (Query.arg_int s.Query.args "attempt"),
          s ))
      attempts
  in
  let sorted =
    List.sort
      (fun (r1, a1, _) (r2, a2, _) ->
        match compare r1 r2 with 0 -> compare a1 a2 | c -> c)
      keyed
  in
  let rec gaps = function
    | (r1, _, s1) :: ((r2, _, s2) :: _ as rest) ->
        if r1 = r2 && s1.Query.stop < s2.Query.start then
          (s1.Query.stop, s2.Query.start) :: gaps rest
        else gaps rest
    | _ -> []
  in
  gaps sorted

let inside x (a, b) = a <= x && x < b

let of_root (root : Query.span) (spans : Query.span list)
    (events : Trace.event list) : breakdown =
  let op = Option.value ~default:"" (Query.op_of root) in
  let children =
    List.filter (fun s -> not (Query.is_root s)) (Query.spans_of_op spans ~op)
  in
  let op_events = Query.events_of_op events ~op in
  let lo = root.Query.start and hi = root.Query.stop in
  let cl = List.filter_map (clamp ~lo ~hi) in
  let fsync_iv = cl (intervals_of children "replica.fsync") in
  let apply_iv = cl (intervals_of children "replica.apply") in
  let queue_iv = cl (intervals_of children "replica.queue") in
  let batch_iv = cl (intervals_of children "batchq") in
  let backoff_iv = cl (backoff_intervals children) in
  (* the last moment a replica was visibly working for this op:
     query/install instants, and the close of any replica-side span *)
  let last_replica =
    List.fold_left
      (fun acc (e : Trace.event) ->
        let replica_instant =
          e.Trace.ph = Trace.I
          && (String.equal e.Trace.name "query"
             || String.equal e.Trace.name "install")
        in
        let replica_span_edge =
          List.exists (String.equal e.Trace.name) span_names_replica
        in
        if replica_instant || replica_span_edge then Float.max acc e.Trace.ts
        else acc)
      neg_infinity op_events
  in
  let first_hedge =
    List.fold_left
      (fun acc (e : Trace.event) ->
        if e.Trace.ph = Trace.I && String.equal e.Trace.name "hedge" then
          Float.min acc e.Trace.ts
        else acc)
      infinity op_events
  in
  (* cut the wall interval at every boundary *)
  let cuts =
    List.concat_map
      (fun (a, b) -> [ a; b ])
      (fsync_iv @ apply_iv @ queue_iv @ batch_iv @ backoff_iv)
  in
  let cuts =
    (if Float.is_finite last_replica then [ last_replica ] else [])
    @ (if Float.is_finite first_hedge then [ first_hedge ] else [])
    @ cuts
  in
  let bounds =
    List.sort_uniq Float.compare
      (lo :: hi :: List.filter (fun x -> lo < x && x < hi) cuts)
  in
  let totals = Array.make (List.length phases) 0.0 in
  let index p =
    let rec go i = function
      | [] -> 0
      | q :: rest -> if q = p then i else go (i + 1) rest
    in
    go 0 phases
  in
  let add p d = totals.(index p) <- totals.(index p) +. d in
  let rec segments = function
    | a :: (b :: _ as rest) ->
        let m = (a +. b) /. 2.0 in
        let phase =
          if List.exists (inside m) fsync_iv then Fsync
          else if List.exists (inside m) apply_iv then Apply
          else if List.exists (inside m) queue_iv then Queue
          else if List.exists (inside m) batch_iv then Batch
          else if List.exists (inside m) backoff_iv then Backoff
          else if Float.is_finite last_replica && m >= last_replica then Reply
          else if Float.is_finite first_hedge && m >= first_hedge then Hedge
          else Net
        in
        add phase (b -. a);
        segments rest
    | _ -> ()
  in
  segments bounds;
  {
    op;
    op_name = root.Query.name;
    track = root.Query.track;
    shard = Query.arg_int root.Query.args "shard";
    ok = Option.value ~default:false (Query.arg_bool root.Query.args "ok");
    start = lo;
    stop = hi;
    by_phase = List.mapi (fun i p -> (p, totals.(i))) phases;
  }

(** Breakdowns of every completed (root span begun and ended) stamped
    operation in the trace, in root-span-id order. *)
let of_events (events : Trace.event list) : breakdown list =
  let spans = Query.spans events in
  List.map (fun root -> of_root root spans events) (Query.roots spans)

(* ---------- aggregation ---------- *)

let shards (bs : breakdown list) : int option list =
  let known =
    List.sort_uniq Int.compare (List.filter_map (fun b -> b.shard) bs)
  in
  let unknown = List.exists (fun b -> b.shard = None) bs in
  (if unknown then [ None ] else []) @ List.map (fun s -> Some s) known

let mean_by_phase (bs : breakdown list) : (phase * float) list =
  let n = List.length bs in
  List.map
    (fun p ->
      let total =
        List.fold_left (fun acc b -> acc +. phase_duration b p) 0.0 bs
      in
      (p, if n = 0 then 0.0 else total /. float_of_int n))
    phases

(** Register (or re-fetch) one [attr.phase_ms] histogram per (shard,
    phase) and feed every breakdown's phase durations into it — the
    per-shard phase histograms of the metrics registry.  Registration
    order is shard-sorted then {!phases}-ordered, so dumps are
    deterministic. *)
let observe (m : Metrics.t) (bs : breakdown list) : unit =
  let shard_label = function
    | Some s -> string_of_int s
    | None -> "-"
  in
  List.iter
    (fun shard ->
      let mine = List.filter (fun b -> b.shard = shard) bs in
      List.iter
        (fun p ->
          let h =
            Metrics.histogram m
              ~labels:
                [
                  ("shard", shard_label shard); ("phase", phase_label p);
                ]
              "attr.phase"
          in
          List.iter (fun b -> Metrics.observe h (phase_duration b p)) mine)
        phases)
    (shards bs)

(* ---------- JSON report ---------- *)

let num_or_null v = if Float.is_nan v then Json.Null else Json.Num v

(** The machine-readable attribution report: op count and per-shard
    mean phase decomposition (time units per op). *)
let report_to_json (bs : breakdown list) : Json.t =
  let shard_obj shard =
    let mine = List.filter (fun b -> b.shard = shard) bs in
    let means = mean_by_phase mine in
    Json.Obj
      [
        ( "shard",
          match shard with
          | Some s -> Json.Num (float_of_int s)
          | None -> Json.Null );
        ("ops", Json.Num (float_of_int (List.length mine)));
        ( "wall_mean",
          num_or_null
            (match List.length mine with
            | 0 -> nan
            | n ->
                List.fold_left (fun acc b -> acc +. wall b) 0.0 mine
                /. float_of_int n) );
        ( "phase_means",
          Json.Obj (List.map (fun (p, d) -> (phase_label p, Json.Num d)) means)
        );
      ]
  in
  Json.Obj
    [
      ("ops", Json.Num (float_of_int (List.length bs)));
      ("shards", Json.List (List.map shard_obj (shards bs)));
    ]
