(** The shared replication RPC engine — see the interface for the
    contract.  The hot path (default policy) is deliberately identical
    to the historical hand-rolled clients: one pending-table insert,
    one deadline timer armed at [start_op] and cancelled at
    [finish_op], one send wave in ascending member order, one "reply"
    instant per dispatched reply.  Retry, backoff and hedge timers only
    ever get scheduled when the policy asks for them, so enabling the
    engine does not move a single PRNG draw or heap entry in existing
    seeded runs. *)

module Core = Sim.Core
module Net = Sim.Net
module Prng = Qc_util.Prng

type verdict = Continue | Done

(* The pending table, keyed by rid: rids are sequential, so an int
   table that hashes a key as itself spreads them evenly without
   [Int.hash] (a generic [caml_hash] call on OCaml 5.1). *)
module Itbl = Qc_util.Inttbl

(** A replica group: the members' names, for traces and callers, and
    their node ids, which the send and reply paths use.  Bit [i] of a
    member mask stands for member [i]. *)
type group = { names : string array; ids : int array }

(** Multi-key batching: how to wrap several outgoing requests for one
    destination into a single wire message, and how to recognise and
    split an incoming batch reply.  The coalescing delay comes from
    the {!Window.t} enabled with it: the first enqueued send arms a
    flush timer, and everything queued for the same destination
    before it fires travels in one frame. *)
type 'msg batching = {
  wrap : rid:int -> 'msg list -> 'msg;
  unwrap : 'msg -> 'msg list option;
}

type 'msg op = {
  mutable o_live : bool;
  o_started : float;
  mutable o_last : 'msg call;
      (** the op's newest call, chained to the older ones through
          [c_prev]; the engine's [none] ends the chain *)
  mutable o_deadline : Core.timer;  (** cancelled when the op finishes *)
  o_ctx : Obs.Ctx.t option;
      (** causal trace context: when present, the engine stamps the
          op's attempt spans, reply/hedge instants and batch-queue
          spans with the originating operation — and carries nothing
          (and emits nothing extra) when absent, keeping default
          traces byte-identical *)
}

and 'msg call = {
  rid : int;
  c_op : 'msg op;
  c_prev : 'msg call;  (** the op's call started before this one *)
  targets : group;
  first : int;  (** the first wave *)
  mutable sent : int;  (** [first], and every member once hedged *)
  mutable heard : int;  (** members that replied (skipped on resend) *)
  mutable attempt : int;  (** 1-based *)
  mutable closed : bool;
  make : int -> 'msg;
  on_reply : member:int -> heard:int -> 'msg -> verdict;
  mutable span : Obs.Trace.span option;  (** current attempt span *)
  pol : Policy.t;  (** policy captured at call start *)
  mutable timer : Core.timer;
      (** the pending attempt or retry timer — never both at once *)
  mutable hedge : Core.timer;  (** the pending hedge timer *)
}

type 'msg t = {
  name : string;
  self : int;  (** [name]'s node id *)
  sim : Core.t;
  net : 'msg Net.t;
  rid_of : 'msg -> int;
  mutable policy : Policy.t;
  cat : string;
  rng : Prng.t;
      (** jitter only — never the simulator's PRNG, so retry schedules
          cannot perturb loss/latency draws elsewhere *)
  mutable next_rid : int;
  pending : 'msg call Itbl.t;
  none : 'msg call;
      (** a closed call of a dead op, never pending: what a lookup of
          an unbound rid returns, and the end of every op's chain *)
  metrics : Obs.Metrics.t;
  labels : (string * string) list;
  m_retries : Obs.Metrics.counter;
  m_hedges : Obs.Metrics.counter;
  m_exhausted : Obs.Metrics.counter;
  m_op_timeouts : Obs.Metrics.counter;
  mutable batching : ('msg batching * Window.t) option;
      (** the hooks, and the controller whose window is the flush
          delay and which every flush feeds its peak per-destination
          batch size; a static window is a pinned controller *)
  mutable unbatch : ('msg -> 'msg list option) option;
      (** retained after batching is switched off, so batch replies
          still in flight keep unwrapping *)
  (* The batch send queue, reused across flushes: entry [i < q_len] is
     a message for node [q_dst.(i)].  A flush sends and vacates it. *)
  mutable q_dst : int array;
  mutable q_msg : 'msg array;
  mutable q_len : int;
  mutable q_spans : Obs.Trace.span list;
      (** the open [batchq] spans of queued sends, newest first — only
          sends under a trace context with tracing on have one; each
          measures its send's batch-window wait *)
  (* Flush scratch, indexed by node id: [mark.(d) = epoch] once this
     flush has met [d]; [count.(d)] is then [d]'s part count and
     [parts.(d)] its parts (built only for frames of two or more). *)
  mutable epoch : int;
  mutable mark : int array;
  mutable count : int array;
  mutable parts : 'msg list array;
  mutable firsts : int array;
      (** the queue index of each destination's first part, in
          first-appearance order *)
  mutable flush_timer : Core.timer;
      (** the armed flush, or [Core.no_timer] *)
  mutable meters : (Obs.Metrics.histogram * Obs.Metrics.gauge) option;
      (** [rpc.batch_size] and [rpc.window], registered together by
          the first enable — a never-batching engine registers no
          extra instruments *)
}

let check_policy p =
  match Policy.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg (Fmt.str "Rpc.Engine: invalid policy: %s" e)

let none () =
  let rec op =
    {
      o_live = false;
      o_started = 0.0;
      o_last = c;
      o_deadline = Core.no_timer;
      o_ctx = None;
    }
  and c =
    {
      rid = -1;
      c_op = op;
      c_prev = c;
      targets = { names = [||]; ids = [||] };
      first = 0;
      sent = 0;
      heard = 0;
      attempt = 0;
      closed = true;
      make = (fun _ -> invalid_arg "Rpc.Engine: the none call");
      on_reply = (fun ~member:_ ~heard:_ _ -> Done);
      span = None;
      pol = Policy.default;
      timer = Core.no_timer;
      hedge = Core.no_timer;
    }
  in
  c

let create ~name ~sim ~net ~rid_of ?(policy = Policy.default) ?(cat = "rpc")
    ?(seed = 1) ?metrics ?(extra_labels = []) () =
  check_policy policy;
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let labels = ("client", name) :: extra_labels in
  {
    name;
    self = Net.id net name;
    sim;
    net;
    rid_of;
    policy;
    cat;
    rng = Prng.create seed;
    next_rid = 0;
    pending = Itbl.create 16;
    none = none ();
    metrics;
    labels;
    m_retries = Obs.Metrics.counter metrics ~labels "rpc.retries";
    m_hedges = Obs.Metrics.counter metrics ~labels "rpc.hedges";
    m_exhausted = Obs.Metrics.counter metrics ~labels "rpc.exhausted";
    m_op_timeouts = Obs.Metrics.counter metrics ~labels "rpc.op_timeouts";
    batching = None;
    unbatch = None;
    q_dst = [||];
    q_msg = [||];
    q_len = 0;
    q_spans = [];
    epoch = 0;
    mark = [||];
    count = [||];
    parts = [||];
    firsts = [||];
    flush_timer = Core.no_timer;
    meters = None;
  }

let name t = t.name
let policy t = t.policy

let set_policy t p =
  check_policy p;
  t.policy <- p

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let pending_count t = Itbl.length t.pending
let tracer t = Core.tracer t.sim

(* ---------- batching ---------- *)

(* The filler of queue slots holding no message, which are never
   read.  It is an immediate, so [q_msg] is always an ordinary block
   array, never a flat float array, whatever ['msg] is; every access
   to it here is polymorphic, so a float message is stored boxed. *)
let vacant () : 'a = Obj.magic 0

let grow a n fill =
  let b = Array.make (max 16 (2 * n)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* make the per-node scratch cover node id [d] *)
let cover t d =
  if d >= Array.length t.mark then begin
    let n = d + 1 in
    t.mark <- grow t.mark n 0;
    t.count <- grow t.count n 0;
    t.parts <- grow t.parts n []
  end

let observe_size t n =
  match t.meters with
  | Some (h, _) -> Obs.Metrics.observe h (float_of_int n)
  | None -> ()

(* One frame per destination, destinations in order of first
   appearance, each frame's parts in enqueue order; a single part
   travels unwrapped.  Frame rids are drawn in that order. *)
let send_frames t b w n =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  if Array.length t.firsts < n then t.firsts <- grow t.firsts n 0;
  let ndst = ref 0 in
  for i = 0 to n - 1 do
    let d = t.q_dst.(i) in
    cover t d;
    if t.mark.(d) = epoch then t.count.(d) <- t.count.(d) + 1
    else begin
      t.mark.(d) <- epoch;
      t.count.(d) <- 1;
      t.firsts.(!ndst) <- i;
      incr ndst
    end
  done;
  (* back to front, so each part list comes out in enqueue order *)
  for i = n - 1 downto 0 do
    let d = t.q_dst.(i) in
    if t.count.(d) > 1 then t.parts.(d) <- t.q_msg.(i) :: t.parts.(d)
  done;
  let peak = ref 0 in
  for k = 0 to !ndst - 1 do
    let first = t.firsts.(k) in
    let dst = t.q_dst.(first) in
    let size = t.count.(dst) in
    if size > !peak then peak := size;
    observe_size t size;
    if size = 1 then Net.send_id t.net ~src:t.self ~dst t.q_msg.(first)
    else begin
      let ms = t.parts.(dst) in
      t.parts.(dst) <- [];
      let rid = fresh_rid t in
      let tr = tracer t in
      if Obs.Trace.enabled tr then
        Obs.Trace.instant tr ~cat:t.cat ~name:"batch" ~track:t.name
          ~args:
            [
              ("dst", Obs.Trace.Str (Net.name t.net dst));
              ("size", Obs.Trace.Int size);
              ("rid", Obs.Trace.Int rid);
            ]
          ();
      Net.send_id t.net ~src:t.self ~dst ~payloads:size (b.wrap ~rid ms)
    end
  done;
  (* close the loop: the peak per-destination batch size tells the
     controller whether the window is earning its queue delay *)
  Window.observe w ~peak:!peak;
  match t.meters with
  | Some (_, g) -> Obs.Metrics.set g (Window.window w)
  | None -> ()

let flush t =
  t.flush_timer <- Core.no_timer;
  let n = t.q_len in
  (* close every batch-queue-wait span at the flush instant, before
     any send — all queued messages leave now *)
  (match t.q_spans with
  | [] -> ()
  | spans ->
      t.q_spans <- [];
      let tr = tracer t in
      List.iter (fun sp -> Obs.Trace.end_span tr sp ()) (List.rev spans));
  (match t.batching with
  | None ->
      (* batching switched off with sends still queued: let them go
         out unwrapped, in enqueue order, rather than stranding them,
         each accounted as a single-message frame *)
      for i = 0 to n - 1 do
        observe_size t 1;
        Net.send_id t.net ~src:t.self ~dst:t.q_dst.(i) t.q_msg.(i)
      done
  | Some (b, w) -> if n > 0 then send_frames t b w n);
  (* the queue keeps no sent message reachable *)
  Array.fill t.q_msg 0 n (vacant ());
  t.q_len <- 0

(* Every outgoing request funnels through here: with batching off it
   is exactly the historical [Net.send]; with batching on the send is
   queued and the first enqueue arms one flush timer per window.  A
   trace context opens a [batchq] span per queued send — the
   batch-window wait the attribution layer charges to the op. *)
let dispatch t ?ctx ~dst msg =
  match t.batching with
  | None -> Net.send_id t.net ~src:t.self ~dst msg
  | Some (_, w) ->
      (match ctx with
      | Some cx when Obs.Trace.enabled (tracer t) ->
          t.q_spans <-
            Obs.Trace.begin_span (tracer t) ~cat:t.cat ~name:"batchq"
              ~track:t.name
              ~args:
                (("dst", Obs.Trace.Str (Net.name t.net dst))
                :: Obs.Ctx.args cx)
              ()
            :: t.q_spans
      | _ -> ());
      let i = t.q_len in
      if i = Array.length t.q_dst then begin
        t.q_dst <- grow t.q_dst (i + 1) 0;
        t.q_msg <- grow t.q_msg (i + 1) (vacant ())
      end;
      t.q_dst.(i) <- dst;
      t.q_msg.(i) <- msg;
      t.q_len <- i + 1;
      if i = 0 then
        t.flush_timer <-
          Core.timer t.sim ~delay:(Window.window w) (fun () -> flush t)

let batching t = t.batching

let set_batching t b =
  match b with
  | Some (bb, w) ->
      t.unbatch <- Some bb.unwrap;
      (* registering is idempotent: a re-enable gets the same pair *)
      let h =
        Obs.Metrics.histogram t.metrics ~labels:t.labels
          ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]
          "rpc.batch_size"
      in
      let g = Obs.Metrics.gauge t.metrics ~labels:t.labels "rpc.window" in
      Obs.Metrics.set g (Window.window w);
      t.meters <- Some (h, g);
      t.batching <- b
  | None ->
      t.batching <- None;
      (* a mid-flight disable must not strand queued sends until the
         armed timer fires: flush them now, unwrapped, and disarm the
         timer, which would otherwise flush a queue enabled later
         before that queue's own window ends *)
      if t.q_len > 0 then begin
        Core.cancel t.sim t.flush_timer;
        flush t
      end

(* Attempt spans exist to see retries and hedges; a fire-once call
   emits nothing, keeping default-policy traces byte-identical. *)
let instrumented (c : 'msg call) =
  c.pol.Policy.max_attempts > 1 || c.pol.Policy.hedge_delay <> None

(* the op's causal stamp, appended to the engine's own event args —
   empty (and allocation-free) without a context *)
let ctx_args (c : 'msg call) =
  match c.c_op.o_ctx with None -> [] | Some cx -> Obs.Ctx.args cx

let begin_attempt_span t (c : 'msg call) =
  let tr = tracer t in
  if instrumented c && Obs.Trace.enabled tr then
    c.span <-
      Some
        (Obs.Trace.begin_span tr ~cat:t.cat ~name:"attempt" ~track:t.name
           ~args:
             ([ ("rid", Obs.Trace.Int c.rid);
                ("attempt", Obs.Trace.Int c.attempt) ]
             @ ctx_args c)
           ())

let end_attempt_span t (c : 'msg call) ~outcome =
  match c.span with
  | None -> ()
  | Some span ->
      c.span <- None;
      Obs.Trace.end_span (tracer t) span
        ~args:[ ("outcome", Obs.Trace.Str outcome) ]
        ()

let close_call t (c : 'msg call) ~outcome =
  if not c.closed then begin
    c.closed <- true;
    Core.cancel t.sim c.timer;
    Core.cancel t.sim c.hedge;
    (* remove only our own binding: a caller may reuse the rid for a
       successor call registered before this one closes *)
    if Itbl.find_or t.pending c.rid t.none == c then
      Itbl.remove t.pending c.rid;
    end_attempt_span t c ~outcome
  end

(* ---------- operations ---------- *)

let start_op ?ctx t ~timeout ~on_timeout =
  let op =
    {
      o_live = true;
      o_started = Core.now t.sim;
      o_last = t.none;
      o_deadline = Core.no_timer;
      o_ctx = ctx;
    }
  in
  (* [finish_op] cancels the deadline, so it only fires on a live op *)
  op.o_deadline <-
    Core.timer t.sim ~delay:timeout (fun () ->
        Obs.Metrics.inc t.m_op_timeouts;
        on_timeout ());
  op

let op_live op = op.o_live
let op_started op = op.o_started

(* close [c] and the op's calls older than it, newest first *)
let rec abandon t c =
  if c != t.none then begin
    close_call t c ~outcome:"abandoned";
    abandon t c.c_prev
  end

let finish_op t op =
  if op.o_live then begin
    op.o_live <- false;
    Core.cancel t.sim op.o_deadline;
    abandon t op.o_last;
    op.o_last <- t.none
  end

(* ---------- calls ---------- *)

let call_live (c : 'msg call) = (not c.closed) && c.c_op.o_live

let max_group = Sys.int_size - 1

let group t names =
  let n = Array.length names in
  if n > max_group then
    invalid_arg
      (Printf.sprintf
         "Rpc.Engine.call: %d targets, more than a %d-bit mask holds" n
         max_group);
  { names; ids = Array.map (Net.id t.net) names }

let group_names g = g.names
let group_ids g = g.ids

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* Send to the members of [mask] not yet heard from, in ascending
   member order.  A message is immutable and [make] sees only the rid,
   so the wave shares one. *)
let send_to t (c : 'msg call) mask =
  let mask = mask land lnot c.heard in
  if mask <> 0 then begin
    let msg = c.make c.rid in
    let ids = c.targets.ids in
    for i = 0 to Array.length ids - 1 do
      if mask land (1 lsl i) <> 0 then
        dispatch t ?ctx:c.c_op.o_ctx ~dst:ids.(i) msg
    done
  end

let rec arm_attempt_timer t (c : 'msg call) =
  if c.pol.Policy.max_attempts > 1 then
    c.timer <-
      Core.timer t.sim ~delay:Policy.attempt_timeout (fun () ->
          if call_live c then
            if c.attempt >= c.pol.Policy.max_attempts then begin
              end_attempt_span t c ~outcome:"exhausted";
              Obs.Metrics.inc t.m_exhausted
            end
            else begin
              end_attempt_span t c ~outcome:"timeout";
              let next = c.attempt + 1 in
              let delay =
                Policy.retry_delay c.pol ~attempt:next ~u:(Prng.float t.rng)
              in
              c.timer <-
                Core.timer t.sim ~delay (fun () ->
                    if call_live c then begin
                      c.attempt <- next;
                      Obs.Metrics.inc t.m_retries;
                      begin_attempt_span t c;
                      (* the first wave before the hedge pool, as
                         they first went out *)
                      send_to t c c.first;
                      send_to t c (c.sent land lnot c.first);
                      arm_attempt_timer t c
                    end)
            end)

let arm_hedge_timer t (c : 'msg call) =
  let all = (1 lsl Array.length c.targets.ids) - 1 in
  match c.pol.Policy.hedge_delay with
  | Some d when c.sent <> all ->
      c.hedge <-
        Core.timer t.sim ~delay:d (fun () ->
            if call_live c then begin
              let rest = all land lnot c.sent in
              Obs.Metrics.inc t.m_hedges;
              let tr = tracer t in
              if Obs.Trace.enabled tr then
                Obs.Trace.instant tr ~cat:t.cat ~name:"hedge" ~track:t.name
                  ~args:
                    ([
                       ("rid", Obs.Trace.Int c.rid);
                       ("extra", Obs.Trace.Int (popcount rest));
                     ]
                    @ ctx_args c)
                  ();
              c.sent <- all;
              send_to t c rest
            end)
  | _ -> ()

let call t ~op ?rid ~targets ?first ~make ~on_reply () =
  let n = Array.length targets.ids in
  let rid = match rid with Some r -> r | None -> fresh_rid t in
  let all = (1 lsl n) - 1 in
  let first = match first with Some m -> m land all | None -> all in
  let c =
    {
      rid;
      c_op = op;
      c_prev = op.o_last;
      targets;
      first;
      sent = first;
      heard = 0;
      attempt = 1;
      closed = false;
      make;
      on_reply;
      span = None;
      pol = t.policy;
      timer = Core.no_timer;
      hedge = Core.no_timer;
    }
  in
  Itbl.replace t.pending rid c;
  op.o_last <- c;
  begin_attempt_span t c;
  send_to t c first;
  arm_attempt_timer t c;
  arm_hedge_timer t c;
  rid

(* ---------- reply dispatch ---------- *)

(* the node [src]'s index in the call's group, or [-1] for a
   non-member *)
let rec index_of ids src i =
  if i >= Array.length ids then -1
  else if ids.(i) = src then i
  else index_of ids src (i + 1)

let member_index (c : 'msg call) src = index_of c.targets.ids src 0

(* A reply whose rid is unbound finds [t.none], which is closed: it
   is stale, its call finished or superseded. *)
let handle_one t ~src msg =
  let c = Itbl.find_or t.pending (t.rid_of msg) t.none in
  if call_live c then begin
    let tr = tracer t in
    if Obs.Trace.enabled tr then
      Obs.Trace.instant tr ~cat:t.cat ~name:"reply" ~track:t.name
        ~args:
          ([
             ("rid", Obs.Trace.Int c.rid);
             ("from", Obs.Trace.Str (Net.name t.net src));
           ]
          @ ctx_args c)
        ();
    let i = member_index c src in
    if i >= 0 then begin
      let heard = c.heard in
      c.heard <- heard lor (1 lsl i);
      match c.on_reply ~member:i ~heard msg with
      | Continue -> ()
      | Done -> close_call t c ~outcome:"done"
    end
  end

(* Batch replies split into their per-key parts; each part dispatches
   against the pending table under its own original rid. *)
let rec handle_id t ~src msg =
  match t.unbatch with
  | Some unwrap -> (
      match unwrap msg with
      | Some parts -> handle_parts t ~src parts
      | None -> handle_one t ~src msg)
  | None -> handle_one t ~src msg

and handle_parts t ~src = function
  | [] -> ()
  | m :: rest ->
      handle_id t ~src m;
      handle_parts t ~src rest

let handle t ~src msg = handle_id t ~src:(Net.id t.net src) msg

let attach t =
  Net.register_id t.net ~node:t.self (fun ~src msg -> handle_id t ~src msg)
