(** The quorum client — the practical transaction manager.

    Operations follow Section 3.1's TM logic over RPC:
    - a {e read} queries replicas until the replies contain a read
      quorum, then returns the value with the highest version number;
    - a {e write} first queries until a read quorum has replied (to
      learn the current version number), then installs
      [(vn + 1, value)] until a write quorum has acknowledged.

    The request mechanics — rid allocation, the pending table, reply
    dispatch, the operation deadline, retries, backoff, hedging — live
    in {!Rpc.Engine}; this module supplies only the quorum protocol:
    what to send, which reply sets constitute a quorum, and what to do
    at a phase switch.  An operation that cannot assemble a quorum
    before the timeout fails — the availability metric of the
    experiments. *)

module Core = Sim.Core
module Net = Sim.Net
module Prng = Qc_util.Prng
module Engine = Rpc.Engine

(** How requests are routed:
    - [`Broadcast]: message every replica, complete on the fastest
      quorum of replies — latency-optimal (a quorum-wide hedge), but
      every operation costs 2n messages and loads every replica;
    - [`Quorum]: message one randomly chosen minimal quorum and wait
      for all of it — n/|q| fewer messages and tunable load (grid
      quorums spread it), at the cost of tail latency (slowest member
      of the chosen quorum) and availability (no fallback when a
      chosen member is down).  Under a hedging policy the unchosen
      replicas become the hedge pool, recovering broadcast's
      availability at near-quorum message cost. *)
type targeting = [ `Broadcast | `Quorum ]

type phase =
  | PRead
  | PWrite_query of int  (** the value waiting to be installed *)
  | PInstall

type pending = {
  key : string;
  strategy : Strategy.t;
      (** the strategy this operation was issued under.  Captured at
          [start_op] so a concurrent re-strategize cannot change the
          quorum predicate an in-flight op completes against — the
          per-operation half of the epoch fence (DESIGN.md §16) *)
  mutable phase : phase;
  mutable phase_started : float;
      (** when the current phase's requests went out — the baseline
          for per-replica reply-latency observations *)
  mutable rid : int;  (** current request id (changes at phase switch) *)
  mutable best_vn : int;
  mutable best_value : int;
  mutable replies : (int * int) list;
      (** (replica index, vn) seen — kept only under [read_repair] *)
  op : Protocol.msg Engine.op;  (** engine operation: liveness + overall deadline *)
  mutable span : Obs.Trace.span option;
      (** the operation's trace span, begun at [start_op] *)
  ctx : Obs.Ctx.t option;
      (** the operation's causal stamp, carried by every request frame
          it sends (only minted under [trace_ctx]) *)
  on_done : ok:bool -> vn:int -> value:int -> latency:float -> unit;
}

type t = {
  name : string;
  sim : Core.t;
  net : Protocol.msg Net.t;
  eng : Protocol.msg Engine.t;
  group : Engine.group;
      (** the replicas, resolved to node ids once for every engine call
          (the txn layer's too) *)
  mutable strategy : Strategy.t;
  mutable epoch : int;
      (** strategy generation — bumped by [set_strategy] so observers
          can tell which configuration an op was issued under *)
  mutable probe : Steer.t option;  (** steering signals, [None] = off *)
  timeout : float;
  read_repair : bool;
      (** when a read observes stale replicas among the replies, push
          the newest (version, value) back to them — asynchronous
          anti-entropy riding on the read path *)
  targeting : targeting;
  trace_ctx : bool;
      (** mint a causal trace context per operation and stamp it onto
          every frame — off by default, because stamped args change the
          trace byte stream *)
  shard : int option;  (** embedded in op ids so routed clients that
          share a name still mint unique ids *)
  mutable next_op : int;  (** per-client operation sequence number *)
  rng : Prng.t;  (** quorum choice in [`Quorum] mode *)
  own_vns : int Qc_util.Strtbl.t;
      (** highest version this client has ever issued per key.  A
          write that times out after installing at a minority leaves
          residue at its version; the next write's read quorum need
          not see uncommitted residue and would re-issue the same
          version with a different value.  Under the single-writer
          discipline the writer's own memory is authoritative, so
          taking [max quorum_vn own_vn + 1] keeps versions unique —
          the role Gifford's coordinator timestamps play. *)
  repairs_sent : Obs.Metrics.counter;
  ops_ok : Obs.Metrics.counter;
  ops_failed : Obs.Metrics.counter;
  read_latency : Obs.Metrics.histogram;
  write_latency : Obs.Metrics.histogram;
}

let tracer t = Core.tracer t.sim

let set_engine_batching eng cfg =
  Engine.set_batching eng
    (Option.map (fun c -> (Protocol.batching, Rpc.Window.create c)) cfg)

let create ~name ~sim ~net ~replicas ~strategy ?(timeout = 100.0)
    ?(read_repair = false) ?(targeting = `Broadcast) ?(trace_ctx = false)
    ?policy ?(seed = 1) ?metrics ?shard ?window () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let extra_labels =
    match shard with
    | Some s -> [ ("shard", string_of_int s) ]
    | None -> []
  in
  let labels = ("client", name) :: extra_labels in
  let repairs_sent =
    Obs.Metrics.counter metrics ~labels "store.client.repairs_sent"
  in
  let ops_ok = Obs.Metrics.counter metrics ~labels "store.client.ops_ok" in
  let ops_failed =
    Obs.Metrics.counter metrics ~labels "store.client.ops_failed"
  in
  let read_latency =
    Obs.Metrics.histogram metrics
      ~labels:(("op", "read") :: labels)
      "store.client.op_latency"
  in
  let write_latency =
    Obs.Metrics.histogram metrics
      ~labels:(("op", "write") :: labels)
      "store.client.op_latency"
  in
  let eng =
    Engine.create ~name ~sim ~net ~rid_of:Protocol.rid ?policy ~cat:"store"
      ~seed ~metrics ~extra_labels ()
  in
  set_engine_batching eng window;
  {
    name;
    sim;
    net;
    eng;
    group = Engine.group eng replicas;
    strategy;
    epoch = 0;
    probe = None;
    timeout;
    read_repair;
    targeting;
    trace_ctx;
    shard;
    next_op = 0;
    rng = Prng.create seed;
    own_vns = Qc_util.Strtbl.create 16;
    repairs_sent;
    ops_ok;
    ops_failed;
    read_latency;
    write_latency;
  }

let set_policy t p = Engine.set_policy t.eng p
let policy t = Engine.policy t.eng

(** Adopt a new strategy and bump the generation.  In-flight ops are
    unaffected: each pending op captured its strategy at issue. *)
let set_strategy t s =
  t.strategy <- s;
  t.epoch <- t.epoch + 1

let epoch t = t.epoch
let set_probe t pr = t.probe <- pr
let probe t = t.probe

let set_batching t cfg = set_engine_batching t.eng cfg
let batching t = Option.map snd (Engine.batching t.eng)

(* The first wave per the targeting mode: every replica (hedge pool
   empty), or one minimal quorum with the rest as the engine's hedge
   pool.  [strategy] is the issuing op's captured strategy, not
   [t.strategy] — see [pending.strategy]. *)
let first_wave t (strategy : Strategy.t) ~side =
  match t.targeting with
  | `Broadcast -> None
  | `Quorum ->
      (* a latency-greedy client prefers the smallest quorums (fewest
         replies to wait for), random among ties — this is what makes
         load concentration visible for weighted schemes, whose small
         quorums all contain the big-vote site *)
      let q = Strategy.quorums strategy side in
      let steered =
        (* queue-aware steering replaces the random pick on the read
           side only: reads are free to chase shallow queues, while
           writes keep spreading installs (and the rng stays untouched
           when a probe is absent, keeping default runs byte-equal) *)
        match (t.probe, side) with
        | Some pr, `Read when pr.Steer.steer ->
            Steer.best pr q.Strategy.minimal
        | _ -> None
      in
      match steered with
      | Some _ -> steered
      | None -> Some (Prng.choose t.rng q.Strategy.smallest)

(* Push the newest (version, value) to the stale replicas a read saw.
   Fire-and-forget: repairs carry a fresh rid no pending entry ever
   matches, so late acks are ignored. *)
let send_repairs t (p : pending) =
  List.iter
    (fun (i, vn) ->
      if vn < p.best_vn then begin
        Obs.Metrics.inc t.repairs_sent;
        let rid = Engine.fresh_rid t.eng in
        Net.send t.net ~src:t.name ~dst:(Engine.group_names t.group).(i)
          (Protocol.Install_req
             {
               rid;
               key = p.key;
               vn = p.best_vn;
               value = p.best_value;
               ctx = p.ctx;
             })
      end)
    p.replies

let finish t (p : pending) ~ok =
  if Engine.op_live p.op then begin
    Engine.finish_op t.eng p.op;
    Obs.Metrics.inc (if ok then t.ops_ok else t.ops_failed);
    let latency = Core.now t.sim -. Engine.op_started p.op in
    if ok then
      Obs.Metrics.observe
        (match p.phase with PRead -> t.read_latency | _ -> t.write_latency)
        latency;
    (match p.span with
    | Some span ->
        Obs.Trace.end_span (tracer t) span
          ~args:[ ("ok", Obs.Trace.Bool ok); ("vn", Obs.Trace.Int p.best_vn) ]
          ()
    | None -> ());
    if ok && t.read_repair && p.phase = PRead then send_repairs t p;
    p.on_done ~ok ~vn:p.best_vn ~value:p.best_value ~latency
  end

(* Feed one reply's latency into the shard's steering tracker.  Every
   counted reply teaches the EWMA, whether or not steering is on, so
   the optimizer's latency model has data before any switch. *)
let observe_latency t (p : pending) i =
  match t.probe with
  | None -> ()
  | Some pr ->
      Ewma.observe pr.Steer.ewma i (Core.now t.sim -. p.phase_started)

(* The quorum protocol itself: complete phases when the strategy says
   the replicas heard from (the engine's mask, plus this reply) form a
   quorum, and switch a write from query to install under a fresh rid.
   All quorum checks consult [p.strategy], the op's captured
   strategy. *)
let rec on_reply t (p : pending) ~member:i ~heard msg =
  let mask = heard lor (1 lsl i) in
  match msg with
  | Protocol.Query_rep { vn; value; key; _ } when String.equal key p.key -> (
      observe_latency t p i;
      (* the first reply from [i] this phase; a duplicate may still
         carry a newer version.  Only read repair reads the list. *)
      if t.read_repair && heard <> mask then p.replies <- (i, vn) :: p.replies;
      if vn > p.best_vn then begin
        p.best_vn <- vn;
        p.best_value <- value
      end;
      match p.phase with
      | PRead ->
          if p.strategy.Strategy.read_ok mask then begin
            finish t p ~ok:true;
            Engine.Done
          end
          else Engine.Continue
      | PWrite_query value ->
          if p.strategy.Strategy.read_ok mask then begin
            start_install t p ~value;
            Engine.Done
          end
          else Engine.Continue
      | PInstall -> Engine.Continue)
  | Protocol.Install_ack { key; _ } when String.equal key p.key -> (
      observe_latency t p i;
      match p.phase with
      | PInstall ->
          if p.strategy.Strategy.write_ok mask then begin
            finish t p ~ok:true;
            Engine.Done
          end
          else Engine.Continue
      | PRead | PWrite_query _ -> Engine.Continue)
  | _ -> Engine.Continue

(* Move a write from the query phase to the install phase: a new rid
   (a new engine call, so a fresh set heard), same pending record
   (latency spans both). *)
and start_install t (p : pending) ~value =
  let rid = Engine.fresh_rid t.eng in
  let tr = tracer t in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"store" ~name:"install_phase" ~track:t.name
      ~args:[ ("key", Obs.Trace.Str p.key); ("rid", Obs.Trace.Int rid) ]
      ();
  p.phase <- PInstall;
  p.phase_started <- Core.now t.sim;
  p.rid <- rid;
  let own = try Qc_util.Strtbl.find t.own_vns p.key with Not_found -> 0 in
  let vn = Int.max p.best_vn own + 1 in
  Qc_util.Strtbl.replace t.own_vns p.key vn;
  p.best_vn <- vn;
  p.best_value <- value;
  gather t p ~rid ~side:`Write (fun rid ->
      Protocol.Install_req { rid; key = p.key; vn; value; ctx = p.ctx })

and gather t (p : pending) ~rid ~side make =
  ignore
    (Engine.call t.eng ~op:p.op ~rid ~targets:t.group
       ?first:(first_wave t p.strategy ~side)
       ~make ~on_reply:(on_reply t p) ())

(** Attach the client's reply handler to the network. *)
let attach t = Engine.attach t.eng

(** Dispatch one incoming reply by hand — for the shard router, which
    owns the node's net handler and demultiplexes to shard clients. *)
let handle t ~src msg = Engine.handle t.eng ~src msg

let start_op t ~key ~phase ~on_done =
  let rid = Engine.fresh_rid t.eng in
  let tr = tracer t in
  (* mint the operation id before the root span so the span can carry
     it; the shard is embedded because routed clients share a name *)
  let op_id =
    if t.trace_ctx && Obs.Trace.enabled tr then begin
      let n = t.next_op in
      t.next_op <- n + 1;
      Some
        (match t.shard with
        | Some s -> Printf.sprintf "%s.s%d#%d" t.name s n
        | None -> Printf.sprintf "%s#%d" t.name n)
    end
    else None
  in
  let span =
    if Obs.Trace.enabled tr then
      let name =
        match phase with
        | PRead -> "read"
        | PWrite_query _ -> "write"
        | PInstall -> "install"
      in
      let args =
        [ ("key", Obs.Trace.Str key); ("rid", Obs.Trace.Int rid) ]
        @ (match op_id with
          | Some id ->
              ("op", Obs.Trace.Str id)
              :: (match t.shard with
                 | Some s -> [ ("shard", Obs.Trace.Int s) ]
                 | None -> [])
          | None -> [])
      in
      Some (Obs.Trace.begin_span tr ~cat:"store" ~name ~track:t.name ~args ())
    else None
  in
  let ctx =
    match (op_id, span) with
    | Some id, Some sp ->
        Some (Obs.Ctx.make ~op:id ~parent:(Obs.Trace.span_id sp))
    | _ -> None
  in
  let p_ref = ref None in
  let op =
    Engine.start_op ?ctx t.eng ~timeout:t.timeout ~on_timeout:(fun () ->
        match !p_ref with
        | None -> ()
        | Some p ->
            if Obs.Trace.enabled tr then
              Obs.Trace.instant tr ~cat:"store" ~name:"timeout" ~track:t.name
                ~args:
                  [ ("key", Obs.Trace.Str p.key); ("rid", Obs.Trace.Int p.rid) ]
                ();
            finish t p ~ok:false)
  in
  let p =
    {
      key;
      strategy = t.strategy;
      phase;
      phase_started = Core.now t.sim;
      rid;
      best_vn = 0;
      best_value = 0;
      replies = [];
      op;
      span;
      ctx;
      on_done;
    }
  in
  p_ref := Some p;
  p

(** Issue a logical read of [key]. *)
let read t ~key ~on_done =
  let p = start_op t ~key ~phase:PRead ~on_done in
  gather t p ~rid:p.rid ~side:`Read (fun rid ->
      Protocol.Query_req { rid; key; ctx = p.ctx })

(** Issue a logical write of [key := value]. *)
let write t ~key ~value ~on_done =
  let p = start_op t ~key ~phase:(PWrite_query value) ~on_done in
  gather t p ~rid:p.rid ~side:`Read (fun rid ->
      Protocol.Query_req { rid; key; ctx = p.ctx })

(** Install [(vn, value)] directly, skipping the version query — the
    data-migration step of reconfiguration, where the version number
    was discovered under the {e old} configuration and the data must
    be pushed to a write quorum of the {e new} one.  Always broadcast:
    migration wants every reachable replica current. *)
let install t ~key ~vn ~value ~on_done =
  let p = start_op t ~key ~phase:PInstall ~on_done in
  p.best_vn <- vn;
  p.best_value <- value;
  ignore
    (Engine.call t.eng ~op:p.op ~rid:p.rid ~targets:t.group
       ~make:(fun rid -> Protocol.Install_req { rid; key; vn; value; ctx = p.ctx })
       ~on_reply:(on_reply t p) ())
