(** A replica server: the data manager of the practical store.  It
    keeps, per key, a (version-number, value) pair — exactly the DM
    state of Section 3.1 — and answers queries and installs.  An
    install only overwrites when the incoming version number is at
    least the stored one, making retransmissions and stale
    retries harmless.  The pair lives in one mutable cell per key,
    beside the key's transaction lock, so a message touching a key
    looks it up once.

    Work is counted through [Obs.Metrics] counters labelled with the
    replica name — pass a shared registry to [create] to aggregate a
    whole cluster in one place — and each query/install handled is
    logged to the network's tracer.  A batch frame is answered with a
    single batch reply carrying the answers to each wrapped request in
    order; the per-request counters and trace instants fire exactly as
    if the requests had arrived separately.

    {2 The apply pipeline}

    Without a {!Sim.Storage} device (the default) every request is
    answered synchronously, byte-identically to the historical
    replica.  With one, installs flow through an apply queue: pending
    installs are dequeued in groups, applied to the store in version
    order, and the whole group is acknowledged after {e one} amortized
    fsync — the group-commit discipline.  Queries keep answering from
    applied state immediately; installs ack only after durability.
    Quorum intersection is untouched: an install ack still means the
    replica holds (at least) that version durably, so any write quorum
    of acks certifies the version exactly as before — the pipeline
    delays acks, it never weakens what an ack asserts.  Setting
    [group_commit] to false degrades the queue to one install (and one
    fsync) per drain — the naive-fsync baseline of the io ablation. *)

module Strtbl = Qc_util.Strtbl
module Txid = Qc_util.Txid

(** One key's state: its name, the DM pair, and the id of the txid
    holding the key's lock ([-1] when free; ids are never negative).
    A key's cell, once made, stays in the table for the replica's
    life, so a prepared entry may hold it.

    The lock discipline is this signature.  Outside [Cell] the fields
    are read-only, so a lock is taken only by [lock_all], over a
    [footprint]; and only [footprint] makes one (a [t list] does not
    coerce to it), in key order without duplicates.  Every multi-key
    acquisition thus walks one global key order, which keeps the
    prepare's two-phase locking deadlock-free.  Any new lock must go
    through here. *)
module Cell : sig
  type t = private {
    key : string;
    mutable vn : int;
    mutable value : int;
    mutable lock : int;
  }

  type footprint = private t list

  val fresh : t
  (** the state every key starts in; never mutated, never in a table *)

  val get : t Strtbl.t -> string -> t
  (** the key's cell, made on first use *)

  val install : t -> vn:int -> value:int -> unit
  (** overwrite the pair when [vn] is at least the stored one *)

  val footprint :
    t Strtbl.t -> (string * int) list -> string list -> footprint
  (** the cells of the write keys, then of the read keys, sorted by
      key and without duplicates *)

  val lock_all : int -> footprint -> (string * int * int) list
  (** lock every cell for the txid id, in order, and snapshot them as
      a yes-vote's (key, vn, value) list *)

  val unlock : int -> footprint -> unit
  (** release the cells' locks the txid id holds *)
end = struct
  type t = {
    key : string;
    mutable vn : int;
    mutable value : int;
    mutable lock : int;
  }

  type footprint = t list

  let fresh = { key = ""; vn = 0; value = 0; lock = -1 }

  let get data key =
    try Strtbl.find data key
    with Not_found ->
      let c = { key; vn = 0; value = 0; lock = -1 } in
      Strtbl.add data key c;
      c

  let install c ~vn ~value =
    if vn >= c.vn then begin
      c.vn <- vn;
      c.value <- value
    end

  (* [c] in its place among the key-sorted, duplicate-free [cells] *)
  let rec insert c = function
    | [] -> [ c ]
    | c' :: rest as cells ->
        if c == c' then cells
        else if String.compare c.key c'.key < 0 then c :: cells
        else c' :: insert c rest

  (* Each cell is inserted into the key-sorted, duplicate-free [acc]:
     the canonical order [List.sort_uniq] would give, built without
     the comparator closures a sort allocates per call. *)
  let rec build data acc writes reads =
    match writes with
    | (k, _) :: rest -> build data (insert (get data k) acc) rest reads
    | [] -> (
        match reads with
        | k :: rest -> build data (insert (get data k) acc) [] rest
        | [] -> acc)

  let footprint data writes reads = build data [] writes reads

  let rec lock_all id = function
    | [] -> []
    | c :: rest ->
        c.lock <- id;
        (c.key, c.vn, c.value) :: lock_all id rest

  let rec unlock id = function
    | [] -> ()
    | c :: rest ->
        if c.lock = id then c.lock <- -1;
        unlock id rest
end

type cell = Cell.t

type pending = {
  p_vn : int;
  p_key : string;
  p_value : int;
  p_rid : int;
  p_reply : Protocol.msg -> unit;
      (** where the install ack goes, once its group is durable *)
  p_ctx : Obs.Ctx.t option;  (** the originating operation's stamp *)
  p_qspan : Obs.Trace.span option;
      (** the [replica.queue] wait span, begun at enqueue and ended
          when the install's group leaves the queue *)
}

(** Recovery-leader state for one in-doubt transaction: a Paxos round
    at ballot [l_bal] on the transaction's decision register. *)
type rec_lead = {
  l_bal : int;
  mutable l_phase : [ `One | `Two ];
  mutable l_tally : Register.tally;  (** acceptors heard in this phase *)
  mutable l_best : Register.accepted option;
      (** highest accepted value reported in phase 1 *)
  mutable l_live : bool;  (** false once nacked or done *)
}

(** A prepared (in-doubt) transaction: the shard-local write set and
    locked footprint of a yes-vote, held until the decision.  With the
    txid's open register it is the transaction's live record here; the
    decision drops both. *)
type prepared = {
  e_txid : Txid.t;  (** as the prepare carried it *)
  e_writes : (string * int) list;  (** this shard's (key, value) writes *)
  e_cells : Cell.footprint;  (** the locked footprint's cells *)
  e_kvs : (string * int * int) list;
      (** the (key, vn, value) snapshot the yes-vote carried *)
  e_acceptors : string list;
      (** the decision register's acceptor set (all participant
          replicas, canonical order) *)
  e_index : int;  (** this replica's index in [e_acceptors] *)
  mutable e_attempt : int;  (** recovery attempts launched so far *)
  mutable e_timer : Sim.Core.timer;
      (** the armed recovery timer, cancelled when the entry resolves *)
  mutable e_lead : rec_lead option;
      (** the recovery round led here; it ends with the entry *)
}

(* the filler of the in-doubt array's free slots, so that no resolved
   entry is kept alive by the slot it left *)
let no_entry =
  {
    e_txid = { Txid.id = -1; name = "" };
    e_writes = [];
    e_cells = Cell.footprint (Strtbl.create 1) [] [];
    e_kvs = [];
    e_acceptors = [];
    e_index = -1;
    e_attempt = 0;
    e_timer = Sim.Core.no_timer;
    e_lead = None;
  }

type t = {
  name : string;
  data : cell Strtbl.t;  (** key -> its (vn, value) and lock *)
  queries : Obs.Metrics.counter;
  installs : Obs.Metrics.counter;
  storage : Sim.Storage.t option;
      (** the replica's disk; [None] = free, synchronous installs *)
  group_commit : bool;  (** drain whole groups vs one install at a time *)
  mutable queue : pending list;
      (** installs awaiting apply + fsync, newest first *)
  mutable ready : pending list;
      (** without group commit: installs taken off [queue], oldest
          first, each waiting to be drained alone *)
  mutable queued : int;  (** the length of [queue] and [ready] together *)
  mutable draining : bool;  (** a group is at the device right now *)
  m_fsyncs : Obs.Metrics.counter option;  (** [replica.fsync] *)
  m_queue_depth : Obs.Metrics.histogram option;  (** [replica.queue_depth] *)
  (* ---- cross-shard transaction state ---- *)
  txns : Register.table;
      (** txid id -> its register: open while undecided, then the
          decision alone *)
  mutable doubt : prepared array;
  mutable n_doubt : int;
      (** [doubt.(0 .. n_doubt-1)]: the prepared entries, unordered *)
  txn_recovery_delay : float;
  mutable txn_sim : Sim.Core.t option;  (** set at attach; recovery timers *)
  mutable txn_send : dst:string -> Protocol.msg -> unit;
      (** recovery-initiated sends; a no-op until attach *)
  mutable on_decided :
    (txid:Txid.t -> commit:bool -> writes:(string * int * int) list -> unit)
    option;
      (** fired once per transaction on the first locally learned
          decision — the audit's authoritative commit log *)
}

let create ?metrics ?(extra_labels = []) ?storage ?(group_commit = true)
    ?(txn_recovery_delay = 150.0) ~name () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let labels = ("replica", name) :: extra_labels in
  (* pipeline instruments only exist on pipelined replicas, so default
     configurations register nothing new and dump byte-identically *)
  let m_fsyncs, m_queue_depth =
    match storage with
    | None -> (None, None)
    | Some _ ->
        ( Some (Obs.Metrics.counter metrics ~labels "replica.fsync"),
          Some
            (Obs.Metrics.histogram metrics ~labels
               ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]
               "replica.queue_depth") )
  in
  {
    name;
    data = Strtbl.create 64;
    queries = Obs.Metrics.counter metrics ~labels "store.replica.queries";
    installs = Obs.Metrics.counter metrics ~labels "store.replica.installs";
    storage;
    group_commit;
    queue = [];
    ready = [];
    queued = 0;
    draining = false;
    m_fsyncs;
    m_queue_depth;
    txns = Register.table ();
    doubt = [||];
    n_doubt = 0;
    txn_recovery_delay;
    txn_sim = None;
    txn_send = (fun ~dst:_ _ -> ());
    on_decided = None;
  }

(* the key's cell, or [Cell.fresh] if it has none — for reading only *)
let find t key = try Strtbl.find t.data key with Not_found -> Cell.fresh

let lookup t key =
  let c = find t key in
  (c.vn, c.value)

(* every cell, sorted by key *)
let cells t =
  (* lint: order-insensitive *)
  Strtbl.fold (fun _ c acc -> c :: acc) t.data []
  |> List.sort (fun (a : cell) b -> String.compare a.key b.key)

(* A cell holds a value once an install moved it off the initial
   (0, 0); a cell made only to hold a lock does not. *)
let bindings t =
  List.filter_map
    (fun (c : cell) ->
      if c.vn = 0 && c.value = 0 then None else Some (c.key, c.vn, c.value))
    (cells t)

(** Queries + installs handled — the "load" dimension quorum targeting
    tunes. *)
let load t = Obs.Metrics.value t.queries + Obs.Metrics.value t.installs

let fsyncs t =
  match t.storage with Some st -> Sim.Storage.fsyncs st | None -> 0

let queue_depth t = t.queued

let apply t ~vn ~key ~value = Cell.install (Cell.get t.data key) ~vn ~value

(* ---------- cross-shard transactions ---------- *)

let set_on_decided t f = t.on_decided <- Some f

(* The in-doubt index: an entry joins at its yes-vote and leaves at
   resolve, swapped out by the last one.  It holds only the
   transactions prepared here right now, so a scan for a txid is
   short, and nothing is allocated per transaction beyond the
   occasional doubling. *)
let doubt_add t e =
  if t.n_doubt = Array.length t.doubt then begin
    let a = Array.make (Int.max 8 (2 * t.n_doubt)) no_entry in
    Array.blit t.doubt 0 a 0 t.n_doubt;
    t.doubt <- a
  end;
  t.doubt.(t.n_doubt) <- e;
  t.n_doubt <- t.n_doubt + 1

(* the slot of txid [id]'s prepared entry from [i] on; [-1] if it is
   not in doubt here *)
let rec doubt_index t id i =
  if i >= t.n_doubt then -1
  else if t.doubt.(i).e_txid.id = id then i
  else doubt_index t id (i + 1)

let doubt_remove t i =
  t.n_doubt <- t.n_doubt - 1;
  t.doubt.(i) <- t.doubt.(t.n_doubt);
  t.doubt.(t.n_doubt) <- no_entry

let in_doubt t =
  List.init t.n_doubt (fun i -> t.doubt.(i).e_txid.name)
  |> List.sort String.compare

(* a lock's holder is prepared here *)
let locked_keys t =
  List.filter_map
    (fun (c : cell) ->
      if c.lock < 0 then None
      else Some (c.key, t.doubt.(doubt_index t c.lock 0).e_txid.name))
    (cells t)

(* the sim tracer, when the replica is attached — recovery runs on
   timers, outside [serve]'s tracer argument *)
let txn_tracer t =
  match t.txn_sim with
  | Some sim when Obs.Trace.enabled (Sim.Core.tracer sim) ->
      Some (Sim.Core.tracer sim)
  | _ -> None

let txn_trace tr t ~name ~(txid : Txid.t) ~extra =
  Obs.Trace.instant tr ~cat:"store" ~name ~track:t.name
    ~args:(("txid", Obs.Trace.Str txid.name) :: extra)
    ()

(* does a transaction other than [id] hold a lock in the footprint? *)
let rec conflicts id = function
  | [] -> false
  | (c : cell) :: rest -> (c.lock >= 0 && c.lock <> id) || conflicts id rest

(* the cell of [k] in a prepared footprint that holds it *)
let rec cell_of k = function
  | (c : cell) :: rest -> if String.equal k c.key then c else cell_of k rest
  | [] -> raise Not_found

(* Install each of this shard's write keys at its version in the
   whole decided write set [writes]. *)
let rec install_writes t cells writes = function
  | [] -> ()
  | (k, _) :: rest ->
      install_decided t cells k writes;
      install_writes t cells writes rest

and install_decided t cells k = function
  | [] -> ()
  | (k', vn, value) :: rest ->
      if String.equal k k' then begin
        Obs.Metrics.inc t.installs;
        Cell.install (cell_of k cells) ~vn ~value
      end
      else install_decided t cells k rest

(* Learn (idempotently) the transaction's decision: record it, fire
   the decision hook once, and if the transaction is prepared here,
   install this shard's writes at their decided versions on commit,
   release the footprint locks and cancel the recovery timer.
   Returns whether a prepared entry was resolved — commit quorums
   count only such acks, because only they certify an install. *)
let learn t (txid : Txid.t) d =
  (if Register.decide t.txns txid.id d then
     match t.on_decided with
     | Some f ->
         f ~txid ~commit:(Register.commit d) ~writes:(Register.writes d)
     | None -> ());
  let i = doubt_index t txid.id 0 in
  if i < 0 then false
  else begin
    let e = t.doubt.(i) in
    if Register.commit d then
      install_writes t (e.e_cells :> cell list) (Register.writes d) e.e_writes;
    Cell.unlock txid.id e.e_cells;
    doubt_remove t i;
    (match t.txn_sim with
    | Some sim -> Sim.Core.cancel sim e.e_timer
    | None -> ());
    true
  end

(* Apply the decision locally (releasing our locks) and tell every
   other participant — the learn broadcast after a chosen value. *)
let broadcast_decision t e d =
  (match txn_tracer t with
  | Some tr ->
      txn_trace tr t ~name:"txn.decide" ~txid:e.e_txid
        ~extra:
          [ ("commit", Obs.Trace.Str (string_of_bool (Register.commit d))) ]
  | None -> ());
  ignore (learn t e.e_txid d : bool);
  Register.send_all e.e_acceptors ~except:t.name t.txn_send
    (Protocol.Txn_decide { rid = 0; txid = e.e_txid; decision = d })

(* The recovery round led here for the prepared entry [e], in the
   phase [phase] and at ballot [bal], if it is still live. *)
let leading e ~bal ~phase =
  match e.e_lead with
  | Some lead as l
    when lead.l_live && lead.l_bal = bal && lead.l_phase = phase ->
      l
  | _ -> None

(* count [src] in the round's tally; [true] if it is a new acceptor *)
let hear lead e ~src =
  Register.hear lead.l_tally (Register.index e.e_acceptors src)

(* Phase-2b bookkeeping of a recovery round this replica leads: a
   majority of the register's acceptors accepting the proposal makes
   it chosen — broadcast it. *)
let lead_on_p2b t e ~src ~bal ~ok =
  match leading e ~bal ~phase:`Two with
  | None -> ()
  | Some lead when not ok -> lead.l_live <- false
  | Some lead ->
      ignore (hear lead e ~src : bool);
      if Register.complete lead.l_tally then begin
        lead.l_live <- false;
        let commit, writes = Register.proposal lead.l_best in
        broadcast_decision t e (Register.decision ~commit ~writes)
      end

(* Phase-1b bookkeeping: on a majority of promises, accept the
   register's proposal here and ask every other acceptor to. *)
let lead_on_p1b t e ~src ~bal ~ok ~accepted =
  match leading e ~bal ~phase:`One with
  | None -> ()
  | Some lead when not ok -> lead.l_live <- false
  | Some lead ->
      if hear lead e ~src then
        lead.l_best <- Register.higher lead.l_best accepted;
      if Register.complete lead.l_tally then begin
        lead.l_phase <- `Two;
        lead.l_tally <- Register.tally (List.length e.e_acceptors);
        let commit, writes = Register.proposal lead.l_best in
        (match Register.accept t.txns e.e_txid.id ~bal ~commit ~writes with
        | `Decided d ->
            lead.l_live <- false;
            broadcast_decision t e d
        | `P2b self_ok -> lead_on_p2b t e ~src:t.name ~bal ~ok:self_ok);
        if lead.l_live then
          Register.send_all e.e_acceptors ~except:t.name t.txn_send
            (Protocol.Txn_p2a
               { rid = 0; txid = e.e_txid; bal; commit; writes })
      end

(* One recovery attempt: a fresh ballot unique to (attempt, this
   leader), phase 1 to every acceptor (self first, synchronously). *)
let start_recovery t e =
  let n = List.length e.e_acceptors in
  let bal =
    Register.ballot ~attempt:e.e_attempt ~acceptors:n ~index:e.e_index
  in
  (match txn_tracer t with
  | Some tr ->
      txn_trace tr t ~name:"txn.recover" ~txid:e.e_txid
        ~extra:[ ("bal", Obs.Trace.Int bal) ]
  | None -> ());
  let lead =
    {
      l_bal = bal;
      l_phase = `One;
      l_tally = Register.tally n;
      l_best = None;
      l_live = true;
    }
  in
  e.e_lead <- Some lead;
  (match Register.promise t.txns e.e_txid.id ~bal with
  | `Decided d ->
      lead.l_live <- false;
      broadcast_decision t e d
  | `P1b (ok, accepted) -> lead_on_p1b t e ~src:t.name ~bal ~ok ~accepted);
  if lead.l_live then
    Register.send_all e.e_acceptors ~except:t.name t.txn_send
      (Protocol.Txn_p1a { rid = 0; txid = e.e_txid; bal })

(* Arm (and re-arm) the recovery timer of an in-doubt transaction:
   exponentially spaced, staggered by the replica's acceptor index so
   concurrent leaders rarely duel, bounded attempts so the event queue
   always drains.  [ldexp 1.0 a] is [2.0 ** float a], bit for bit. *)
let txn_recovery_attempts = 8

let rec arm_recovery t sim e =
  let delay =
    t.txn_recovery_delay
    *. (1.0 +. (0.25 *. float_of_int e.e_index))
    *. Float.ldexp 1.0 e.e_attempt
  in
  (* resolving the entry cancels the timer, so it only fires while the
     transaction is in doubt here; a round that resolved it at once
     arms no further one *)
  e.e_timer <-
    Sim.Core.timer sim ~delay (fun () ->
        if e.e_attempt < txn_recovery_attempts then begin
          e.e_attempt <- e.e_attempt + 1;
          start_recovery t e;
          if doubt_index t e.e_txid.id 0 >= 0 then arm_recovery t sim e
        end)

(* The next group off the apply queue, in arrival order: the whole
   queue under group commit, its oldest install otherwise. *)
let take_group t =
  if t.group_commit then begin
    let g = List.rev t.queue in
    t.queue <- [];
    t.queued <- 0;
    g
  end
  else begin
    (match t.ready with
    | [] ->
        t.ready <- List.rev t.queue;
        t.queue <- []
    | _ :: _ -> ());
    match t.ready with
    | p :: rest ->
        t.ready <- rest;
        t.queued <- t.queued - 1;
        [ p ]
    | [] -> []
  end

let rec sorted_by_vn = function
  | a :: (b :: _ as rest) -> a.p_vn <= b.p_vn && sorted_by_vn rest
  | _ -> true

(* Within a group the store must step through versions monotonically
   per key, whatever order the installs arrived in: apply in version
   order, ties in arrival order. *)
let rec apply_group t = function
  | [] -> ()
  | p :: rest ->
      apply t ~vn:p.p_vn ~key:p.p_key ~value:p.p_value;
      apply_group t rest

let by_vn group =
  if sorted_by_vn group then group
  else List.stable_sort (fun a b -> Int.compare a.p_vn b.p_vn) group

(* ack in arrival order *)
let rec ack_group = function
  | [] -> ()
  | p :: rest ->
      p.p_reply (Protocol.Install_ack { rid = p.p_rid; key = p.p_key });
      ack_group rest

let rec end_queue_spans tr = function
  | [] -> ()
  | { p_qspan = Some sp; _ } :: rest ->
      Obs.Trace.end_span tr sp ();
      end_queue_spans tr rest
  | { p_qspan = None; _ } :: rest -> end_queue_spans tr rest

(* Drain the apply queue through the storage device: take a group
   (the whole queue under group commit, one install otherwise), apply
   it in version order, fsync once, then ack every member — and go
   again if more arrived meanwhile.  [draining] keeps one group at the
   device at a time; installs landing mid-drain wait for the next
   group, which is exactly where the amortization comes from. *)
let rec drain t ~(tr : Obs.Trace.t) =
  match t.storage with
  | None -> ()
  | Some st ->
      if (not t.draining) && t.queued > 0 then begin
        t.draining <- true;
        let size = if t.group_commit then t.queued else 1 in
        let group = take_group t in
        (match t.m_queue_depth with
        | Some h -> Obs.Metrics.observe h (float_of_int size)
        | None -> ());
        (* the group leaves the queue now: close its wait spans *)
        end_queue_spans tr group;
        let acked () =
          (match t.m_fsyncs with Some c -> Obs.Metrics.inc c | None -> ());
          ack_group group;
          t.draining <- false;
          drain t ~tr
        in
        if Obs.Trace.enabled tr then drain_traced t st ~tr group ~size ~acked
        else
          Sim.Storage.submit st ~writes:size (fun () ->
              apply_group t (by_vn group);
              Sim.Storage.fsync st acked)
      end

(* [drain]'s device round with tracing on: one apply and one fsync
   span per stamped member — the group shares the device round, but
   each operation's causal tree needs its own interval *)
and drain_traced t st ~tr group ~size ~acked =
  let stamped =
    List.filter_map (fun p -> Option.map (fun cx -> (p, cx)) p.p_ctx) group
  in
  let span_for name (_, cx) =
    Obs.Trace.begin_span tr ~cat:"store" ~name ~track:t.name
      ~args:(Obs.Ctx.args cx) ()
  in
  let apply_spans = List.map (span_for "replica.apply") stamped in
  Sim.Storage.submit st ~writes:size (fun () ->
      apply_group t (by_vn group);
      List.iter (fun sp -> Obs.Trace.end_span tr sp ()) apply_spans;
      let fsync_spans = List.map (span_for "replica.fsync") stamped in
      Sim.Storage.fsync st (fun () ->
          List.iter (fun sp -> Obs.Trace.end_span tr sp ()) fsync_spans;
          acked ()))

(* a request's causal stamp, appended to the replica's instant args —
   empty (and allocation-free) for unstamped frames *)
let ctx_args = function None -> [] | Some cx -> Obs.Ctx.args cx

(* Answer a version query from applied state. *)
let query t ~tr ~rid ~key ~ctx =
  Obs.Metrics.inc t.queries;
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"store" ~name:"query" ~track:t.name
      ~args:
        ([ ("key", Obs.Trace.Str key); ("rid", Obs.Trace.Int rid) ]
        @ ctx_args ctx)
      ();
  let c = find t key in
  Protocol.Query_rep { rid; key; vn = c.vn; value = c.value }

(* A batch frame being answered: one reply slot per part, in frame
   order.  The frame answers once every part that will reply has
   (pipelined installs make that asynchronous — the batch reply then
   carries the whole group's acks after their shared fsync).  A slot
   still holding the frame itself — never a reply — earned none. *)
type frame = {
  f_msg : Protocol.msg;
  f_rid : int;
  f_reply : Protocol.msg -> unit;
  f_slots : Protocol.msg array;
  mutable f_waiting : int;  (** parts yet to answer *)
}

let part_done fr =
  fr.f_waiting <- fr.f_waiting - 1;
  if fr.f_waiting = 0 then begin
    let reps = ref [] in
    for i = Array.length fr.f_slots - 1 downto 0 do
      let rep = fr.f_slots.(i) in
      if rep != fr.f_msg then reps := rep :: !reps
    done;
    fr.f_reply (Protocol.Batch_rep { rid = fr.f_rid; reps = !reps })
  end

let part_reply fr i rep =
  fr.f_slots.(i) <- rep;
  part_done fr

let no_reply (_ : Protocol.msg) = ()

(* Answer one request, delivering each reply through [reply] — possibly
   asynchronously (a pipelined install acks after its group's fsync; a
   batch frame replies when its last part has).  Non-requests get no
   reply.  [src] identifies the sender — recovery-leader bookkeeping
   (phase-1b/2b quorum counting) needs it; request handling does not.
   The warning attribute turns a wildcard arm or a missing frame, here
   and in [serve_parts], into a compile error (see [Protocol.msg]). *)
let[@warning "@4@8"] rec serve t ?(src = "") ~(tr : Obs.Trace.t) ~reply
    msg =
  match msg with
  | Protocol.Query_req { rid; key; ctx } -> reply (query t ~tr ~rid ~key ~ctx)
  | Protocol.Install_req { rid; key; vn; value; ctx } -> (
      Obs.Metrics.inc t.installs;
      if Obs.Trace.enabled tr then
        Obs.Trace.instant tr ~cat:"store" ~name:"install" ~track:t.name
          ~args:
            ([
               ("key", Obs.Trace.Str key);
               ("rid", Obs.Trace.Int rid);
               ("vn", Obs.Trace.Int vn);
             ]
            @ ctx_args ctx)
          ();
      match t.storage with
      | None ->
          (* the historical synchronous path: apply and ack in place *)
          apply t ~vn ~key ~value;
          reply (Protocol.Install_ack { rid; key })
      | Some _ ->
          let qspan =
            match ctx with
            | Some cx when Obs.Trace.enabled tr ->
                Some
                  (Obs.Trace.begin_span tr ~cat:"store" ~name:"replica.queue"
                     ~track:t.name ~args:(Obs.Ctx.args cx) ())
            | _ -> None
          in
          t.queue <-
            {
              p_vn = vn;
              p_key = key;
              p_value = value;
              p_rid = rid;
              p_reply = reply;
              p_ctx = ctx;
              p_qspan = qspan;
            }
            :: t.queue;
          t.queued <- t.queued + 1;
          drain t ~tr)
  | Protocol.Batch_req { rid; reqs } ->
      if Obs.Trace.enabled tr then
        Obs.Trace.instant tr ~cat:"store" ~name:"batch" ~track:t.name
          ~args:
            [
              ("rid", Obs.Trace.Int rid);
              ("size", Obs.Trace.Int (List.length reqs));
            ]
          ();
      let n = List.length reqs in
      if n = 0 then reply (Protocol.Batch_rep { rid; reps = [] })
      else
        serve_parts t ~src ~tr
          {
            f_msg = msg;
            f_rid = rid;
            f_reply = reply;
            f_slots = Array.make n msg;
            f_waiting = n;
          }
          0 reqs
  | Protocol.Txn_prepare { rid; txid; writes; reads; acceptors; paxos } -> (
      if Obs.Trace.enabled tr then
        Obs.Trace.instant tr ~cat:"store" ~name:"txn.prepare" ~track:t.name
          ~args:
            [ ("txid", Obs.Trace.Str txid.name); ("rid", Obs.Trace.Int rid) ]
          ();
      match Register.prepare t.txns txid.id with
      | Some decision ->
          (* already resolved (a recovery finished before this
             retransmission): answer with the decision *)
          reply (Protocol.Txn_decide { rid; txid; decision })
      | None ->
          let i = doubt_index t txid.id 0 in
          if i >= 0 then
            (* duplicate prepare: re-send the identical vote *)
            reply
              (Protocol.Txn_vote
                 { rid; txid; yes = true; kvs = t.doubt.(i).e_kvs })
          else
            (* two-phase locking over the key-ordered footprint:
               [Cell]'s signature makes that the only way to lock *)
            let cells = Cell.footprint t.data writes reads in
            if conflicts txid.id (cells :> cell list) then
              reply (Protocol.Txn_vote { rid; txid; yes = false; kvs = [] })
            else begin
              let kvs = Cell.lock_all txid.id cells in
              let e =
                {
                  e_txid = txid;
                  e_writes = writes;
                  e_cells = cells;
                  e_kvs = kvs;
                  e_acceptors = acceptors;
                  e_index = Register.index acceptors t.name;
                  e_attempt = 0;
                  e_timer = Sim.Core.no_timer;
                  e_lead = None;
                }
              in
              doubt_add t e;
              (match t.txn_sim with
              | Some sim when paxos -> arm_recovery t sim e
              | _ -> ());
              reply (Protocol.Txn_vote { rid; txid; yes = true; kvs })
            end)
  | Protocol.Txn_decide { rid; txid; decision } ->
      if Obs.Trace.enabled tr then
        Obs.Trace.instant tr ~cat:"store" ~name:"txn.decide" ~track:t.name
          ~args:
            [
              ("txid", Obs.Trace.Str txid.name);
              ( "commit",
                Obs.Trace.Str (string_of_bool (Register.commit decision)) );
            ]
          ();
      let applied = learn t txid decision in
      reply (Protocol.Txn_decide_ack { rid; txid; applied })
  | Protocol.Txn_p1a { rid; txid; bal } -> (
      match Register.promise t.txns txid.id ~bal with
      | `Decided decision -> reply (Protocol.Txn_decide { rid; txid; decision })
      | `P1b (ok, accepted) ->
          reply (Protocol.Txn_p1b { rid; txid; bal; ok; accepted }))
  | Protocol.Txn_p2a { rid; txid; bal; commit; writes } -> (
      match Register.accept t.txns txid.id ~bal ~commit ~writes with
      | `Decided decision -> reply (Protocol.Txn_decide { rid; txid; decision })
      | `P2b ok -> reply (Protocol.Txn_p2b { rid; txid; bal; ok }))
  | Protocol.Txn_p1b { txid; bal; ok; accepted; _ } ->
      let i = doubt_index t txid.id 0 in
      if i >= 0 then lead_on_p1b t t.doubt.(i) ~src ~bal ~ok ~accepted
  | Protocol.Txn_p2b { txid; bal; ok; _ } ->
      let i = doubt_index t txid.id 0 in
      if i >= 0 then lead_on_p2b t t.doubt.(i) ~src ~bal ~ok
  | Protocol.Txn_decide_ack _ ->
      (* a participant acking our recovery broadcast — nothing to do *)
      ()
  | Protocol.Query_rep _ | Protocol.Install_ack _ | Protocol.Batch_rep _
  | Protocol.Txn_vote _ ->
      ()

(* Serve a batch frame's parts from the [i]th on.  A query answers in
   place; every other request answers through its slot, possibly
   later. *)
and[@warning "@4@8"] serve_parts t ~src ~tr fr i = function
  | [] -> ()
  | part :: rest ->
      (match part with
      | Protocol.Query_req { rid; key; ctx } ->
          part_reply fr i (query t ~tr ~rid ~key ~ctx)
      | Protocol.Install_req _ | Protocol.Batch_req _ | Protocol.Txn_prepare _
      | Protocol.Txn_p1a _ | Protocol.Txn_p2a _ | Protocol.Txn_decide _ ->
          serve t ~src ~tr part ~reply:(part_reply fr i)
      | Protocol.Query_rep _ | Protocol.Install_ack _ | Protocol.Batch_rep _
      | Protocol.Txn_vote _ | Protocol.Txn_p1b _ | Protocol.Txn_p2b _
      | Protocol.Txn_decide_ack _ ->
          (* non-requests earn no reply slot — but a leader-side
             message still updates recovery state *)
          serve t ~src ~tr part ~reply:no_reply;
          part_done fr);
      serve_parts t ~src ~tr fr (i + 1) rest

(* The synchronous view of [serve], for tests and layers that know the
   replica has no storage device: returns the reply if one was
   produced in the same instant.  A pipelined install (or a batch
   containing one) replies later, through [attach]'s path — here that
   surfaces as [None]. *)
let handle_one t ~tr msg =
  let out = ref None in
  serve t ~tr ~reply:(fun rep -> out := Some rep) msg;
  !out

(** Attach the replica to the network: it is registered, and replies,
    by node id; [serve] still gets the sender's name. *)
let attach t ~(net : Protocol.msg Sim.Net.t) =
  let tr = Sim.Net.tracer net in
  let self = Sim.Net.id net t.name in
  (* recovery leadership needs a clock (timers) and a way to talk to
     peer replicas outside any client engine *)
  t.txn_sim <- Some (Sim.Net.sim net);
  t.txn_send <- (fun ~dst msg -> Sim.Net.send net ~src:t.name ~dst msg);
  (* one reply function per sender, made on its first request *)
  let replies = ref [||] in
  let reply_to src =
    if src >= Array.length !replies then begin
      let a = Array.make (2 * (src + 1)) no_reply in
      Array.blit !replies 0 a 0 (Array.length !replies);
      replies := a
    end;
    let f = !replies.(src) in
    if f != no_reply then f
    else begin
      let f rep =
        match rep with
        | Protocol.Batch_rep { reps; _ } ->
            Sim.Net.send_id net ~src:self ~dst:src
              ~payloads:(List.length reps)
              rep
        | rep -> Sim.Net.send_id net ~src:self ~dst:src rep
      in
      !replies.(src) <- f;
      f
    end
  in
  Sim.Net.register_id net ~node:self (fun ~src msg ->
      serve t ~src:(Sim.Net.name net src) ~tr msg ~reply:(reply_to src))
