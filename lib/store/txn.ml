(** The cross-shard transaction coordinator: multi-key read/write
    transactions over the router, one quorum-replicated child per
    participant shard — the paper's nested transaction with the router
    as the parent's name server.

    A transaction's footprint (its write set plus read set) is split
    across shards with {!Router.shard_of}; each shard child runs one
    prepare round over that shard's replica group: a [Txn_prepare]
    carrying the shard-local footprint, answered by [Txn_vote]s.  A
    yes-vote write-locks the footprint keys at the replica and carries
    its current (version, value) per key, so the prepare round doubles
    as the version query of Section 3.1 — a vote quorum (simultaneously
    a read and a write quorum of the shard's strategy) both certifies
    version currency and guarantees every later conflicting prepare
    collides with at least one lock.  When all children hold vote
    quorums, the coordinator computes the final versions ([1 + max]
    per written key) and decides.

    {b Two-phase commit} ([`Two_phase]) decides unilaterally: a
    [Txn_decide] wave per shard, complete at a write quorum of
    {e applied} acks (only a replica that held the prepared entry
    installs — its ack certifies the version like an install ack).
    The decision point is a single in-memory bit at the coordinator:
    a coordinator crash between prepare and decide leaves every
    prepared replica in doubt, write-locked forever — the blocking
    2PC exhibits by design (AC5 holds only without coordinator
    failure).

    {b Paxos Commit} ([`Paxos]) replaces that bit with a consensus
    register per transaction — the one-instance simplification of
    Gray & Lamport's "Consensus on Transaction Commit" (their §3.1
    remark: one Paxos instance on the decision value itself, rather
    than one per RM vote; the simplification is what makes a
    quorum-replicated shard a sensible "RM").  The acceptor set is
    the union of every participant shard's replicas; the coordinator
    is the ballot-0 leader (phase 1 skipped), proposing Commit with
    the final write versions baked into the value; prepared replicas
    arm staggered recovery timers and, on suspicion, run ordinary
    Paxos rounds at ballots unique to (attempt, replica) — a free
    register resolves to Abort (the missed-vote rule), an accepted
    ballot-0 Commit is re-proposed verbatim.  Any majority decision
    is broadcast to all acceptors, which apply and unlock: a
    coordinator kill between prepare and decision delays commit but
    never blocks it.

    Version-number monotonicity survives recovery because the chosen
    value {e carries} the versions: they are computed once, from vote
    quorums that intersect every earlier committed write quorum, and
    re-proposed verbatim by recovery leaders.

    The coordinator never aborts after proposing Commit (it may time
    out and report failure; recovery resolves the outcome), and only
    direct-aborts while no ballot-0 2a has been sent — in that window
    no recovery can have decided Commit, so the abort broadcast is
    consistent with every reachable outcome. *)

module Core = Sim.Core
module Engine = Rpc.Engine
module Txid = Qc_util.Txid

type mode = [ `Two_phase | `Paxos ]

let mode_label = function `Two_phase -> "2pc" | `Paxos -> "paxos"

type t = {
  name : string;  (** the coordinator node (a router client's name) *)
  coord : int;  (** its node id: the high half of every txid it issues *)
  sim : Core.t;
  router : Router.t;
  mode : mode;
  timeout : float;  (** overall transaction deadline, per shard op *)
  mutable next_txn : int;
  acceptor_sets : string list Qc_util.Inttbl.t;
      (** shard mask -> the acceptor set of those shards *)
}

let create ~name ~sim ~router ~(mode : mode) ?(timeout = 400.0) ?(txn0 = 0) ()
    =
  let net = (Router.client router ~shard:0).Client.net in
  {
    name;
    coord = Sim.Net.id net name;
    sim;
    router;
    mode;
    timeout;
    next_txn = txn0;
    acceptor_sets = Qc_util.Inttbl.create 8;
  }

let next_txn t = t.next_txn

let mode t = t.mode

(* The acceptor set of a shard set (ascending): every replica of each
   shard, shard by shard.  A router's groups never change, so the set
   is cached by shard mask while the shards fit one. *)
let acceptors t shards =
  let build () =
    List.concat_map
      (fun s -> Array.to_list (Router.replicas t.router ~shard:s))
      shards
  in
  if Router.n_shards t.router > Engine.max_group then build ()
  else
    let mask = List.fold_left (fun m s -> m lor (1 lsl s)) 0 shards in
    match Qc_util.Inttbl.find_or t.acceptor_sets mask [] with
    | _ :: _ as a -> a
    | [] ->
        let a = build () in
        Qc_util.Inttbl.replace t.acceptor_sets mask a;
        a

(* One participant shard: its client (engine + replica group), its
   slice of the footprint, and its engine operation. *)
type part = {
  p_client : Client.t;
  p_writes : (string * int) list;
  p_reads : string list;
  p_op : Protocol.msg Engine.op;
  p_base : int;  (** index of the shard's first replica among the acceptors *)
  mutable p_strategy : Strategy.t;
      (** the shard's strategy when the current wave started *)
  mutable p_applied : int;  (** members that acked applying the decision *)
}

(* The merged prepare-time snapshot of one attempt: a slot per
   footprint key (write keys, then read keys; a repeated key counts at
   its first slot) holding the highest (vn, value) any yes-vote
   carried for it, vn [-1] until one has.  A footprint has a handful
   of keys, so a scan beats hashing. *)
type slot = { key : string; mutable vn : int; mutable value : int }

let slot key = { key; vn = -1; value = 0 }

let snap_create writes reads =
  List.rev_append (List.rev_map (fun (k, _) -> slot k) writes)
    (List.map slot reads)

(* a vote's (vn, value) for [k]: kept if newer than its slot holds —
   each key lives on one shard, so the newest vote wins *)
let rec note_slot k vn value = function
  | [] -> ()
  | s :: rest ->
      if String.equal s.key k then begin
        if vn > s.vn then begin
          s.vn <- vn;
          s.value <- value
        end
      end
      else note_slot k vn value rest

let rec snap_note snap = function
  | [] -> ()
  | (k, vn, value) :: rest ->
      note_slot k vn value snap;
      snap_note snap rest

(* the snapshot's version of [k], 0 if no vote carried one *)
let rec snap_vn k = function
  | [] -> 0
  | s :: rest -> if String.equal s.key k then Int.max 0 s.vn else snap_vn k rest

(* the snapshot's (k, vn, value), (k, 0, 0) if no vote carried one *)
let rec snap_kv snap k =
  match snap with
  | [] -> (k, 0, 0)
  | s :: rest ->
      if not (String.equal s.key k) then snap_kv rest k
      else if s.vn < 0 then (k, 0, 0)
      else (k, s.vn, s.value)

type phase = Preparing | Proposing | Applying

(* One attempt: everything its handlers share.  The decision is
   [proposed] (the ballot-0 Commit value) until a decision wave
   starts with [chosen]. *)
type attempt = {
  co : t;
  txid : Txid.t;
  started : float;
  writes : (string * int) list;
  reads : string list;
  acceptors : string list;
  snap : slot list;
  on_done :
    committed:bool ->
    reads:(string * int * int) list ->
    writes:(string * int * int) list ->
    latency:float ->
    unit;
  mutable parts : part list;  (** participant shards, ascending *)
  n_parts : int;
  mutable live : bool;
  mutable phase : phase;
  mutable prepared : int;  (** shards holding a vote quorum *)
  mutable applied : int;  (** shards holding a write quorum of applies *)
  mutable proposed : (string * int * int) list;
  mutable chosen : (string * int * int) list;
  mutable accepts : Register.tally;  (** ballot-0 accepts heard *)
}

(* the tally of an attempt that proposes nothing (yet) *)
let no_tally = Register.tally 0

let traced t =
  let tr = Core.tracer t.sim in
  if Obs.Trace.enabled tr then Some tr else None

let txn_instant t tr ~name ~(txid : Txid.t) ~extra =
  Obs.Trace.instant tr ~cat:"store" ~name ~track:t.name
    ~args:(("txid", Obs.Trace.Str txid.name) :: extra)
    ()

let finish_parts a =
  List.iter (fun p -> Engine.finish_op p.p_client.Client.eng p.p_op) a.parts

let conclude a ~committed ~reads =
  if a.live then begin
    a.live <- false;
    finish_parts a;
    (match traced a.co with
    | Some tr ->
        txn_instant a.co tr
          ~name:(if committed then "txn.commit" else "txn.abort")
          ~txid:a.txid ~extra:[]
    | None -> ());
    a.on_done ~committed ~reads
      ~writes:(if committed then a.chosen else [])
      ~latency:(Core.now a.co.sim -. a.started)
  end

(* fire-and-forget abort to every acceptor — legal only while no
   ballot-0 2a has been sent (see the module comment) *)
let direct_abort a =
  match a.parts with
  | [] -> ()
  | p :: _ ->
      let net = p.p_client.Client.net and src = a.co.name in
      (* the coordinator is no acceptor: [except] skips nobody *)
      Register.send_all a.acceptors ~except:src
        (fun ~dst msg -> Sim.Net.send net ~src ~dst msg)
        (Protocol.Txn_decide
           { rid = 0; txid = a.txid; commit = false; writes = [] })

let prepare_msg a p rid =
  Protocol.Txn_prepare
    {
      rid;
      txid = a.txid;
      writes = p.p_writes;
      reads = p.p_reads;
      acceptors = a.acceptors;
      paxos = (match a.co.mode with `Paxos -> true | `Two_phase -> false);
    }

let p2a_msg a rid =
  Protocol.Txn_p2a
    { rid; txid = a.txid; bal = 0; commit = true; writes = a.proposed }

let decide_msg a rid =
  Protocol.Txn_decide { rid; txid = a.txid; commit = true; writes = a.chosen }

(* the decided write set: each written key one version past the
   snapshot's *)
let final_writes a =
  List.map (fun (k, v) -> (k, snap_vn k a.snap + 1, v)) a.writes

(* the decision wave: Txn_decide per shard, complete at a write
   quorum of applied acks per shard, then ack the client *)
let rec start_apply a final =
  a.phase <- Applying;
  a.chosen <- final;
  let make = decide_msg a in
  List.iter
    (fun p ->
      (* only replicas that applied count, so not the engine's set
         heard *)
      p.p_strategy <- p.p_client.Client.strategy;
      p.p_applied <- 0;
      ignore
        (Engine.call p.p_client.Client.eng ~op:p.p_op
           ~targets:p.p_client.Client.group ~make
           ~on_reply:(on_apply_reply a p) ()
          : int))
    a.parts

and on_apply_reply a p ~member ~heard:_ = function
  | Protocol.Txn_decide_ack { applied; _ } ->
      if applied then p.p_applied <- p.p_applied lor (1 lsl member);
      if p.p_strategy.Strategy.write_ok p.p_applied then begin
        a.applied <- a.applied + 1;
        if a.applied = a.n_parts then
          conclude a ~committed:true
            ~reads:(List.map (snap_kv a.snap) a.reads);
        Engine.Done
      end
      else Engine.Continue
  | _ -> Engine.Continue

(* a participant answered with the transaction's decision (a
   recovery resolved it first): adopt it *)
let adopt a ~commit ~writes =
  if a.live then
    if commit then
      match a.phase with Applying -> () | _ -> start_apply a writes
    else conclude a ~committed:false ~reads:[]

(* ballot-0 phase 2: propose Commit to every acceptor (one call per
   shard so replies demultiplex); a majority of accepts chooses the
   value *)
let on_p2b_reply a p ~member ~heard:_ = function
  | Protocol.Txn_p2b { ok; bal = 0; _ } -> (
      match a.phase with
      | Proposing ->
          if ok then
            ignore (Register.hear a.accepts (p.p_base + member) : bool);
          if Register.complete a.accepts then begin
            start_apply a a.proposed;
            Engine.Done
          end
          else Engine.Continue
      | Preparing | Applying -> Engine.Done)
  | Protocol.Txn_p2b _ -> Engine.Continue
  | Protocol.Txn_decide { commit; writes; _ } ->
      adopt a ~commit ~writes;
      Engine.Done
  | _ -> Engine.Continue

let start_register a =
  a.phase <- Proposing;
  a.accepts <- Register.tally (List.length a.acceptors);
  let make = p2a_msg a in
  List.iter
    (fun p ->
      ignore
        (Engine.call p.p_client.Client.eng ~op:p.p_op
           ~targets:p.p_client.Client.group ~make
           ~on_reply:(on_p2b_reply a p) ()
          : int))
    a.parts

let proceed_to_decision a =
  a.proposed <- final_writes a;
  match a.co.mode with
  | `Two_phase -> start_apply a a.proposed
  | `Paxos -> start_register a

(* The prepare round's replies.  Every reply but a yes-vote ends the
   call, so the set heard before a yes-vote holds only yes-voters. *)
let on_vote a p ~member ~heard = function
  | Protocol.Txn_vote { yes = false; _ } ->
      (* a lock conflict: first no-vote aborts the txn *)
      (match a.phase with
      | Preparing when a.live ->
          direct_abort a;
          conclude a ~committed:false ~reads:[]
      | _ -> ());
      Engine.Done
  | Protocol.Txn_vote { yes = true; kvs; _ } -> (
      match a.phase with
      | Proposing | Applying -> Engine.Done
      | Preparing ->
          snap_note a.snap kvs;
          let mask = heard lor (1 lsl member) in
          let strategy = p.p_strategy in
          if strategy.Strategy.read_ok mask && strategy.Strategy.write_ok mask
          then begin
            a.prepared <- a.prepared + 1;
            if a.prepared = a.n_parts then proceed_to_decision a;
            Engine.Done
          end
          else Engine.Continue)
  | Protocol.Txn_decide { commit; writes; _ } ->
      adopt a ~commit ~writes;
      Engine.Done
  | _ -> Engine.Continue

let on_timeout a () =
  if a.live then begin
    (* before any ballot-0 2a the coordinator may still abort; after,
       the outcome belongs to the register — just fail *)
    (match a.phase with
    | Preparing -> direct_abort a
    | Proposing | Applying -> ());
    conclude a ~committed:false ~reads:[]
  end

(* the elements of [xs] whose shard (the same position of [shards])
   is [s], in order *)
let rec on_shard (s : int) xs shards =
  match (xs, shards) with
  | x :: xs, s' :: shards ->
      if s' = s then x :: on_shard s xs shards else on_shard s xs shards
  | _ -> []

(* [s] in its place in the ascending, duplicate-free [shards] *)
let rec insert_shard (s : int) = function
  | [] -> [ s ]
  | s' :: rest as shards ->
      if s < s' then s :: shards
      else if s = s' then shards
      else s' :: insert_shard s rest

(* [shards] with every shard of [more]: the shard set without the
   concatenation and the comparator closures of a sort *)
let rec add_shards shards = function
  | [] -> shards
  | s :: more -> add_shards (insert_shard s shards) more

(** Run one transaction: read [reads], write [writes] (keys must be
    distinct across the whole footprint).  [on_done] fires exactly
    once — [committed] with the snapshot the transaction read
    ((key, vn, value) per read key, input order) on commit, or
    [committed:false] on abort, conflict, or timeout.  A [false]
    report is ambiguous in the usual 2PC/Paxos sense: the decision
    may still resolve to commit after a coordinator timeout — the
    replica-side decision hook, not the client ack, is the
    authoritative commit log. *)
let execute t ?(reads = []) ?(writes = []) ~on_done () : string =
  let n = t.next_txn in
  t.next_txn <- n + 1;
  let txid = Txid.make ~coord:t.coord ~coord_name:t.name n in
  let router = t.router in
  let w_shards = List.map (fun (k, _) -> Router.shard_of router k) writes in
  let r_shards = List.map (Router.shard_of router) reads in
  let shards = add_shards (add_shards [] w_shards) r_shards in
  (match traced t with
  | Some tr ->
      txn_instant t tr ~name:"txn.begin" ~txid
        ~extra:
          [
            ("mode", Obs.Trace.Str (mode_label t.mode));
            ("shards", Obs.Trace.Int (List.length shards));
          ]
  | None -> ());
  (match shards with
  | [] -> on_done ~committed:true ~reads:[] ~writes:[] ~latency:0.0
  | _ :: _ ->
      let a =
        {
          co = t;
          txid;
          started = Core.now t.sim;
          writes;
          reads;
          acceptors = acceptors t shards;
          snap = snap_create writes reads;
          on_done;
          parts = [];
          n_parts = List.length shards;
          live = true;
          phase = Preparing;
          prepared = 0;
          applied = 0;
          proposed = [];
          chosen = [];
          accepts = no_tally;
        }
      in
      let on_timeout = on_timeout a in
      (* the shards' groups in order make up the acceptor set *)
      let base = ref 0 in
      a.parts <-
        List.map
          (fun s ->
            let client = Router.client router ~shard:s in
            let p_base = !base in
            base :=
              p_base + Array.length (Engine.group_ids client.Client.group);
            {
              p_client = client;
              p_writes = on_shard s writes w_shards;
              p_reads = on_shard s reads r_shards;
              p_op =
                Engine.start_op client.Client.eng ~timeout:t.timeout
                  ~on_timeout;
              p_base;
              p_strategy = client.Client.strategy;
              p_applied = 0;
            })
          shards;
      (* the prepare round: one call per shard, complete at a vote
         quorum (a read and write quorum of yes-votes) *)
      List.iter
        (fun p ->
          ignore
            (Engine.call p.p_client.Client.eng ~op:p.p_op
               ~targets:p.p_client.Client.group ~make:(prepare_msg a p)
               ~on_reply:(on_vote a p) ()
              : int))
        a.parts);
  txid.name
