(** The cross-shard transaction coordinator: multi-key read/write
    transactions over the router, one quorum-replicated child per
    participant shard — the paper's nested transaction with the router
    as the parent's name server.

    A transaction's footprint (its write set plus read set) is split
    across shards with {!Router.route_many}; each shard child runs one
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

type mode = [ `Two_phase | `Paxos ]

let mode_label = function `Two_phase -> "2pc" | `Paxos -> "paxos"

type t = {
  name : string;  (** the coordinator node (a router client's name) *)
  sim : Core.t;
  router : Router.t;
  mode : mode;
  timeout : float;  (** overall transaction deadline, per shard op *)
  mutable next_txn : int;
}

let create ~name ~sim ~router ~(mode : mode) ?(timeout = 400.0) ?(txn0 = 0) ()
    =
  { name; sim; router; mode; timeout; next_txn = txn0 }

let next_txn t = t.next_txn

let mode t = t.mode

(* One participant shard: its client (engine + replica group), its
   slice of the footprint, and its engine operation. *)
type part = {
  p_client : Client.t;
  p_writes : (string * int) list;
  p_reads : string list;
  p_op : Engine.op;
  p_base : int;  (** index of the shard's first replica among the acceptors *)
}

(* The merged prepare-time snapshot of one attempt, over its footprint
   (write keys, then read keys; a repeated key counts at its first
   position [i]): the highest (vn, value) any yes-vote carried for the
   key, at [vals.(2i)] and [vals.(2i+1)], vn [-1] until one has.  A
   footprint has a handful of keys, so a scan beats hashing. *)
type snap = { keys : string array; vals : int array }

let snap_create wkeys reads =
  let nw = List.length wkeys in
  let n = nw + List.length reads in
  let keys = Array.make n "" in
  List.iteri (fun i k -> keys.(i) <- k) wkeys;
  List.iteri (fun i k -> keys.(nw + i) <- k) reads;
  { keys; vals = Array.make (2 * n) (-1) }

(* twice the position of [k] from [i] on; -2 for a key outside the
   footprint *)
let rec snap_from keys k i =
  if i = Array.length keys then -2
  else if String.equal keys.(i) k then 2 * i
  else snap_from keys k (i + 1)

let snap_at s k = snap_from s.keys k 0

(* a vote's (vn, value) for [k]: kept if newer than what the snapshot
   holds — each key lives on one shard, so the newest vote wins *)
let snap_note s k ~vn ~value =
  let j = snap_at s k in
  if j >= 0 && vn > s.vals.(j) then begin
    s.vals.(j) <- vn;
    s.vals.(j + 1) <- value
  end

(* the snapshot's version of [k], 0 if no vote carried one *)
let snap_vn s k =
  let j = snap_at s k in
  if j < 0 then 0 else max 0 s.vals.(j)

let snap_kv s k =
  let j = snap_at s k in
  if j < 0 || s.vals.(j) < 0 then (k, 0, 0) else (k, s.vals.(j), s.vals.(j + 1))

let txn_instant t ~name ~txid ~extra =
  let tr = Core.tracer t.sim in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"store" ~name ~track:t.name
      ~args:(("txid", Obs.Trace.Str txid) :: extra)
      ()

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
  let txid = t.name ^ "#t" ^ string_of_int n in
  let started = Core.now t.sim in
  let wkeys = List.map fst writes in
  let by_shard_w = Router.route_many t.router wkeys in
  let by_shard_r = Router.route_many t.router reads in
  let shards =
    List.sort_uniq Int.compare
      (List.map fst by_shard_w @ List.map fst by_shard_r)
  in
  let acceptors =
    List.concat_map
      (fun s -> Array.to_list (Router.replicas t.router ~shard:s))
      shards
  in
  txn_instant t ~name:"txn.begin" ~txid
    ~extra:
      [
        ("mode", Obs.Trace.Str (mode_label t.mode));
        ("shards", Obs.Trace.Int (List.length shards));
      ];
  if shards = [] then begin
    on_done ~committed:true ~reads:[] ~writes:[] ~latency:0.0;
    txid
  end
  else begin
    let snap = snap_create wkeys reads in
    let live = ref true in
    let phase = ref `Prepare in
    let prepared = ref 0 in
    let applied_done = ref 0 in
    let parts = ref [] in
    let read_results () = List.map (snap_kv snap) reads in
    let finish_all () =
      List.iter
        (fun p -> Engine.finish_op p.p_client.Client.eng p.p_op)
        !parts
    in
    (* the decided write set (final versions), fixed when the decision
       wave starts — reported to the client on commit *)
    let chosen = ref [] in
    let conclude ~committed ~reads:rvals =
      if !live then begin
        live := false;
        finish_all ();
        txn_instant t
          ~name:(if committed then "txn.commit" else "txn.abort")
          ~txid ~extra:[];
        on_done ~committed ~reads:rvals
          ~writes:(if committed then !chosen else [])
          ~latency:(Core.now t.sim -. started)
      end
    in
    (* fire-and-forget abort to every acceptor — legal only while no
       ballot-0 2a has been sent (see the module comment) *)
    let direct_abort () =
      match !parts with
      | [] -> ()
      | p :: _ ->
          (* the coordinator is no acceptor: [except] skips nobody *)
          Register.send_all acceptors ~except:t.name
            (fun ~dst msg ->
              Sim.Net.send p.p_client.Client.net ~src:t.name ~dst msg)
            (Protocol.Txn_decide { rid = 0; txid; commit = false; writes = [] })
    in
    (* the decision wave: Txn_decide per shard, complete at a write
       quorum of applied acks per shard, then ack the client *)
    let start_apply final_writes =
      phase := `Apply;
      chosen := final_writes;
      let total = List.length !parts in
      List.iter
        (fun p ->
          let strategy = p.p_client.Client.strategy in
          (* only replicas that applied count, so not the engine's
             set heard *)
          let mask = ref 0 in
          ignore
            (Engine.call p.p_client.Client.eng ~op:p.p_op
               ~targets:p.p_client.Client.group
               ~make:(fun rid ->
                 Protocol.Txn_decide
                   { rid; txid; commit = true; writes = final_writes })
               ~on_reply:(fun ~member ~heard:_ msg ->
                 match msg with
                 | Protocol.Txn_decide_ack { applied; _ } ->
                     if applied then mask := !mask lor (1 lsl member);
                     if strategy.Strategy.write_ok !mask then begin
                       incr applied_done;
                       if !applied_done = total then
                         conclude ~committed:true ~reads:(read_results ());
                       Engine.Done
                     end
                     else Engine.Continue
                 | _ -> Engine.Continue)
               ()
              : int))
        !parts
    in
    (* a participant answered with the transaction's decision (a
       recovery resolved it first): adopt it *)
    let adopt ~commit ~writes:dw =
      if !live then
        if commit then begin
          if !phase <> `Apply then start_apply dw
        end
        else conclude ~committed:false ~reads:[]
    in
    let final_writes () =
      List.map (fun (k, v) -> (k, snap_vn snap k + 1, v)) writes
    in
    (* ballot-0 phase 2: propose Commit to every acceptor (one call
       per shard so replies demultiplex); a majority of accepts
       chooses the value *)
    let start_register fw =
      phase := `Register;
      let accepts = Register.tally (List.length acceptors) in
      List.iter
        (fun p ->
          ignore
            (Engine.call p.p_client.Client.eng ~op:p.p_op
               ~targets:p.p_client.Client.group
               ~make:(fun rid ->
                 Protocol.Txn_p2a
                   { rid; txid; bal = 0; commit = true; writes = fw })
               ~on_reply:(fun ~member ~heard:_ msg ->
                 match msg with
                 | Protocol.Txn_p2b { ok; bal = 0; _ } -> (
                     match !phase with
                     | `Register ->
                         if ok then
                           ignore
                             (Register.hear accepts (p.p_base + member) : bool);
                         if Register.complete accepts then begin
                           start_apply fw;
                           Engine.Done
                         end
                         else Engine.Continue
                     | _ -> Engine.Done)
                 | Protocol.Txn_p2b _ -> Engine.Continue
                 | Protocol.Txn_decide { commit; writes = dw; _ } ->
                     adopt ~commit ~writes:dw;
                     Engine.Done
                 | _ -> Engine.Continue)
               ()
              : int))
        !parts
    in
    let proceed_to_decision () =
      let fw = final_writes () in
      match t.mode with
      | `Two_phase -> start_apply fw
      | `Paxos -> start_register fw
    in
    let total = List.length shards in
    let on_timeout () =
      if !live then begin
        (* before any ballot-0 2a the coordinator may still abort;
           after, the outcome belongs to the register — just fail *)
        if !phase = `Prepare then direct_abort ();
        conclude ~committed:false ~reads:[]
      end
    in
    (* the shards' groups in order make up the acceptor set *)
    let base = ref 0 in
    parts :=
      List.map
        (fun s ->
          let client = Router.client t.router ~shard:s in
          let p_base = !base in
          base := p_base + Array.length (Engine.group_ids client.Client.group);
          let p_writes =
            match List.assoc_opt s by_shard_w with
            | Some ks -> List.map (fun k -> (k, List.assoc k writes)) ks
            | None -> []
          in
          let p_reads =
            Option.value ~default:[] (List.assoc_opt s by_shard_r)
          in
          let p_op =
            Engine.start_op client.Client.eng ~timeout:t.timeout ~on_timeout
          in
          { p_client = client; p_writes; p_reads; p_op; p_base })
        shards;
    (* the prepare round: one call per shard; complete at a vote
       quorum (a read and write quorum of yes-votes).  Every reply but
       a yes-vote ends the call, so the set heard before a yes-vote
       holds only yes-voters. *)
    List.iter
      (fun p ->
        let strategy = p.p_client.Client.strategy in
        ignore
          (Engine.call p.p_client.Client.eng ~op:p.p_op
             ~targets:p.p_client.Client.group
             ~make:(fun rid ->
               Protocol.Txn_prepare
                 {
                   rid;
                   txid;
                   writes = p.p_writes;
                   reads = p.p_reads;
                   acceptors;
                   paxos = (t.mode = `Paxos);
                 })
             ~on_reply:(fun ~member ~heard msg ->
               match msg with
               | Protocol.Txn_vote { yes = false; _ } ->
                   (* a lock conflict: first no-vote aborts the txn *)
                   if !live && !phase = `Prepare then begin
                     direct_abort ();
                     conclude ~committed:false ~reads:[]
                   end;
                   Engine.Done
               | Protocol.Txn_vote { yes = true; kvs; _ } ->
                   if !phase <> `Prepare then Engine.Done
                   else begin
                     List.iter
                       (fun (k, vn, value) -> snap_note snap k ~vn ~value)
                       kvs;
                     let mask = heard lor (1 lsl member) in
                     if
                       strategy.Strategy.read_ok mask
                       && strategy.Strategy.write_ok mask
                     then begin
                       incr prepared;
                       if !prepared = total then proceed_to_decision ();
                       Engine.Done
                     end
                     else Engine.Continue
                   end
               | Protocol.Txn_decide { commit; writes = dw; _ } ->
                   adopt ~commit ~writes:dw;
                   Engine.Done
               | _ -> Engine.Continue)
             ()
            : int))
      !parts;
    txid
  end
