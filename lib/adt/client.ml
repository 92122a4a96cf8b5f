(** The General Quorum Consensus client.

    Executing operation [op] on object [key]:

    1. {e initial round} (only if the operation needs one): Pull from
       all replicas, merge the returned logs, until the replies cover
       the read quorum.  Blind mutators — counter increments,
       enqueues — skip this round entirely; that is the scheme's
       advantage over value/version replication, where every write
       pays a version-discovery round.
    2. {e compute}: sort the merged log by timestamp, replay the
       sequential specification, apply [op] for its result.
    3. {e final round} (mutators only): append the new entry (with a
       timestamp past everything observed) and Push to all replicas
       until acknowledgements cover the write quorum.

    Consistency rests on the usual intersection: an observer's initial
    quorum meets every completed mutator's final quorum, so the merged
    log contains every completed operation.  Request mechanics (rids,
    pending table, deadline, retries, hedging) come from
    {!Rpc.Engine}. *)

module Core = Sim.Core
module Net = Sim.Net
module Strategy = Store.Strategy
module Engine = Rpc.Engine

(* Which rounds does an operation need?  [Set] is a mutator that needs
   the initial round anyway: last-writer-wins requires its timestamp
   to dominate previously completed sets. *)
let needs_initial (op : Spec.op) =
  Spec.observes op || match op with Spec.Set _ -> true | _ -> false

type phase = Initial | Final

type pending = {
  key : string;
  op : Spec.op;
  mutable phase : phase;
  mutable merged : Replica.entry list;
  mutable result : Spec.result;
  eop : Engine.op;
  on_done : ok:bool -> result:Spec.result -> latency:float -> unit;
}

type t = {
  name : string;
  sim : Core.t;
  net : Replica.msg Net.t;
  eng : Replica.msg Engine.t;
  group : Engine.group;  (** the replicas, resolved to node ids *)
  strategy : Strategy.t;
  clock : Timestamp.clock;
  timeout : float;
}

let create ~name ~sim ~net ~replicas ~strategy ?(timeout = 100.0) ?policy () =
  let eng =
    Engine.create ~name ~sim ~net ~rid_of:Replica.rid ?policy ~cat:"adt" ()
  in
  {
    name;
    sim;
    net;
    eng;
    group = Engine.group eng replicas;
    strategy;
    clock = Timestamp.clock ~id:name;
    timeout;
  }

let set_policy t p = Engine.set_policy t.eng p
let policy t = Engine.policy t.eng

let finish t (p : pending) ~ok =
  if Engine.op_live p.eop then begin
    Engine.finish_op t.eng p.eop;
    p.on_done ~ok ~result:p.result
      ~latency:(Core.now t.sim -. Engine.op_started p.eop)
  end

let gather t (p : pending) ~quorum_ok ~make ~on_quorum =
  ignore
    (Engine.call t.eng ~op:p.eop ~targets:t.group ~make
       ~on_reply:(fun ~member ~heard msg ->
         let mask = heard lor (1 lsl member) in
         match msg with
         | Replica.Entries { key; entries; _ }
           when String.equal key p.key && p.phase = Initial ->
             p.merged <- Replica.merge p.merged entries;
             if quorum_ok mask then begin
               on_quorum ();
               Engine.Done
             end
             else Engine.Continue
         | Replica.Ack { key; _ }
           when String.equal key p.key && p.phase = Final ->
             if quorum_ok mask then begin
               on_quorum ();
               Engine.Done
             end
             else Engine.Continue
         | _ -> Engine.Continue)
       ())

(* Compute the result and, for mutators, start the final round. *)
let compute_and_finalize t (p : pending) =
  List.iter (fun (e : Replica.entry) -> Timestamp.observe t.clock e.ts) p.merged;
  let state = Spec.replay (List.map (fun (e : Replica.entry) -> e.op) p.merged) in
  let _, result = Spec.apply state p.op in
  p.result <- result;
  if Spec.mutates p.op then begin
    let entry = { Replica.ts = Timestamp.fresh t.clock; op = p.op } in
    p.phase <- Final;
    p.merged <- Replica.merge p.merged [ entry ];
    let entries = p.merged in
    gather t p ~quorum_ok:t.strategy.Strategy.write_ok
      ~make:(fun rid -> Replica.Push { rid; key = p.key; entries })
      ~on_quorum:(fun () -> finish t p ~ok:true)
  end
  else finish t p ~ok:true

let attach t = Engine.attach t.eng

(** Execute [op] on [key]; [on_done] receives success, the
    operation's result (meaningful for observers), and the latency. *)
let execute t ~key ~(op : Spec.op) ~on_done =
  let p_ref = ref None in
  let eop =
    Engine.start_op t.eng ~timeout:t.timeout ~on_timeout:(fun () ->
        match !p_ref with None -> () | Some p -> finish t p ~ok:false)
  in
  let p =
    {
      key;
      op;
      phase = Initial;
      merged = [];
      result = Spec.Unit;
      eop;
      on_done;
    }
  in
  p_ref := Some p;
  if needs_initial op then
    gather t p ~quorum_ok:t.strategy.Strategy.read_ok
      ~make:(fun rid -> Replica.Pull { rid; key })
      ~on_quorum:(fun () -> compute_and_finalize t p)
  else
    (* blind mutator: no initial round at all *)
    compute_and_finalize t p
