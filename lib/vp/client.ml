(** The virtual-partition client.

    Within a primary view, the protocol is read-one/write-all
    {e relative to the view}: a read asks a single (random) view
    member; a write discovers the version from one member and installs
    to every member.  Operations carry the view id; a NACK (replica in
    a different view) or a timeout fails the operation — the caller
    then waits for a view change.

    The read-one fast path is the scheme's selling point over static
    majority quorums; the price is the view-change machinery and the
    loss of minority-side availability.  Request mechanics (rids,
    pending table, deadline, retries, hedging) come from
    {!Rpc.Engine}; under a hedging policy a stalled read-one falls
    back to the remaining view members — read-one and read-all are the
    two extremes of the same call. *)

module Core = Sim.Core
module Net = Sim.Net
module Prng = Qc_util.Prng
module Engine = Rpc.Engine

type phase = PRead | PWrite_query of int | PInstall

type pending = {
  key : string;
  mutable rid : int;
  mutable phase : phase;
  mutable vn : int;
  mutable value : int;
  op : Protocol.msg Engine.op;
  on_done : ok:bool -> vn:int -> value:int -> latency:float -> unit;
}

type t = {
  name : string;
  sim : Core.t;
  net : Protocol.msg Net.t;
  eng : Protocol.msg Engine.t;
  rng : Prng.t;
  mutable view : View.t;
  timeout : float;
  mutable nacked : int;  (** ops failed by stale-view NACKs *)
}

let create ~name ~sim ~net ~view ?(timeout = 50.0) ?policy ~seed () =
  {
    name;
    sim;
    net;
    eng =
      Engine.create ~name ~sim ~net ~rid_of:Protocol.rid ?policy ~cat:"vp"
        ~seed ();
    rng = Prng.create seed;
    view;
    timeout;
    nacked = 0;
  }

(** Adopt a new view (after the manager completes a change). *)
let set_view t view = t.view <- view

let set_policy t p = Engine.set_policy t.eng p
let policy t = Engine.policy t.eng

let finish t (p : pending) ~ok =
  if Engine.op_live p.op then begin
    Engine.finish_op t.eng p.op;
    p.on_done ~ok ~vn:p.vn ~value:p.value
      ~latency:(Core.now t.sim -. Engine.op_started p.op)
  end

(* [all] is the call's whole group: the write phases wait for every
   view member *)
let rec on_reply t (p : pending) ~all ~member ~heard msg =
  let complete = heard lor (1 lsl member) = all in
  match msg with
  | Protocol.Nack _ ->
      t.nacked <- t.nacked + 1;
      finish t p ~ok:false;
      Engine.Done
  | Protocol.Read_rep { key; vn; value; _ } when String.equal key p.key -> (
      match p.phase with
      | PRead ->
          p.vn <- vn;
          p.value <- value;
          finish t p ~ok:true;
          Engine.Done
      | PWrite_query value' ->
          (* version discovery polls EVERY view member: a write that
             failed mid-install may have left a higher version on some
             member, and installing below it would be silently ignored
             there (non-monotonic histories, stale read-my-writes).
             Taking the max over the whole view restores
             monotonicity. *)
          p.vn <- max p.vn vn;
          if complete then begin
            start_install t p ~value:value';
            Engine.Done
          end
          else Engine.Continue
      | PInstall -> Engine.Continue)
  | Protocol.Write_ack { key; _ } when String.equal key p.key -> (
      match p.phase with
      | PInstall ->
          if complete then begin
            finish t p ~ok:true;
            Engine.Done
          end
          else Engine.Continue
      | PRead | PWrite_query _ -> Engine.Continue)
  | _ -> Engine.Continue

and start_install t (p : pending) ~value =
  let rid = Engine.fresh_rid t.eng in
  p.phase <- PInstall;
  p.rid <- rid;
  p.vn <- p.vn + 1;
  p.value <- value;
  gather t p ~rid (fun rid view ->
      Protocol.Write_req { rid; view; key = p.key; vn = p.vn; value })

(* One call to the current view's members, [first] (default: all)
   first; [make] gets the rid and the view id. *)
and gather t (p : pending) ~rid ?first make =
  let members = Engine.group t.eng (Array.of_list t.view.View.members) in
  let all = (1 lsl Array.length (Engine.group_ids members)) - 1 in
  let view = t.view.View.id in
  ignore
    (Engine.call t.eng ~op:p.op ~rid ~targets:members ?first
       ~make:(fun rid -> make rid view)
       ~on_reply:(on_reply t p ~all) ())

let attach t = Engine.attach t.eng

let start_op t ~key ~phase ~on_done =
  let rid = Engine.fresh_rid t.eng in
  let p_ref = ref None in
  let op =
    Engine.start_op t.eng ~timeout:t.timeout ~on_timeout:(fun () ->
        match !p_ref with None -> () | Some p -> finish t p ~ok:false)
  in
  let p = { key; rid; phase; vn = 0; value = 0; op; on_done } in
  p_ref := Some p;
  p

(** Read: one round trip to a single random view member; the other
    members are the hedge pool (only contacted under a hedging
    policy). *)
let read t ~key ~on_done =
  let p = start_op t ~key ~phase:PRead ~on_done in
  let member = Prng.int t.rng (List.length t.view.View.members) in
  gather t p ~rid:p.rid ~first:(1 lsl member) (fun rid view ->
      Protocol.Read_req { rid; view; key })

(** Write: version from every view member (see the note in [on_reply]
    about partially-failed installs), then install at every member. *)
let write t ~key ~value ~on_done =
  let p = start_op t ~key ~phase:(PWrite_query value) ~on_done in
  gather t p ~rid:p.rid (fun rid view -> Protocol.Read_req { rid; view; key })
