(** The view manager: executes view changes.

    A view change to membership [members]:
    1. requires [members] to be a majority of all replicas (otherwise
       it is refused — a minority partition can never form a primary
       view, which is exactly what keeps the two sides of a partition
       from diverging);
    2. collects the full state of every proposed member and merges it
       keeping the highest version per key — since the previous
       primary view wrote to all its members and any two majorities
       intersect, the merge contains every committed write (a member
       serves no older view once it has sent its state, so no write
       can complete in the old view behind the merge's back);
    3. installs the new view (fresh id) and merged state at every
       member, completing when all have acknowledged.

    The request mechanics — rid allocation, the pending table, reply
    dispatch, the overall deadline — come from {!Rpc.Engine}, the same
    engine the store and ADT clients use; the manager supplies only
    the two gather phases and the merge.  Under the default fire-once
    policy the wire behaviour is the historical one: one State_req
    wave, one Install wave, one deadline timer.  A retrying or hedged
    policy gives reconfiguration the same robustness as data
    operations — replicas tolerate duplicate State_reqs (idempotent
    reads) and duplicate Installs (same view id, nacked as stale only
    after a newer view installs).

    Failure detection is deliberately out of scope (it is orthogonal;
    in the experiments the test harness triggers view changes when it
    reconfigures the network). *)

module Core = Sim.Core
module Net = Sim.Net
module Engine = Rpc.Engine

type t = {
  name : string;
  sim : Core.t;
  net : Protocol.msg Net.t;
  all_replicas : string list;
  eng : Protocol.msg Engine.t;
  mutable next_view_id : int;
  mutable current : View.t;
  timeout : float;
}

let create ~name ~sim ~net ~all_replicas ?(timeout = 50.0) ?policy () =
  let eng =
    Engine.create ~name ~sim ~net ~rid_of:Protocol.rid ?policy ~cat:"vp" ()
  in
  Engine.attach eng;
  {
    name;
    sim;
    net;
    all_replicas;
    eng;
    next_view_id = 1;
    current = View.initial ~replicas:all_replicas;
    timeout;
  }

let policy t = Engine.policy t.eng

(* Merge collected replica states keeping the highest version per key. *)
let merge_states (states : (string * (int * int)) list list) :
    (string * (int * int)) list =
  List.fold_left
    (fun acc st ->
      List.fold_left
        (fun acc (key, (vn, value)) ->
          match List.assoc_opt key acc with
          | Some (vn', _) when vn' >= vn -> acc
          | _ -> (key, (vn, value)) :: List.remove_assoc key acc)
        acc st)
    [] states

(** [change_view t ~members ~on_done] runs the protocol.  [on_done]
    receives the installed view on success; failure means [members]
    was not a majority or some member did not respond in time. *)
let change_view t ~members ~on_done =
  let n_total = List.length t.all_replicas in
  if 2 * List.length members <= n_total then
    on_done ~ok:false t.current
  else begin
    let view_id = t.next_view_id in
    t.next_view_id <- view_id + 1;
    let op_ref = ref None in
    let op =
      Engine.start_op t.eng ~timeout:t.timeout ~on_timeout:(fun () ->
          match !op_ref with
          | Some op ->
              Engine.finish_op t.eng op;
              on_done ~ok:false t.current
          | None -> ())
    in
    op_ref := Some op;
    let targets = Engine.group t.eng (Array.of_list members) in
    let all = (1 lsl List.length members) - 1 in
    (* phase 2: install the new view and merged state at every member *)
    let install states =
      let merged = merge_states states in
      ignore
        (Engine.call t.eng ~op ~targets
           ~make:(fun rid ->
             Protocol.Install { rid; view_id; members; state = merged })
           ~on_reply:(fun ~member ~heard msg ->
             match msg with
             | Protocol.Install_ack _ ->
                 if heard lor (1 lsl member) = all then begin
                   Engine.finish_op t.eng op;
                   t.current <- { View.id = view_id; members };
                   on_done ~ok:true t.current;
                   Engine.Done
                 end
                 else Engine.Continue
             | _ -> Engine.Continue)
           ())
    in
    (* phase 1: collect the full state of every proposed member *)
    let states = ref [] in
    ignore
      (Engine.call t.eng ~op ~targets
         ~make:(fun rid -> Protocol.State_req { rid; view_id })
         ~on_reply:(fun ~member ~heard msg ->
           match msg with
           | Protocol.State_rep { state; _ }
             when heard land (1 lsl member) = 0 ->
               states := state :: !states;
               if heard lor (1 lsl member) = all then begin
                 install !states;
                 Engine.Done
               end
               else Engine.Continue
           | _ -> Engine.Continue)
         ())
  end
