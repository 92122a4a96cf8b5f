(** Virtual-partition replicas.

    State: a (version, value) per key — as in the quorum store — plus
    the current view.  Data operations are served only when the
    request's view id matches the replica's; otherwise the replica
    NACKs, preventing a client stranded in an old view (e.g. on the
    minority side of a partition) from reading stale data or writing
    where the primary view cannot see it.  Once a replica has sent its
    state for a view change it NACKs its old view too: a write that
    completed there after the state was collected would be missing from
    the merged state the new view's other members install. *)

type t = {
  name : string;
  data : (string, int * int) Hashtbl.t;
  mutable view : View.t;
  mutable fence : int;
  mutable nacks : int;
}

let create ~name ~initial_view =
  {
    name;
    data = Hashtbl.create 32;
    view = initial_view;
    fence = initial_view.View.id;
    nacks = 0;
  }

let lookup t key = Option.value ~default:(0, 0) (Hashtbl.find_opt t.data key)

(* Canonically sorted by key: hash-bucket order must never reach
   State_rep payloads, traces, or test assertions. *)
let state t =
  (* lint: order-insensitive *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.data []
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)

let attach t ~(net : Protocol.msg Sim.Net.t) =
  Sim.Net.register net ~node:t.name (fun ~src msg ->
      let reply m = Sim.Net.send net ~src:t.name ~dst:src m in
      let stale view = view <> t.view.View.id || view < t.fence in
      match[@warning "@4@8"] msg with
      | Protocol.Read_req { rid; view; key } ->
          if stale view then begin
            t.nacks <- t.nacks + 1;
            reply (Protocol.Nack { rid; current_view = t.view.View.id })
          end
          else
            let vn, value = lookup t key in
            reply (Protocol.Read_rep { rid; key; vn; value })
      | Protocol.Write_req { rid; view; key; vn; value } ->
          if stale view then begin
            t.nacks <- t.nacks + 1;
            reply (Protocol.Nack { rid; current_view = t.view.View.id })
          end
          else begin
            let cur_vn, _ = lookup t key in
            if vn >= cur_vn then Hashtbl.replace t.data key (vn, value);
            reply (Protocol.Write_ack { rid; key })
          end
      | Protocol.State_req { rid; view_id } ->
          t.fence <- Int.max t.fence view_id;
          reply (Protocol.State_rep { rid; state = state t })
      | Protocol.Install { rid; view_id; members; state } ->
          (* adopt the new view; merge state keeping the newest version
             per key (the manager sends the majority-collected state) *)
          t.view <- { View.id = view_id; members };
          List.iter
            (fun (key, (vn, value)) ->
              let cur_vn, _ = lookup t key in
              if vn >= cur_vn then Hashtbl.replace t.data key (vn, value))
            state;
          reply (Protocol.Install_ack { rid })
      | Protocol.Read_rep _ | Protocol.Write_ack _ | Protocol.Nack _
      | Protocol.State_rep _ | Protocol.Install_ack _ ->
          ())
