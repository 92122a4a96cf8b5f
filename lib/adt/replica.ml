(** Event-log replicas for General Quorum Consensus.

    A replica stores, per object, a {e set} of timestamped log
    entries.  Messages:
    - [Pull]: send back your entries (the initial/read round);
    - [Push]: merge these entries into your set and acknowledge (the
      final/write round).

    Merging is set union keyed by timestamp (timestamps are unique by
    construction: client id + sequence number), so pushes are
    idempotent and replicas converge to the union of what they were
    sent — the standard grow-only-log construction Herlihy's scheme
    rests on. *)

type entry = { ts : Timestamp.t; op : Spec.op }

type msg =
  | Pull of { rid : int; key : string }
  | Entries of { rid : int; key : string; entries : entry list }
  | Push of { rid : int; key : string; entries : entry list }
  | Ack of { rid : int; key : string }

let rid = function
  | Pull { rid; _ } | Entries { rid; _ } | Push { rid; _ } | Ack { rid; _ } ->
      rid

type t = {
  name : string;
  logs : (string, entry list) Hashtbl.t;  (** ts-sorted, per key *)
  mutable pulls : int;
  mutable pushes : int;
}

let create ~name = { name; logs = Hashtbl.create 16; pulls = 0; pushes = 0 }

let log t key = Option.value ~default:[] (Hashtbl.find_opt t.logs key)

(** Union-merge two ts-sorted entry lists. *)
let merge (a : entry list) (b : entry list) : entry list =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
        let c = Timestamp.compare x.ts y.ts in
        if c < 0 then go a' b (x :: acc)
        else if c > 0 then go a b' (y :: acc)
        else go a' b' (x :: acc)
  in
  go a b []

let attach t ~(net : msg Sim.Net.t) =
  Sim.Net.register net ~node:t.name (fun ~src m ->
      match[@warning "@4@8"] m with
      | Pull { rid; key } ->
          t.pulls <- t.pulls + 1;
          Sim.Net.send net ~src:t.name ~dst:src
            (Entries { rid; key; entries = log t key })
      | Push { rid; key; entries } ->
          t.pushes <- t.pushes + 1;
          Hashtbl.replace t.logs key (merge (log t key) entries);
          Sim.Net.send net ~src:t.name ~dst:src (Ack { rid; key })
      | Entries _ | Ack _ -> ())
