(** The shard router: split the keyspace across replica groups, each
    with its own {!Strategy.t} and {!Rpc.Engine} (inside a per-shard
    {!Client.t}), and resolve logical keys to shards.

    Correctness needs no new argument: Gifford-style quorum consensus
    is per item — every key's reads and writes intersect inside that
    key's own replica group — so any deterministic key → group map
    preserves the audit invariants.  The router is pure wiring: pick
    the shard, delegate to its client.

    Two shard maps are provided: [`Hash] (an FNV-1a hash of the key,
    modulo the shard count — spreads hot keys) and [`Range]
    (contiguous ranges of the key index for keys named ["k<i>"] —
    preserves locality, concentrates skew).  Both are pure functions
    of the key and the configuration, so every client in a cluster
    computes the same map with no coordination.

    With a single shard the router collapses to exactly the historical
    single-group client: same construction, same handler registration,
    same messages — byte-identical seeded runs. *)

module Net = Sim.Net

type scheme = [ `Hash | `Range ]

let scheme_label = function `Hash -> "hash" | `Range -> "range"

(* FNV-1a with the 64-bit prime and an offset basis truncated to
   OCaml's 63-bit int.  Deliberately not [Hashtbl.hash]: the map is
   part of the system's observable behaviour and must never move
   under us. *)
let fnv1a key =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun ch ->
      h := (!h lxor Char.code ch) * 0x100000001b3)
    key;
  !h land max_int

(* The numeric suffix of a key named like "k12"; [None] when the key
   does not end in digits. *)
let key_index key =
  let n = String.length key in
  let rec start i =
    if i > 0 && key.[i - 1] >= '0' && key.[i - 1] <= '9' then start (i - 1)
    else i
  in
  let s = start n in
  if s >= n then None else int_of_string_opt (String.sub key s (n - s))

(** The pure key → shard map for a scheme.  [n_keys] bounds the
    [`Range] partition (key indices [0 .. n_keys-1] split into
    [n_shards] contiguous ranges); keys outside it, or without a
    numeric suffix, fall back to the hash map. *)
let shard_fn (scheme : scheme) ~n_shards ~n_keys : string -> int =
  if n_shards < 1 then invalid_arg "Router.shard_fn: n_shards must be >= 1";
  match scheme with
  | `Hash -> fun key -> fnv1a key mod n_shards
  | `Range ->
      fun key -> (
        match key_index key with
        | Some i when i >= 0 && i < n_keys && n_keys > 0 ->
            i * n_shards / n_keys
        | _ -> fnv1a key mod n_shards)

type t = {
  name : string;
  net : Protocol.msg Net.t;
  shards : Client.t array;
  shard_of : string -> int;
  scheme : scheme;
  owner : int array;
      (** node id -> the shard whose group holds it, [-1] for a node in
          no group; ids past its end are in no group either *)
}

let create ~name ~sim ~net ~(groups : string array array)
    ~(strategies : Strategy.t array) ~(scheme : scheme) ~n_keys
    ?(timeout = 100.0) ?(read_repair = false) ?(targeting = `Broadcast)
    ?(trace_ctx = false) ?policy ?(seed = 1) ?metrics ?batch_window
    ?adaptive_window () =
  let n_shards = Array.length groups in
  if n_shards < 1 then invalid_arg "Router.create: no shards";
  if Array.length strategies <> n_shards then
    invalid_arg "Router.create: one strategy per shard";
  let shards =
    Array.mapi
      (fun s group ->
        (* shard 0 of a 1-shard router is constructed exactly like the
           historical client — same seed, same labels — so default
           configurations reproduce pre-router runs byte for byte *)
        let shard = if n_shards = 1 then None else Some s in
        Client.create ~name ~sim ~net ~replicas:group
          ~strategy:strategies.(s) ~timeout ~read_repair ~targeting ~trace_ctx
          ?policy
          ~seed:(seed + (7919 * s))
          ?metrics ?shard ?batch_window ?adaptive_window ())
      groups
  in
  let ids = Array.map (fun c -> Rpc.Engine.group_ids c.Client.group) shards in
  let owner =
    Array.make (1 + Array.fold_left (Array.fold_left max) (-1) ids) (-1)
  in
  Array.iteri (fun s -> Array.iter (fun i -> owner.(i) <- s)) ids;
  { name; net; shards; shard_of = shard_fn scheme ~n_shards ~n_keys; scheme; owner }

let n_shards t = Array.length t.shards
let shard_of t key = t.shard_of key
let scheme t = t.scheme
let client t ~shard = t.shards.(shard)
let clients t = t.shards
let replicas t ~shard = Rpc.Engine.group_names t.shards.(shard).Client.group

(** Attach the router as the node's net handler.  One shard delegates
    to the client's own attach (the historical path); several shards
    register a demultiplexer that routes each reply to the shard
    owning its source replica (groups are disjoint, so the source
    determines the shard). *)
let attach t =
  if Array.length t.shards = 1 then Client.attach t.shards.(0)
  else
    Net.register_id t.net ~node:(Net.id t.net t.name) (fun ~src msg ->
        if src < Array.length t.owner && t.owner.(src) >= 0 then
          Rpc.Engine.handle_id t.shards.(t.owner.(src)).Client.eng ~src msg)

(** Group keys by owning shard: one (shard, keys) pair per shard that
    owns at least one of the input keys, shards in first-appearance
    order, each shard's keys in input order.  No deduplication — a key
    given twice appears twice.  The txn layer's footprint split. *)
let route_many t keys =
  (* each shard's keys, newest first; a shard joins [order] with its
     first key *)
  let buckets = Array.make (Array.length t.shards) [] in
  let order = ref [] in
  List.iter
    (fun key ->
      let s = t.shard_of key in
      (match buckets.(s) with [] -> order := s :: !order | _ :: _ -> ());
      buckets.(s) <- key :: buckets.(s))
    keys;
  List.rev_map (fun s -> (s, List.rev buckets.(s))) !order

let read t ~key ~on_done =
  Client.read t.shards.(t.shard_of key) ~key ~on_done

let write t ~key ~value ~on_done =
  Client.write t.shards.(t.shard_of key) ~key ~value ~on_done

let install t ~key ~vn ~value ~on_done =
  Client.install t.shards.(t.shard_of key) ~key ~vn ~value ~on_done

let set_policy t p = Array.iter (fun c -> Client.set_policy c p) t.shards
let policy t = Client.policy t.shards.(0)

let set_batch_window t w =
  Array.iter (fun c -> Client.set_batch_window c w) t.shards

let batch_window t = Client.batch_window t.shards.(0)

let set_adaptive_window t cfg =
  Array.iter (fun c -> Client.set_adaptive_window c cfg) t.shards

let adaptive_window t = Client.adaptive_window t.shards.(0)

let set_strategy t ~shard s = Client.set_strategy t.shards.(shard) s
let strategy t ~shard = t.shards.(shard).Client.strategy
let epoch t ~shard = Client.epoch t.shards.(shard)

let set_probe t ~shard pr = Client.set_probe t.shards.(shard) pr
