(* Tests for the shard router and multi-key batching (lib/store):
   deterministic key → shard maps, batch frames end to end, the
   message economy batching buys under skew, audit cleanliness when
   sharding + batching + partitions compose, and a byte-for-byte trace
   regression pinning default configurations to the pre-router
   behaviour. *)

module Core = Sim.Core
module Net = Sim.Net
module Router = Store.Router
module P = Store.Protocol

(* ---------- routing determinism ---------- *)

let some_keys =
  List.init 200 Store.Workload.key_name
  @ [ "alpha"; "k"; "counter-7"; ""; "the same key" ]

let test_shard_fn_deterministic () =
  List.iter
    (fun scheme ->
      let f = Router.shard_fn scheme ~n_shards:4 ~n_keys:100 in
      let g = Router.shard_fn scheme ~n_shards:4 ~n_keys:100 in
      List.iter
        (fun key ->
          let s = f key in
          Alcotest.(check int)
            (Fmt.str "same map for %S (%s)" key (Router.scheme_label scheme))
            s (g key);
          Alcotest.(check bool) "in range" true (s >= 0 && s < 4))
        some_keys)
    [ `Hash; `Range ];
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Router.shard_fn: n_shards must be >= 1") (fun () ->
      ignore (Router.shard_fn `Hash ~n_shards:0 ~n_keys:10 : string -> int))

let test_range_contiguous () =
  let n_keys = 20 and n_shards = 4 in
  let f = Router.shard_fn `Range ~n_shards ~n_keys in
  let shards = List.init n_keys (fun i -> f (Store.Workload.key_name i)) in
  (* monotone over the key index, covering every shard: contiguous
     equal-width ranges *)
  ignore
    (List.fold_left
       (fun prev s ->
         Alcotest.(check bool) "monotone over key index" true (s >= prev);
         s)
       0 shards);
  List.iteri
    (fun s _ ->
      Alcotest.(check bool)
        (Fmt.str "shard %d owns some range" s)
        true
        (List.mem s shards))
    (List.init n_shards Fun.id);
  (* a key outside the numeric space still routes somewhere stable *)
  let s = f "alpha" in
  Alcotest.(check int) "non-numeric fallback is stable" s (f "alpha")

let test_hash_spreads () =
  let f = Router.shard_fn `Hash ~n_shards:4 ~n_keys:400 in
  let counts = Array.make 4 0 in
  List.iter
    (fun i ->
      let s = f (Store.Workload.key_name i) in
      counts.(s) <- counts.(s) + 1)
    (List.init 400 Fun.id);
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Fmt.str "shard %d gets a fair share (%d)" s c)
        true (c > 40))
    counts

let test_key_index () =
  let check name exp got =
    Alcotest.(check (option int)) name exp got
  in
  check "k12" (Some 12) (Router.key_index "k12");
  check "r3" (Some 3) (Router.key_index "r3");
  check "k" None (Router.key_index "k");
  check "alpha" None (Router.key_index "alpha");
  check "" None (Router.key_index "")

(* The workload's key names are the contract [Router.key_index]
   parses: "k" followed by the decimal index, so the [`Range] map puts
   key i in shard [i * n_shards / n_keys] and sends the rest through
   the hash map. *)
let test_key_name_contract () =
  for i = 0 to 1023 do
    let k = Store.Workload.key_name i in
    Alcotest.(check string) "k<i>" ("k" ^ string_of_int i) k;
    Alcotest.(check (option int)) k (Some i) (Router.key_index k)
  done;
  List.iter
    (fun (n_shards, n_keys) ->
      let range = Router.shard_fn `Range ~n_shards ~n_keys in
      let hash = Router.shard_fn `Hash ~n_shards ~n_keys in
      for i = 0 to 1023 do
        let k = Store.Workload.key_name i in
        Alcotest.(check int)
          (Fmt.str "%s over %d shards, %d keys" k n_shards n_keys)
          (if i < n_keys then i * n_shards / n_keys else hash k)
          (range k)
      done)
    [ (1, 16); (3, 256); (4, 256); (4, 1000); (7, 100) ];
  let range = Router.shard_fn `Range ~n_shards:3 ~n_keys:256 in
  Alcotest.(check (list int)) "3 range shards over 256 keys"
    [ 0; 0; 1; 1; 2; 2 ]
    (List.map range [ "k0"; "k85"; "k86"; "k170"; "k171"; "k255" ])

(* ---------- batch frames ---------- *)

let test_replica_batch_round_trip () =
  let r = Store.Replica.create ~name:"r0" () in
  let tr = Obs.Trace.create ~capacity:64 () in
  let reply =
    Store.Replica.handle_one r ~tr
      (P.Batch_req
         {
           rid = 9;
           reqs =
             [
               P.Install_req { rid = 1; key = "a"; vn = 1; value = 10; ctx = None };
               P.Query_req { rid = 2; key = "a"; ctx = None };
               P.Query_req { rid = 3; key = "missing"; ctx = None };
             ];
         })
  in
  match reply with
  | Some (P.Batch_rep { rid = 9; reps }) ->
      (match reps with
      | [
       P.Install_ack { rid = 1; key = "a" };
       P.Query_rep { rid = 2; key = "a"; vn = 1; value = 10 };
       P.Query_rep { rid = 3; key = "missing"; vn = 0; value = 0 };
      ] ->
          ()
      | _ -> Alcotest.fail "replies must answer each request in order");
      Alcotest.(check int) "both requests counted" 3 (Store.Replica.load r)
  | _ -> Alcotest.fail "a batch request must earn one batch reply"

let test_engine_coalesces_burst () =
  (* two same-tick reads of different keys: with a batch window each
     replica receives ONE wire message carrying two queries *)
  let replica_names = List.init 5 (fun i -> Fmt.str "r%d" i) in
  let run ~batch_window =
    let sim = Core.create ~seed:11 in
    let net = Net.create ~sim ~nodes:("c" :: replica_names) () in
    let replicas =
      List.map (fun name -> Store.Replica.create ~name ()) replica_names
    in
    List.iter (fun r -> Store.Replica.attach r ~net) replicas;
    let client =
      Store.Client.create ~name:"c" ~sim ~net
        ~replicas:(Array.of_list replica_names)
        ~strategy:(Store.Strategy.majority 5) ?batch_window ()
    in
    Store.Client.attach client;
    let ok = ref 0 in
    let on_done ~ok:o ~vn:_ ~value:_ ~latency:_ = if o then incr ok in
    Store.Client.read client ~key:"x" ~on_done;
    Store.Client.read client ~key:"y" ~on_done;
    Core.run sim;
    (!ok, Net.counters net)
  in
  let ok_u, c_u = run ~batch_window:None in
  let ok_b, c_b = run ~batch_window:(Some 1.0) in
  Alcotest.(check int) "unbatched reads succeed" 2 ok_u;
  Alcotest.(check int) "batched reads succeed" 2 ok_b;
  Alcotest.(check int) "unbatched: one wire message per query" c_u.Net.sent
    c_u.Net.payload_sent;
  Alcotest.(check bool)
    (Fmt.str "batched: fewer wire messages than payloads (%d < %d)"
       c_b.Net.sent c_b.Net.payload_sent)
    true
    (c_b.Net.sent < c_b.Net.payload_sent);
  Alcotest.(check int) "same logical payloads either way" c_u.Net.payload_sent
    c_b.Net.payload_sent

(* ---------- message economy under skew ---------- *)

let skewed_params ~batch_window ~seed =
  {
    Store.Cluster.default_params with
    n_replicas = 3;
    n_clients = 4;
    n_shards = 4;
    shard_scheme = `Range;
    batch_window;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 60;
        read_fraction = 0.7;
        zipf_s = 1.1;
        burst = 8;
      };
    seed;
  }

let test_batching_cuts_messages () =
  let u = Store.Cluster.run (skewed_params ~batch_window:None ~seed:13) in
  let b = Store.Cluster.run (skewed_params ~batch_window:(Some 1.0) ~seed:13) in
  let ops r = Store.Cluster.(r.ok_reads + r.ok_writes) in
  Alcotest.(check int) "same completed ops" (ops u) (ops b);
  Alcotest.(check bool) "audit clean (unbatched)" true
    (u.Store.Cluster.audit_violations = []);
  Alcotest.(check bool) "audit clean (batched)" true
    (b.Store.Cluster.audit_violations = []);
  let su = u.Store.Cluster.net.Net.sent
  and sb = b.Store.Cluster.net.Net.sent in
  Alcotest.(check bool)
    (Fmt.str "batching cuts wire messages by >= 30%% (%d -> %d)" su sb)
    true
    (float_of_int sb <= 0.7 *. float_of_int su)

(* ---------- composition: shards + batching + nemesis ---------- *)

let prop_sharded_batched_partitions_audit_clean =
  QCheck.Test.make ~count:6
    ~name:"shards + batching + partitions keep the audit clean"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            n_replicas = 3;
            n_clients = 3;
            n_shards = 3;
            batch_window = Some 1.0;
            targeting = `Quorum;
            policy =
              Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
            (* the partition storm as a harness script — compiles onto
               the identical legacy code path (same PRNG, same digest) *)
            script = Harness.Script.of_partitions 150.0;
            workload =
              {
                Store.Workload.default_spec with
                ops_per_client = 40;
                read_fraction = 0.5;
                zipf_s = 1.1;
                burst = 4;
              };
            seed;
          }
      in
      match r.Store.Cluster.audit_violations with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_report v)

(* ---------- byte-identical default runs ---------- *)

(* Digests of the full JSONL trace export of three seeded default
   (1-shard, unbatched, fire-once) runs, captured before the router
   refactor landed.  Any drift in message order, rid allocation, PRNG
   draws or trace emission changes these strings.  Re-pinned once when
   finished ops began cancelling their deadlines: each trace is the
   old one minus the cancelled timers' [sim/exec] instants. *)
let golden = [ (42, "c5293795c012429a068ee265d5abf13e", 318646);
               (7, "eef8212d226c1cd13ec66ca53a2fbc84", 284475);
               (101, "32de17ec9a0796bdaffaa20644e158cb", 278674) ]

let test_default_trace_golden () =
  List.iter
    (fun (seed, md5, len) ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            n_replicas = 5;
            n_clients = 3;
            workload =
              { Store.Workload.default_spec with ops_per_client = 15 };
            seed;
            trace_capacity = 262144;
          }
      in
      let s = Obs.Export.jsonl r.Store.Cluster.trace in
      Alcotest.(check int) (Fmt.str "seed %d trace length" seed) len
        (String.length s);
      Alcotest.(check string)
        (Fmt.str "seed %d trace digest" seed)
        md5
        (Digest.to_hex (Digest.string s)))
    golden

(* ---------- route_many: the txn layer's footprint split ---------- *)

(* [route_many] must agree with [shard_of] key by key, keep shards in
   first-appearance order, each shard's keys in input order, and
   preserve duplicates — under both schemes *)
let test_route_many_groups () =
  List.iter
    (fun scheme ->
      let sim = Core.create ~seed:1 in
      let groups = Store.Cluster.group_names ~n_shards:3 ~n_replicas:3 in
      let nodes =
        (Array.to_list groups |> List.concat_map Array.to_list) @ [ "c0" ]
      in
      let net =
        Net.create ~sim ~nodes ~latency:(Net.uniform_latency ~lo:1.0 ~hi:1.0) ()
      in
      let r =
        Router.create ~name:"c0" ~sim ~net ~groups
          ~strategies:(Array.make 3 (Store.Strategy.majority 3))
          ~scheme ~n_keys:30 ()
      in
      let keys =
        List.init 12 Store.Workload.key_name @ [ "k3"; "alpha"; "k3" ]
      in
      let split = Router.route_many r keys in
      (* every key lands with its own shard, order and duplicates kept *)
      let flattened =
        List.concat_map (fun (s, ks) -> List.map (fun k -> (s, k)) ks) split
      in
      List.iter
        (fun (s, k) ->
          Alcotest.(check int)
            (Fmt.str "%s agrees with shard_of (%s)" k
               (Router.scheme_label scheme))
            (Router.shard_of r k) s)
        flattened;
      Alcotest.(check (list string))
        "all keys kept, per-shard input order"
        (List.sort String.compare keys)
        (List.sort String.compare (List.map snd flattened));
      (* shards appear once each, in first-appearance order *)
      let shard_order = List.map fst split in
      Alcotest.(check (list int))
        "shards listed once, in first-appearance order"
        (List.fold_left
           (fun acc k ->
             let s = Router.shard_of r k in
             if List.mem s acc then acc else acc @ [ s ])
           [] keys)
        shard_order;
      (* within a shard, keys keep input order *)
      List.iter
        (fun (s, ks) ->
          let expected =
            List.filter (fun k -> Router.shard_of r k = s) keys
          in
          Alcotest.(check (list string))
            (Fmt.str "shard %d keys in input order" s)
            expected ks)
        split;
      (* under [`Range], a contiguous key run splits into contiguous
         per-shard runs *)
      if scheme = `Range then
        List.iter
          (fun (_, ks) ->
            let idx = List.filter_map Router.key_index ks in
            ignore
              (List.fold_left
                 (fun prev i ->
                   Alcotest.(check bool) "contiguous run" true (i >= prev);
                   i)
                 (-1) idx))
          (Router.route_many r (List.init 12 Store.Workload.key_name)))
    [ `Hash; `Range ]

(* The Hashtbl-bucket [route_many] the shard-indexed one replaced: the
   reference of the differential below. *)
let route_many_buckets r keys =
  let buckets : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun key ->
      let s = Router.shard_of r key in
      match Hashtbl.find_opt buckets s with
      | Some l -> l := key :: !l
      | None ->
          Hashtbl.replace buckets s (ref [ key ]);
          order := s :: !order)
    keys;
  List.rev_map (fun s -> (s, List.rev !(Hashtbl.find buckets s))) !order

(* Same shards in the same order, same keys in the same order,
   duplicates kept — over 1 to 5 shards, both schemes, keys drawn from
   a small pool (so repeats are common) that mixes numbered keys inside
   and outside the range partition with unnumbered ones. *)
let prop_route_many_matches_buckets =
  QCheck.Test.make ~count:200 ~name:"route_many = Hashtbl-bucket split"
    QCheck.(
      triple (int_range 1 5) bool (small_list (int_range 0 44)))
    (fun (n_shards, hash, picks) ->
      let sim = Core.create ~seed:1 in
      let groups = Store.Cluster.group_names ~n_shards ~n_replicas:1 in
      let nodes =
        (Array.to_list groups |> List.concat_map Array.to_list) @ [ "c0" ]
      in
      let net = Net.create ~sim ~nodes () in
      let r =
        Router.create ~name:"c0" ~sim ~net ~groups
          ~strategies:(Array.make n_shards (Store.Strategy.majority 1))
          ~scheme:(if hash then `Hash else `Range) ~n_keys:30 ()
      in
      let keys =
        List.map
          (fun i ->
            if i < 40 then Store.Workload.key_name i else Fmt.str "x%d" i)
          picks
      in
      Router.route_many r keys = route_many_buckets r keys)

(* The multi-shard router dispatches a reply by its source's node id:
   to the shard whose group holds the source, and nowhere for a node in
   no group.  Both shard engines start at rid 0, so a misrouted reply
   would land on the other shard's pending read.  Replicas stay
   unattached; the test plays their replies by hand. *)
let test_router_reply_owner () =
  let sim = Core.create ~seed:1 in
  let tr = Obs.Trace.create ~capacity:4096 ~enabled:true () in
  Core.attach_tracer sim tr;
  let groups = Store.Cluster.group_names ~n_shards:2 ~n_replicas:3 in
  let nodes =
    (* x takes an id below the groups', y one above *)
    ("x" :: (Array.to_list groups |> List.concat_map Array.to_list))
    @ [ "c0"; "y" ]
  in
  let net =
    Net.create ~sim ~nodes ~latency:(Net.uniform_latency ~lo:1.0 ~hi:1.0) ()
  in
  let r =
    Router.create ~name:"c0" ~sim ~net ~groups
      ~strategies:(Array.make 2 (Store.Strategy.majority 3))
      ~scheme:`Hash ~n_keys:16 ()
  in
  Router.attach r;
  let key_of s =
    List.find (fun k -> Router.shard_of r k = s) (List.init 16 Store.Workload.key_name)
  in
  let k0 = key_of 0 and k1 = key_of 1 in
  let done_ = ref [] in
  let read key =
    Router.read r ~key ~on_done:(fun ~ok ~vn:_ ~value ~latency:_ ->
        done_ := (key, ok, value) :: !done_)
  in
  read k0;
  read k1;
  let reply ~at ~src key value =
    Core.schedule sim ~delay:at (fun () ->
        Net.send net ~src ~dst:"c0"
          (P.Query_rep { rid = 0; key; vn = 1; value }))
  in
  (* shard 1's replicas answer shard 1's read *)
  reply ~at:1.0 ~src:"s1:r0" k1 11;
  reply ~at:1.0 ~src:"s1:r1" k1 11;
  (* two outsiders answer shard 0's read: ignored *)
  reply ~at:2.0 ~src:"x" k0 99;
  reply ~at:2.0 ~src:"y" k0 99;
  Core.run ~until:5.0 sim;
  Alcotest.(check (list (triple string bool int)))
    "shard 1 completed, shard 0 still waiting" [ (k1, true, 11) ] !done_;
  reply ~at:1.0 ~src:"s0:r2" k0 7;
  reply ~at:1.0 ~src:"s0:r0" k0 7;
  Core.run sim;
  Alcotest.(check (list (triple string bool int)))
    "shard 0 completed from its own replicas"
    [ (k0, true, 7); (k1, true, 11) ]
    !done_;
  (* the engine traces every reply it dispatches: none came from x or y *)
  let outsiders =
    List.filter
      (fun (e : Obs.Trace.event) ->
        String.equal e.name "reply"
        && (List.mem ("from", Obs.Trace.Str "x") e.args
           || List.mem ("from", Obs.Trace.Str "y") e.args))
      (Obs.Trace.events tr)
  in
  Alcotest.(check int) "the outsiders' replies reached no engine" 0
    (List.length outsiders);
  Array.iter
    (fun c ->
      Alcotest.(check int) "pending drained" 0
        (Rpc.Engine.pending_count c.Store.Client.eng))
    (Router.clients r)

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "store.shard",
      [
        Alcotest.test_case "shard_fn is deterministic" `Quick
          test_shard_fn_deterministic;
        Alcotest.test_case "range scheme is contiguous" `Quick
          test_range_contiguous;
        Alcotest.test_case "hash scheme spreads keys" `Quick test_hash_spreads;
        Alcotest.test_case "key_index parses numeric suffixes" `Quick
          test_key_index;
        Alcotest.test_case "key_name is the contract key_index parses"
          `Quick test_key_name_contract;
        Alcotest.test_case "route_many groups by shard" `Quick
          test_route_many_groups;
        qcheck prop_route_many_matches_buckets;
        Alcotest.test_case "a reply goes to its source's shard" `Quick
          test_router_reply_owner;
        Alcotest.test_case "default runs match pre-router traces" `Slow
          test_default_trace_golden;
      ] );
    ( "store.batch",
      [
        Alcotest.test_case "replica batch frame round-trip" `Quick
          test_replica_batch_round_trip;
        Alcotest.test_case "engine coalesces a same-tick burst" `Quick
          test_engine_coalesces_burst;
        Alcotest.test_case "batching cuts messages under skew" `Slow
          test_batching_cuts_messages;
        qcheck prop_sharded_batched_partitions_audit_clean;
      ] );
  ]
