(* The traced world: [Store.Cluster.run] rebuilt from the public
   constructors, with ledger spans around every call it makes into a
   layer.  It takes the same [Cluster.params], builds the nodes under
   the same names, makes the same PRNG draws and schedules the same
   events in the same order, so a seeded run must digest exactly like
   [Cluster.run] — the benchmark checks that on every traced seed.

   After [Replica.attach] / [Router.attach] each node's [Net] handler is
   registered again, as a wrapper that opens a span and then does what
   the original handler did.  The health monitor and quorum tuning are
   not modelled: no workload of the benchmark turns them on. *)

module Cluster = Store.Cluster
module Replica = Store.Replica
module Router = Store.Router
module Client = Store.Client
module Workload = Store.Workload
module Core = Sim.Core
module Net = Sim.Net
module Prng = Qc_util.Prng
module L = Ledger

type outcome = {
  results : Cluster.results;
  events : int;  (** simulator events executed *)
  pending : int;  (** engine calls still pending after the drain *)
  txn_attempts : int;  (** [Txn.execute] calls, retries included *)
}

(* Serve a replica's frames inside spans; the reply path is
   [Replica.attach]'s, verbatim. *)
let wrap_replica lg net (r : Replica.t) =
  let tr = Net.tracer net in
  let name = r.Replica.name in
  Net.register net ~node:name (fun ~src msg ->
      L.enter lg L.serve;
      Replica.serve r ~src ~tr msg ~reply:(fun rep ->
          L.enter lg L.net_send;
          (match rep with
          | Store.Protocol.Batch_rep { reps; _ } ->
              Net.send net ~src:name ~dst:src ~payloads:(List.length reps) rep
          | rep -> Net.send net ~src:name ~dst:src rep);
          L.leave lg);
      L.leave lg)

(* Deliver a client node's replies inside a span; the dispatch is
   [Router.attach]'s: the single client, or the shard owning the
   sending replica. *)
let wrap_router lg net (c : Router.t) ~name ~groups =
  let shards = Router.clients c in
  let owner = Hashtbl.create 16 in
  Array.iteri
    (fun s group -> Array.iter (fun r -> Hashtbl.replace owner r s) group)
    groups;
  let handle =
    if Array.length shards = 1 then fun ~src msg ->
      Client.handle shards.(0) ~src msg
    else fun ~src msg ->
      match Hashtbl.find_opt owner src with
      | Some s -> Client.handle shards.(s) ~src msg
      | None -> ()
  in
  Net.register net ~node:name (fun ~src msg ->
      L.enter lg L.reply;
      handle ~src msg;
      L.leave lg)

(* Sum a counter over every label set of a registry. *)
let counter_total metrics name =
  String.split_on_char '\n' (Obs.Metrics.dump metrics)
  |> List.fold_left
       (fun acc line ->
         let n = String.length name in
         if
           String.length line > n
           && String.sub line 0 n = name
           && (line.[n] = '{' || line.[n] = ' ')
         then
           match String.rindex_opt line ' ' with
           | Some i -> (
               match
                 int_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
               with
               | Some v -> acc + v
               | None -> acc)
           | None -> acc
         else acc)
       0

let run (lg : L.t) (p : Cluster.params) : outcome =
  if p.health_window <> None || p.tune <> None then
    invalid_arg "World.run: health monitoring and tuning are not modelled";
  if p.n_shards < 1 then invalid_arg "World.run: n_shards must be >= 1";
  L.enter lg L.setup;
  let sim = Core.create ~seed:p.seed in
  let tracer =
    match p.tracer with
    | Some tr -> tr
    | None ->
        Obs.Trace.create ~capacity:p.trace_capacity
          ~enabled:(p.trace_capacity > 0) ()
  in
  Core.attach_tracer sim tracer;
  let metrics = Obs.Metrics.create () in
  let group_names =
    if p.n_shards = 1 then
      [| Array.init p.n_replicas (fun i -> Fmt.str "r%d" i) |]
    else
      Array.init p.n_shards (fun s ->
          Array.init p.n_replicas (fun i -> Fmt.str "s%d:r%d" s i))
  in
  let replica_names =
    Array.to_list group_names |> List.concat_map Array.to_list
  in
  let client_names = List.init p.n_clients (fun i -> Fmt.str "c%d" i) in
  let net =
    Net.create ~sim ~nodes:(replica_names @ client_names) ~latency:p.latency
      ~loss:p.loss ()
  in
  let storage_enabled = p.storage_cost > 0.0 || p.fsync_cost > 0.0 in
  let replicas =
    Array.mapi
      (fun s group ->
        let extra_labels =
          if p.n_shards = 1 then [] else [ ("shard", string_of_int s) ]
        in
        Array.map
          (fun name ->
            let storage =
              if storage_enabled then
                Some
                  (Sim.Storage.create ~sim ~name ~write_cost:p.storage_cost
                     ~fsync_cost:p.fsync_cost ())
              else None
            in
            Replica.create ~metrics ~extra_labels ?storage
              ~group_commit:p.group_commit
              ?txn_recovery_delay:
                (Option.map
                   (fun (s : Cluster.txn_spec) -> s.recovery_delay)
                   p.txns)
              ~name ())
          group)
      group_names
  in
  Array.iter (Array.iter (fun r -> Replica.attach r ~net)) replicas;
  Array.iter (Array.iter (wrap_replica lg net)) replicas;
  let strategies = Array.make p.n_shards (p.strategy p.n_replicas) in
  let n_keys = p.workload.Workload.n_keys in
  let shard_of = Router.shard_fn p.shard_scheme ~n_shards:p.n_shards ~n_keys in
  let read_lat = Sim.Stats.create () and write_lat = Sim.Stats.create () in
  let ok_reads = ref 0 and failed_reads = ref 0 in
  let ok_writes = ref 0 and failed_writes = ref 0 in
  let shard_ok = Array.make p.n_shards 0 in
  let shard_failed = Array.make p.n_shards 0 in
  let audit = Harness.Check.audit () in
  let completions = ref [] in
  let txn_audit = Harness.Check.txn_audit () in
  let ok_txns = ref 0 and failed_txns = ref 0 in
  let txn_lat = Sim.Stats.create () in
  let txn_attempts = ref 0 in
  (match p.txns with
  | None -> ()
  | Some _ ->
      Array.iter
        (Array.iter (fun r ->
             Replica.set_on_decided r (fun ~txid ~commit ~writes ->
                 L.enter lg L.check;
                 Harness.Check.txn_decided txn_audit ~txid ~commit ~writes;
                 L.leave lg)))
        replicas);
  let z = Workload.zipf ~n:n_keys ~s:p.workload.Workload.zipf_s in
  let clients =
    List.mapi
      (fun ci name ->
        let c =
          Router.create ~name ~sim ~net ~groups:group_names ~strategies
            ~scheme:p.shard_scheme ~n_keys ~timeout:p.timeout
            ~targeting:p.targeting ~trace_ctx:p.trace_ctx ~policy:p.policy
            ~seed:(p.seed + ci) ~metrics ?batch_window:p.batch_window
            ?adaptive_window:p.adaptive_window ()
        in
        Router.attach c;
        wrap_router lg net c ~name ~groups:group_names;
        (ci, c))
      client_names
  in
  let wrng = Prng.create (p.seed lxor 0xabcdef) in
  let think_time = p.workload.Workload.think_time in
  L.leave lg;
  let completed ok =
    completions := (Core.now sim, ok) :: !completions
  in
  let run_read (c : Router.t) key ~k =
    let started = Core.now sim in
    L.enter lg L.issue;
    Router.read c ~key ~on_done:(fun ~ok ~vn ~value ~latency ->
        L.enter lg L.clients;
        let s = shard_of key in
        if ok then begin
          incr ok_reads;
          shard_ok.(s) <- shard_ok.(s) + 1;
          L.enter lg L.stats;
          Sim.Stats.add read_lat latency;
          L.leave lg;
          L.enter lg L.check;
          Harness.Check.read_ok audit ~key ~started ~vn ~value;
          L.leave lg
        end
        else begin
          incr failed_reads;
          shard_failed.(s) <- shard_failed.(s) + 1
        end;
        completed ok;
        k ();
        L.leave lg);
    L.leave lg
  in
  let run_write (c : Router.t) key v ~k =
    L.enter lg L.issue;
    Router.write c ~key ~value:v ~on_done:(fun ~ok ~vn ~value:_ ~latency ->
        L.enter lg L.clients;
        let s = shard_of key in
        if ok then begin
          incr ok_writes;
          shard_ok.(s) <- shard_ok.(s) + 1;
          L.enter lg L.stats;
          Sim.Stats.add write_lat latency;
          L.leave lg;
          L.enter lg L.check;
          Harness.Check.write_ok audit ~key ~vn ~value:v ~now:(Core.now sim);
          L.leave lg
        end
        else begin
          incr failed_writes;
          shard_failed.(s) <- shard_failed.(s) + 1
        end;
        completed ok;
        k ();
        L.leave lg);
    L.leave lg
  in
  let run_op c op ~k =
    match op with
    | Workload.Read key -> run_read c key ~k
    | Workload.Write (key, v) -> run_write c key v ~k
  in
  let burst = max 1 p.workload.Workload.burst in
  let rec issue ci c remaining op_counter =
    if remaining > 0 then begin
      L.enter lg L.clients;
      let think = Prng.exponential wrng ~mean:think_time in
      Core.schedule sim ~delay:think (fun () ->
          L.enter lg L.clients;
          (if burst = 1 then
             let k () = issue ci c (remaining - 1) (op_counter + 1) in
             run_op c
               (Workload.next_op p.workload z wrng ~ci ~n_clients:p.n_clients
                  ~op_counter)
               ~k
           else
             let b = min burst remaining in
             let ops =
               List.init b (fun j ->
                   Workload.next_op p.workload z wrng ~ci
                     ~n_clients:p.n_clients ~op_counter:(op_counter + j))
             in
             (* the same repeat-write demotion as Cluster.run *)
             let seen_writes = Hashtbl.create 4 in
             let ops =
               List.map
                 (function
                   | Workload.Read _ as op -> op
                   | Workload.Write (key, _) as op ->
                       if Hashtbl.mem seen_writes key then Workload.Read key
                       else begin
                         Hashtbl.replace seen_writes key ();
                         op
                       end)
                 ops
             in
             let outstanding = ref b in
             let k () =
               decr outstanding;
               if !outstanding = 0 then
                 issue ci c (remaining - b) (op_counter + b)
             in
             List.iter (fun op -> run_op c op ~k) ops);
          L.leave lg);
      L.leave lg
    end
  in
  let run_txns (spec : Cluster.txn_spec) =
    if spec.keys_per_txn < 1 then
      invalid_arg "World.run: keys_per_txn must be >= 1";
    let n_reads =
      int_of_float (spec.txn_read_fraction *. float_of_int spec.keys_per_txn)
    in
    List.iter
      (fun (ci, c) ->
        let coord =
          Store.Txn.create
            ~name:(Fmt.str "c%d" ci)
            ~sim ~router:c ~mode:spec.commit_mode ~timeout:spec.txn_timeout ()
        in
        let rec next remaining =
          if remaining > 0 then begin
            L.enter lg L.clients;
            let think = Prng.exponential wrng ~mean:think_time in
            Core.schedule sim ~delay:think (fun () ->
                L.enter lg L.clients;
                let keys = ref [] and have = ref 0 and tries = ref 0 in
                let cap = 100 * spec.keys_per_txn in
                while !have < spec.keys_per_txn && !tries < cap do
                  incr tries;
                  let k = Workload.key_name (Workload.sample z wrng) in
                  if not (List.exists (String.equal k) !keys) then begin
                    keys := k :: !keys;
                    incr have
                  end
                done;
                let keys = List.rev !keys in
                let reads = List.filteri (fun i _ -> i < n_reads) keys in
                let wkeys = List.filteri (fun i _ -> i >= n_reads) keys in
                let txn_no = spec.txns_per_client - remaining in
                let writes =
                  List.mapi
                    (fun j k -> (k, ((ci + 1) * 1_000_000) + (txn_no * 1000) + j))
                    wkeys
                in
                let rec attempt retries_left =
                  let started = Core.now sim in
                  let txid = ref "" in
                  incr txn_attempts;
                  L.enter lg L.issue;
                  txid :=
                    Store.Txn.execute coord ~reads ~writes
                      ~on_done:(fun ~committed ~reads:rsnap ~writes:wset
                                    ~latency ->
                        L.enter lg L.clients;
                        completed committed;
                        if committed then begin
                          incr ok_txns;
                          L.enter lg L.stats;
                          Sim.Stats.add txn_lat latency;
                          L.leave lg;
                          L.enter lg L.check;
                          Harness.Check.txn_committed txn_audit ~txid:!txid
                            ~started ~now:(Core.now sim) ~reads:rsnap
                            ~writes:wset;
                          L.leave lg;
                          next (remaining - 1)
                        end
                        else if retries_left > 0 then
                          Core.schedule sim
                            ~delay:(Prng.exponential wrng ~mean:think_time)
                            (fun () ->
                              L.enter lg L.clients;
                              attempt (retries_left - 1);
                              L.leave lg)
                        else begin
                          incr failed_txns;
                          next (remaining - 1)
                        end;
                        L.leave lg)
                      ();
                  L.leave lg
                in
                attempt spec.txn_retries;
                L.leave lg);
            L.leave lg
          end
        in
        next spec.txns_per_client)
      clients
  in
  L.enter lg L.clients;
  (match p.txns with
  | None ->
      List.iter
        (fun (ci, c) -> issue ci c p.workload.Workload.ops_per_client ci)
        clients
  | Some spec -> run_txns spec);
  L.leave lg;
  (match p.shard_kill with
  | Some (s, _) when s < 0 || s >= p.n_shards ->
      invalid_arg (Fmt.str "World.run: shard_kill shard %d out of range" s)
  | _ -> ());
  L.enter lg L.script;
  let env =
    {
      Harness.Run.sim;
      net;
      groups = group_names;
      clients = client_names;
      seed = p.seed;
    }
  in
  let script =
    Harness.Script.of_legacy ?failures:p.failures ?partitions:p.partitions
      ?shard_kill:p.shard_kill ()
    @ p.script
  in
  ignore (Harness.Run.install env script : Sim.Failure.t list);
  L.leave lg;
  L.enter lg L.core_run;
  Core.run sim;
  L.leave lg;
  L.enter lg L.stats;
  let all_replicas = Array.to_list replicas |> List.concat_map Array.to_list in
  let blocked =
    match p.txns with
    | None -> []
    | Some _ ->
        L.enter lg L.check;
        Harness.Check.txn_check txn_audit;
        L.leave lg;
        List.concat_map Replica.in_doubt all_replicas
        |> List.sort_uniq String.compare
  in
  let shards =
    List.init p.n_shards (fun s ->
        {
          Cluster.shard = s;
          ok_ops = shard_ok.(s);
          failed_ops = shard_failed.(s);
          load =
            Array.fold_left (fun acc r -> acc + Replica.load r) 0 replicas.(s);
        })
  in
  let results =
    {
      Cluster.reads = Sim.Stats.summarize read_lat;
      writes = Sim.Stats.summarize write_lat;
      ok_reads = !ok_reads;
      failed_reads = !failed_reads;
      ok_writes = !ok_writes;
      failed_writes = !failed_writes;
      net = Net.counters net;
      replica_loads =
        List.map
          (fun (r : Replica.t) -> (r.Replica.name, Replica.load r))
          all_replicas;
      shards;
      audit_violations =
        (match p.txns with
        | None -> Harness.Check.violations audit
        | Some _ -> Harness.Check.txn_violations txn_audit);
      duration = Core.now sim;
      installs =
        List.fold_left
          (fun acc (r : Replica.t) ->
            acc + Obs.Metrics.value r.Replica.installs)
          0 all_replicas;
      fsyncs = List.fold_left (fun acc r -> acc + Replica.fsyncs r) 0 all_replicas;
      trace = tracer;
      metrics;
      health = [];
      completions = List.rev !completions;
      txn_run = p.txns <> None;
      ok_txns = !ok_txns;
      failed_txns = !failed_txns;
      txn_latency = Sim.Stats.summarize txn_lat;
      blocked_txns = blocked;
      decided_txns = Harness.Check.txn_decided_count txn_audit;
      tune_run = false;
      strategy_switches = [];
      shard_strategies =
        Array.to_list
          (Array.map (fun (s : Store.Strategy.t) -> s.Store.Strategy.name)
             strategies);
    }
  in
  L.leave lg;
  let pending =
    List.fold_left
      (fun acc (_, c) ->
        Array.fold_left
          (fun acc (sc : Client.t) -> acc + Rpc.Engine.pending_count sc.Client.eng)
          acc (Router.clients c))
      0 clients
  in
  {
    results;
    events = Core.executed_events sim;
    pending;
    txn_attempts = !txn_attempts;
  }
