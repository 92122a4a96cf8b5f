(* Wiring: build a complete simulated cluster — replicas, clients,
   network, fault script — drive a workload through it, and collect
   metrics plus a consistency audit.  The field docs of [params] and
   [results] live in cluster.mli.

   [run] builds the world once and hands it to one driver: [drive_ops]
   (single-key reads and writes, in bursts) or [drive_txns] (multi-key
   transactions through {!Txn} coordinators).  Every finished op and
   every final transaction outcome bumps one [finished] count, and
   [drained ()] compares it with the workload's size: the health
   sampler and the tuner both stop polling once it holds, so the event
   queue drains.  [validate] makes every parameter check; [run] raises
   on what it rejects.  DESIGN.md §20.

   The audits live in {!Harness.Check}: the single-writer-per-key
   state machine for single-key runs, the multi-key serializability
   checks for transaction runs.  Fault injection goes through the
   {!Harness.Script} DSL: the [failures]/[partitions]/[shard_kill]
   params compile onto a script ({!Harness.Script.of_legacy}) and
   [script] appends arbitrary steps. *)

module Prng = Qc_util.Prng
module Core = Sim.Core
module Net = Sim.Net

type params = {
  n_replicas : int;
  n_clients : int;
  strategy : int -> Strategy.t;
  workload : Workload.spec;
  latency : Net.latency;
  loss : float;
  timeout : float;
  failures : Sim.Failure.spec option;
  targeting : Client.targeting;
  policy : Rpc.Policy.t;
  partitions : float option;
  seed : int;
  trace_capacity : int;
  tracer : Obs.Trace.t option;
  n_shards : int;
  shard_scheme : Router.scheme;
  batch_window : float option;
  shard_kill : (int * float) option;
  storage_cost : float;
  fsync_cost : float;
  group_commit : bool;
  adaptive_window : Rpc.Window.config option;
  trace_ctx : bool;
  health_window : float option;
  script : Harness.Script.t;
  txns : txn_spec option;
  tune : tune_spec option;
}

and txn_spec = {
  txns_per_client : int;
  keys_per_txn : int;
  txn_read_fraction : float;
  commit_mode : Txn.mode;
  txn_timeout : float;
  txn_retries : int;
  recovery_delay : float;
}

and tune_spec = { optimize : bool; steer : bool }

let default_params =
  {
    n_replicas = 5;
    n_clients = 4;
    strategy = Strategy.majority;
    workload = Workload.default_spec;
    latency = Net.lognormal_latency ~mu:1.0 ~sigma:0.5;
    loss = 0.0;
    timeout = 100.0;
    failures = None;
    targeting = `Broadcast;
    policy = Rpc.Policy.default;
    partitions = None;
    seed = 42;
    trace_capacity = 0;
    tracer = None;
    n_shards = 1;
    shard_scheme = `Hash;
    batch_window = None;
    shard_kill = None;
    storage_cost = 0.0;
    fsync_cost = 0.0;
    group_commit = true;
    adaptive_window = None;
    trace_ctx = false;
    health_window = None;
    script = [];
    txns = None;
    tune = None;
  }

let default_txn_spec =
  {
    txns_per_client = 20;
    keys_per_txn = 3;
    txn_read_fraction = 0.34;
    commit_mode = `Paxos;
    txn_timeout = 400.0;
    txn_retries = 2;
    recovery_delay = 150.0;
  }

let default_tune_spec = { optimize = true; steer = true }

(* the optimizer's period, in virtual time *)
let tune_epoch = 40.0

type shard_stat = { shard : int; ok_ops : int; failed_ops : int; load : int }

type results = {
  reads : Sim.Stats.summary;
  writes : Sim.Stats.summary;
  ok_reads : int;
  failed_reads : int;
  ok_writes : int;
  failed_writes : int;
  net : Net.counters;
  replica_loads : (string * int) list;
  shards : shard_stat list;
  audit_violations : string list;
  duration : float;
  installs : int;
  fsyncs : int;
  trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  health : Obs.Health.snapshot list;
  completions : (float * bool) list;
  txn_run : bool;
  ok_txns : int;
  failed_txns : int;
  txn_latency : Sim.Stats.summary;
  blocked_txns : string list;
  decided_txns : int;
  tune_run : bool;
  strategy_switches : (float * int * string) list;
  shard_strategies : string list;
}

let availability r =
  let ok = r.ok_reads + r.ok_writes and bad = r.failed_reads + r.failed_writes in
  if ok + bad = 0 then nan else float_of_int ok /. float_of_int (ok + bad)

(* ---------- names and parameters ---------- *)

(* one shard keeps the flat names (r0, r1, ...); several qualify them
   with the shard (s0:r0, ...) *)
let group_names ~n_shards ~n_replicas =
  if n_shards = 1 then
    [| Array.init n_replicas (fun i -> "r" ^ string_of_int i) |]
  else
    Array.init n_shards (fun s ->
        let prefix = "s" ^ string_of_int s ^ ":r" in
        Array.init n_replicas (fun i -> prefix ^ string_of_int i))

let client_name ci = "c" ^ string_of_int ci
let client_names n = List.init n client_name

(* the legacy fault knobs compiled onto the script DSL, in the order
   the pre-script nemesis installed them (failures, partitions, shard
   kill), then the scripted steps *)
let script_of p =
  Harness.Script.of_legacy ?failures:p.failures ?partitions:p.partitions
    ?shard_kill:p.shard_kill ()
  @ p.script

(* Every check but the script's, which needs the world's names *)
let check p ~script =
  (* each check is [None] when it passes, formatting nothing; [a ||| b]
     keeps the first failure *)
  let ( ||| ) a b = match a with Some _ -> a | None -> b in
  let fail fmt = Fmt.kstr Option.some fmt in
  let at_least lo what v =
    if v >= lo then None else fail "%s must be >= %d (got %d)" what lo v
  and above_zero what x =
    if x > 0.0 then None else fail "%s must be > 0 (got %g)" what x
  and positive what x =
    if Float.is_finite x && x > 0.0 then None
    else fail "%s must be positive (got %g)" what x
  and non_negative what x =
    if Float.is_finite x && x >= 0.0 then None
    else fail "%s must be finite and >= 0 (got %g)" what x
  and fraction what x =
    if x >= 0.0 && x <= 1.0 then None
    else fail "%s must be in [0, 1] (got %g)" what x
  and within what = function Ok () -> None | Error e -> fail "%s: %s" what e in
  let storm =
    List.exists
      (function Harness.Script.Bipartition_storm _ -> true | _ -> false)
      script
  in
  (* an absent option is checked as its valid default *)
  let wl = p.workload and n = p.n_replicas in
  let txn = Option.value p.txns ~default:default_txn_spec in
  match
    at_least 1 "n_shards" p.n_shards
    ||| at_least 1 "n_replicas" n
    ||| (if n <= Rpc.Engine.max_group then None
         else
           fail
             "n_replicas must be <= %d, the bits in a replica-set mask (got \
              %d)"
             Rpc.Engine.max_group n)
    ||| at_least 0 "n_clients" p.n_clients
    ||| (if p.loss >= 0.0 && p.loss < 1.0 then None
         else fail "loss must be in [0, 1) (got %g)" p.loss)
    ||| above_zero "timeout" p.timeout
    ||| non_negative "storage_cost" p.storage_cost
    ||| non_negative "fsync_cost" p.fsync_cost
    (* a bipartition needs a replica on each side *)
    ||| (if (not storm) || p.n_shards * n >= 2 then None
         else
           fail "a partition storm needs >= 2 replicas (got %d)"
             (p.n_shards * n))
    ||| at_least 1 "n_keys" wl.n_keys
    ||| (if Float.is_finite wl.zipf_s then None
         else fail "zipf_s must be finite (got %g)" wl.zipf_s)
    ||| fraction "read_fraction" wl.read_fraction
    ||| non_negative "think_time" wl.think_time
    ||| at_least 0 "ops_per_client" wl.ops_per_client
    ||| at_least 1 "burst" wl.burst
    ||| at_least 0 "trace_capacity" p.trace_capacity
    ||| non_negative "batch_window" (Option.value p.batch_window ~default:0.0)
    ||| positive "health_window" (Option.value p.health_window ~default:1.0)
    ||| at_least 1 "keys_per_txn" txn.keys_per_txn
    (* a footprint draws distinct keys *)
    ||| (if Option.is_none p.txns || txn.keys_per_txn <= wl.n_keys then None
         else
           fail "keys_per_txn must be <= n_keys (got %d > %d)"
             txn.keys_per_txn wl.n_keys)
    ||| at_least 0 "txns_per_client" txn.txns_per_client
    ||| fraction "txn_read_fraction" txn.txn_read_fraction
    ||| above_zero "txn_timeout" txn.txn_timeout
    ||| at_least 0 "txn_retries" txn.txn_retries
    ||| positive "recovery_delay" txn.recovery_delay
    ||| within "policy" (Rpc.Policy.validate p.policy)
    ||| within "adaptive_window"
          (Option.fold p.adaptive_window ~none:(Ok ())
             ~some:Rpc.Window.validate)
  with
  | Some e -> Error e
  | None -> Ok ()

(* last, against the names of a world [check] accepts *)
let check_script script ~groups ~clients =
  Harness.Script.validate ~groups ~clients script
  |> Result.map_error (( ^ ) "script: ")

let validate p =
  let script = script_of p in
  Result.bind (check p ~script) (fun () ->
      check_script script
        ~groups:(group_names ~n_shards:p.n_shards ~n_replicas:p.n_replicas)
        ~clients:(client_names p.n_clients))

(* ---------- the world and its drivers ---------- *)

(* The built cluster the drivers and the tuner work against. *)
type world = {
  p : params;
  sim : Core.t;
  replicas : Replica.t array array;
  strategies : Strategy.t array;  (** each shard's current strategy *)
  shard_of : string -> int;
  clients : Router.t list;  (** in client order *)
  z : Workload.zipf;
  wrng : Prng.t;  (** the workload's draws: think times, ops, footprints *)
  shard_reads : int array;
  shard_writes : int array;
      (** per-shard finished reads and writes: the live mix the
          optimizer feeds on *)
}

(* Closed loop per client: think, then issue a burst of operations
   concurrently and wait for the whole burst (burst 1 is the strictly
   closed loop).  Single-writer-per-key holds between bursts but not
   within one, so a repeated write to a key in the same burst is
   demoted to a read and same-key writes never race.  [op_done] does
   the bookkeeping of every finished read and write. *)
let drive_ops w ~audit ~op_done =
  let spec = w.p.workload in
  let read c key ~k =
    let started = Core.now w.sim in
    Router.read c ~key ~on_done:(fun ~ok ~vn ~value ~latency ->
        if ok then Harness.Check.read_ok audit ~key ~started ~vn ~value;
        op_done ~key ~read:true ~ok ~latency;
        k ())
  in
  let write c key v ~k =
    Router.write c ~key ~value:v ~on_done:(fun ~ok ~vn ~value:_ ~latency ->
        if ok then
          Harness.Check.write_ok audit ~key ~vn ~value:v ~now:(Core.now w.sim);
        op_done ~key ~read:false ~ok ~latency;
        k ())
  in
  let rec issue ci c remaining op_counter =
    if remaining > 0 then
      let think = Prng.exponential w.wrng ~mean:spec.Workload.think_time in
      Core.schedule w.sim ~delay:think (fun () ->
          let b = Int.min spec.Workload.burst remaining in
          let outstanding = ref b in
          let k () =
            decr outstanding;
            if !outstanding = 0 then issue ci c (remaining - b) (op_counter + b)
          in
          (* draw op j, then issue it *)
          let writes = ref [] in
          for j = 0 to b - 1 do
            match
              Workload.next_op spec w.z w.wrng ~ci ~n_clients:w.p.n_clients
                ~op_counter:(op_counter + j)
            with
            | Workload.Write (key, v)
              when not (List.exists (String.equal key) !writes) ->
                writes := key :: !writes;
                write c key v ~k
            | Workload.Read key | Workload.Write (key, _) -> read c key ~k
          done)
  in
  List.iteri (fun ci c -> issue ci c spec.Workload.ops_per_client ci) w.clients

(* Closed loop per client of multi-key transactions through a {!Txn}
   coordinator: a distinct-key Zipf footprint each, with bounded
   retries (each a fresh txid) spaced by think-time draws.
   [attempted] sees every attempt's outcome, [finished] every
   transaction's final one. *)
let drive_txns w spec ~audit ~attempted ~finished =
  let think () =
    Prng.exponential w.wrng ~mean:w.p.workload.Workload.think_time
  in
  let n_reads =
    int_of_float (spec.txn_read_fraction *. float_of_int spec.keys_per_txn)
  in
  List.iteri
    (fun ci c ->
      let coord =
        Txn.create ~name:(client_name ci) ~sim:w.sim ~router:c
          ~mode:spec.commit_mode ~timeout:spec.txn_timeout ()
      in
      let rec next remaining =
        if remaining > 0 then
          Core.schedule w.sim ~delay:(think ()) (fun () ->
              let keys =
                Workload.footprint w.z w.wrng ~size:spec.keys_per_txn
              in
              let reads = List.filteri (fun i _ -> i < n_reads) keys in
              let wkeys = List.filteri (fun i _ -> i >= n_reads) keys in
              let txn_no = spec.txns_per_client - remaining in
              let writes =
                List.mapi
                  (fun j k -> (k, ((ci + 1) * 1_000_000) + (txn_no * 1000) + j))
                  wkeys
              in
              let rec attempt retries_left =
                let started = Core.now w.sim in
                (* the footprint is nonempty, so on_done fires from a
                   scheduled reply or timeout — never inside execute —
                   and the txid cell is filled before it runs *)
                let txid = ref "" in
                txid :=
                  Txn.execute coord ~reads ~writes
                    ~on_done:(fun ~committed ~reads:rsnap ~writes:wset
                                  ~latency ->
                      attempted committed;
                      if committed then begin
                        Harness.Check.txn_committed audit ~txid:!txid ~started
                          ~now:(Core.now w.sim) ~reads:rsnap ~writes:wset;
                        finished ~ok:true ~latency;
                        next (remaining - 1)
                      end
                      else if retries_left > 0 then
                        Core.schedule w.sim ~delay:(think ()) (fun () ->
                            attempt (retries_left - 1))
                      else begin
                        finished ~ok:false ~latency;
                        next (remaining - 1)
                      end)
                    ()
              in
              attempt spec.txn_retries)
      in
      next spec.txns_per_client)
    w.clients

(* Workload-aware quorum tuning (DESIGN.md §16): per-shard latency
   trackers and queue probes on every client for queue-aware read
   steering, and — when [optimize] — a periodic optimizer that
   re-strategizes shards until the workload has [drained]. *)
let tune w ~steer ~optimize ~drained ~switches =
  let p = w.p in
  let ewmas = Array.init p.n_shards (fun _ -> Ewma.create ~n:p.n_replicas) in
  List.iter
    (fun c ->
      for s = 0 to p.n_shards - 1 do
        Router.set_probe c ~shard:s
          (Some
             {
               Steer.ewma = ewmas.(s);
               queue_depth =
                 (fun i -> float_of_int (Replica.queue_depth w.replicas.(s).(i)));
               steer;
             })
      done)
    w.clients;
  if optimize && not (drained ()) then begin
    let all_keys = List.init p.workload.Workload.n_keys Workload.key_name in
    let migrator = List.hd w.clients in
    let transitioning = Array.make p.n_shards false in
    let set_shard_strategy s st =
      List.iter (fun c -> Router.set_strategy c ~shard:s st) w.clients
    in
    (* Re-strategize shard [s]: move every client to the joint strategy
       (quorums of both old and new — reads still cover data at rest,
       writes already land on new-strategy quorums), migrate each of
       the shard's keys by reading its newest version and re-installing
       it at a joint write quorum, then — after the op deadline has
       fenced out anything issued under the old strategy — commit the
       new one.  Any migration failure aborts back to the old strategy,
       which joint quorums also satisfy. *)
    let begin_transition s next_s =
      let current = w.strategies.(s) in
      let j = Autotune.joint current next_s in
      if Strategy.legal j then begin
        transitioning.(s) <- true;
        let started = Core.now w.sim in
        set_shard_strategy s j;
        let keys = List.filter (fun k -> w.shard_of k = s) all_keys in
        let pending = ref (List.length keys) in
        let failed = ref false in
        let commit () =
          let fence = started +. p.timeout -. Core.now w.sim in
          Core.schedule w.sim ~delay:(Float.max 0.0 fence) (fun () ->
              set_shard_strategy s next_s;
              w.strategies.(s) <- next_s;
              switches := (Core.now w.sim, s, next_s.Strategy.name) :: !switches;
              transitioning.(s) <- false)
        in
        let abort () =
          set_shard_strategy s current;
          transitioning.(s) <- false
        in
        let key_done () =
          decr pending;
          if !pending = 0 then if !failed then abort () else commit ()
        in
        if keys = [] then commit ()
        else
          List.iter
            (fun key ->
              Router.read migrator ~key ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
                  if not ok then begin
                    failed := true;
                    key_done ()
                  end
                  else if vn = 0 then key_done ()
                  else
                    Router.install migrator ~key ~vn ~value
                      ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
                        if not ok then failed := true;
                        key_done ())))
            keys
      end
    in
    let rec tick () =
      Core.schedule w.sim ~delay:tune_epoch (fun () ->
          if not (drained ()) then begin
            for s = 0 to p.n_shards - 1 do
              if not transitioning.(s) then begin
                let reads = w.shard_reads.(s) and writes = w.shard_writes.(s) in
                let f =
                  if reads + writes = 0 then p.workload.Workload.read_fraction
                  else float_of_int reads /. float_of_int (reads + writes)
                in
                match
                  Autotune.choose ~read_fraction:f ~lat:(Ewma.value ewmas.(s))
                    p.n_replicas
                with
                | Some { Autotune.strategy = next_s; _ }
                  when not
                         (String.equal next_s.Strategy.name
                            w.strategies.(s).Strategy.name) ->
                    begin_transition s next_s
                | _ -> ()
              end
            done;
            tick ()
          end)
    in
    tick ()
  end

(* ---------- the run ---------- *)

let run (p : params) : results =
  let fail e = invalid_arg ("Cluster.run: " ^ e) in
  let script = script_of p in
  Result.iter_error fail (check p ~script);
  let groups = group_names ~n_shards:p.n_shards ~n_replicas:p.n_replicas in
  let clients = client_names p.n_clients in
  Result.iter_error fail (check_script script ~groups ~clients);
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
  let net =
    Net.create ~sim
      ~nodes:(List.concat_map Array.to_list (Array.to_list groups) @ clients)
      ~latency:p.latency ~loss:p.loss ()
  in
  (* a storage device per replica, but only when a cost is nonzero:
     otherwise installs stay synchronous and nothing is scheduled *)
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
                (Option.map (fun s -> s.recovery_delay) p.txns)
              ~name ())
          group)
      groups
  in
  let all_replicas = List.concat_map Array.to_list (Array.to_list replicas) in
  List.iter (fun r -> Replica.attach r ~net) all_replicas;
  let strategies = Array.make p.n_shards (p.strategy p.n_replicas) in
  let shard_of =
    Router.shard_fn p.shard_scheme ~n_shards:p.n_shards
      ~n_keys:p.workload.Workload.n_keys
  in
  (* the health monitor, when asked for: per-shard rolling windows fed
     by every finished operation, with the apply-queue probe averaging
     over the shard's replicas *)
  let health =
    Option.map
      (fun window ->
        let queue_depth s =
          let g = replicas.(s) in
          let total =
            Array.fold_left (fun acc r -> acc + Replica.queue_depth r) 0 g
          in
          float_of_int total /. float_of_int (Array.length g)
        in
        Obs.Health.create ~window ~n_shards:p.n_shards ~queue_depth ())
      p.health_window
  in
  let z =
    Workload.zipf ~n:p.workload.Workload.n_keys ~s:p.workload.Workload.zipf_s
  in
  let routers =
    List.mapi
      (fun ci name ->
        let c =
          Router.create ~name ~sim ~net ~groups ~strategies
            ~scheme:p.shard_scheme ~n_keys:p.workload.Workload.n_keys
            ~timeout:p.timeout ~targeting:p.targeting ~trace_ctx:p.trace_ctx
            ~policy:p.policy ~seed:(p.seed + ci) ~metrics
            ?batch_window:p.batch_window ?adaptive_window:p.adaptive_window ()
        in
        Router.attach c;
        c)
      clients
  in
  let w =
    {
      p;
      sim;
      replicas;
      strategies;
      shard_of;
      clients = routers;
      z;
      wrng = Prng.create (p.seed lxor 0xabcdef);
      shard_reads = Array.make p.n_shards 0;
      shard_writes = Array.make p.n_shards 0;
    }
  in
  (* completion bookkeeping shared by both drivers *)
  let finished = ref 0 and completions = ref [] in
  let complete ok = completions := (Core.now sim, ok) :: !completions in
  let read_lat = Sim.Stats.create () and write_lat = Sim.Stats.create () in
  let failed_reads = ref 0 and failed_writes = ref 0 in
  let shard_ok = Array.make p.n_shards 0 in
  let shard_failed = Array.make p.n_shards 0 in
  let op_done ~key ~read ~ok ~latency =
    let s = shard_of key in
    let mix = if read then w.shard_reads else w.shard_writes in
    mix.(s) <- mix.(s) + 1;
    (match health with
    | Some h ->
        Obs.Health.record h ~at:(Core.now sim) ~shard:s ~read ~ok ~latency
    | None -> ());
    if ok then begin
      shard_ok.(s) <- shard_ok.(s) + 1;
      Sim.Stats.add (if read then read_lat else write_lat) latency
    end
    else begin
      shard_failed.(s) <- shard_failed.(s) + 1;
      incr (if read then failed_reads else failed_writes)
    end;
    incr finished;
    complete ok
  in
  let audit = Harness.Check.audit () in
  (* the multi-key audit is fed by every replica's decision hook
     (authoritative — it covers commits whose coordinator died) and by
     client-acked commits *)
  let txn_audit = Harness.Check.txn_audit () in
  let txn_lat = Sim.Stats.create () and failed_txns = ref 0 in
  let per_client =
    match p.txns with
    | None ->
        drive_ops w ~audit ~op_done;
        p.workload.Workload.ops_per_client
    | Some spec ->
        List.iter
          (fun r ->
            Replica.set_on_decided r (fun ~txid ~commit ~writes ->
                Harness.Check.txn_decided txn_audit ~txid ~commit ~writes))
          all_replicas;
        drive_txns w spec ~audit:txn_audit ~attempted:complete
          ~finished:(fun ~ok ~latency ->
            incr finished;
            if ok then Sim.Stats.add txn_lat latency else incr failed_txns);
        spec.txns_per_client
  in
  let total = p.n_clients * per_client in
  let drained () = !finished >= total in
  (* the health sampler: every half-window until the workload drains *)
  let health_samples = ref [] in
  (match health with
  | Some h when not (drained ()) ->
      let period = Obs.Health.window h /. 2.0 in
      let rec tick () =
        Core.schedule sim ~delay:period (fun () ->
            health_samples :=
              List.rev_append (Obs.Health.sample h ~at:(Core.now sim))
                !health_samples;
            if not (drained ()) then tick ())
      in
      tick ()
  | _ -> ());
  (* the optimizer drives single-key workloads only *)
  let switches = ref [] in
  Option.iter
    (fun spec ->
      tune w ~steer:spec.steer
        ~optimize:(spec.optimize && Option.is_none p.txns)
        ~drained
        ~switches)
    p.tune;
  let env = { Harness.Run.sim; net; groups; clients; seed = p.seed } in
  ignore (Harness.Run.install env script : Sim.Failure.t list);
  Core.run sim;
  let blocked_txns, audit_violations =
    match p.txns with
    | None -> ([], Harness.Check.violations audit)
    | Some _ ->
        (* the end-of-run multi-key checks, and the in-doubt set *)
        Harness.Check.txn_check txn_audit;
        ( List.concat_map Replica.in_doubt all_replicas
          |> List.sort_uniq String.compare,
          Harness.Check.txn_violations txn_audit )
  in
  let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let reads = Sim.Stats.summarize read_lat in
  let writes = Sim.Stats.summarize write_lat in
  let txn_latency = Sim.Stats.summarize txn_lat in
  {
    reads;
    writes;
    ok_reads = reads.Sim.Stats.count;
    failed_reads = !failed_reads;
    ok_writes = writes.Sim.Stats.count;
    failed_writes = !failed_writes;
    net = Net.counters net;
    replica_loads =
      List.map
        (fun (r : Replica.t) -> (r.Replica.name, Replica.load r))
        all_replicas;
    shards =
      List.init p.n_shards (fun s ->
          {
            shard = s;
            ok_ops = shard_ok.(s);
            failed_ops = shard_failed.(s);
            load = sum Replica.load (Array.to_list replicas.(s));
          });
    audit_violations;
    duration = Core.now sim;
    installs =
      sum
        (fun (r : Replica.t) -> Obs.Metrics.value r.Replica.installs)
        all_replicas;
    fsyncs = sum Replica.fsyncs all_replicas;
    trace = tracer;
    metrics;
    health = List.rev !health_samples;
    completions = List.rev !completions;
    txn_run = Option.is_some p.txns;
    ok_txns = txn_latency.Sim.Stats.count;
    failed_txns = !failed_txns;
    txn_latency;
    blocked_txns;
    decided_txns = Harness.Check.txn_decided_count txn_audit;
    tune_run = Option.is_some p.tune;
    strategy_switches = List.rev !switches;
    shard_strategies =
      Array.to_list
        (Array.map (fun (s : Strategy.t) -> s.Strategy.name) strategies);
  }

(* Floats render as hex ([%h]), so equality is bit-equality: two runs
   digest equal iff the simulation behaved identically. *)
let digest (r : results) : string =
  let b = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  let summary (s : Sim.Stats.summary) =
    add "%d %h %h %h %h %h %h %h;" s.Sim.Stats.count s.Sim.Stats.mean
      s.Sim.Stats.p50 s.Sim.Stats.p90 s.Sim.Stats.p95 s.Sim.Stats.p99
      s.Sim.Stats.p999 s.Sim.Stats.max
  in
  summary r.reads;
  summary r.writes;
  add "ops %d %d %d %d;" r.ok_reads r.failed_reads r.ok_writes r.failed_writes;
  add "net %d %d %d %d %d %d %d %d %d;" r.net.Net.sent r.net.Net.delivered
    r.net.Net.payload_sent r.net.Net.payload_delivered r.net.Net.dropped
    r.net.Net.drop_sender_down r.net.Net.drop_dest_down r.net.Net.drop_link_cut
    r.net.Net.drop_loss;
  List.iter (fun (name, load) -> add "load %s %d;" name load) r.replica_loads;
  List.iter
    (fun s -> add "shard %d %d %d %d;" s.shard s.ok_ops s.failed_ops s.load)
    r.shards;
  List.iter (fun v -> add "violation %s;" v) r.audit_violations;
  add "duration %h;" r.duration;
  add "io %d %d" r.installs r.fsyncs;
  (* the txn section exists only on transaction runs, so every legacy
     configuration digests byte-identically to before *)
  if r.txn_run then begin
    add ";txns %d %d %d;" r.ok_txns r.failed_txns r.decided_txns;
    summary r.txn_latency;
    List.iter (fun txid -> add "blocked %s;" txid) r.blocked_txns
  end;
  (* likewise, the tune section exists only when tuning was enabled *)
  if r.tune_run then begin
    add ";tune";
    List.iteri (fun s name -> add " %d:%s" s name) r.shard_strategies;
    add ";";
    List.iter
      (fun (at, s, name) -> add "switch %h %d %s;" at s name)
      r.strategy_switches
  end;
  Digest.to_hex (Digest.string (Buffer.contents b))
