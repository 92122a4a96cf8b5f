(* The four benchmark workloads.  Each varies one kind of traffic the
   read-quorum / version-query-then-install protocol is sensitive to:
   read share, message rounds per commit, or faults.  Run counts are
   fixed per second of --seconds (never measured against a clock), so
   two commits benchmarked with the same arguments simulate exactly the
   same seeds. *)

module Cluster = Store.Cluster
module Workload = Store.Workload
module Script = Harness.Script

type t = {
  name : string;
  why : string;
  runs_per_second : float;
      (** seeded runs per second of --seconds, sized on a 2-core host *)
  params : seed:int -> script:Script.t -> Cluster.params;
  gen : seed:int -> Script.t;  (** the seed's fault script ([[]] = none) *)
}

let no_script ~seed:_ = []

(* 1 shard x 5 replicas, majority, broadcast: the default cluster. *)
let kv_readmostly =
  {
    name = "kv_readmostly";
    why =
      "the default cluster at 90% reads: unbatched single-key ops, so \
       per-message cost in Sim.Core, Sim.Net and Replica.serve dominates";
    runs_per_second = 40.0;
    params =
      (fun ~seed ~script ->
        {
          Cluster.default_params with
          workload = { Workload.default_spec with ops_per_client = 500 };
          seed;
          script;
        });
    gen = no_script;
  }

let kv_sharded_io =
  {
    name = "kv_sharded_io";
    why =
      "4 range shards at 50% writes in bursts of 8 with adaptive batching \
       and group-commit storage: exercises batch frames and the apply \
       pipeline";
    runs_per_second = 50.0;
    params =
      (fun ~seed ~script ->
        {
          Cluster.default_params with
          n_replicas = 3;
          n_shards = 4;
          shard_scheme = `Range;
          workload =
            {
              Workload.default_spec with
              ops_per_client = 500;
              n_keys = 256;
              zipf_s = 1.1;
              read_fraction = 0.5;
              burst = 8;
            };
          adaptive_window = Some Rpc.Window.default_config;
          storage_cost = 0.05;
          fsync_cost = 5.0;
          group_commit = true;
          seed;
          script;
        });
    gen = no_script;
  }

let txn_paxos =
  {
    name = "txn_paxos";
    why =
      "3-key cross-shard transactions under Paxos Commit: many message \
       rounds per commit, replica lock and decision tables, and the \
       serializability audit";
    runs_per_second = 32.0;
    params =
      (fun ~seed ~script ->
        {
          Cluster.default_params with
          n_replicas = 3;
          n_clients = 3;
          n_shards = 3;
          workload = { Workload.default_spec with n_keys = 256 };
          txns =
            Some
              {
                Cluster.default_txn_spec with
                txns_per_client = 100;
                commit_mode = `Paxos;
              };
          seed;
          script;
        });
    gen = no_script;
  }

(* The swarm CLI's default sweep shape, every seed with its own
   generated fault script. *)
let swarm_groups =
  Array.init 4 (fun s -> Array.init 3 (fun i -> Fmt.str "s%d:r%d" s i))

let swarm_clients = List.init 3 (fun i -> Fmt.str "c%d" i)

let swarm_faults =
  {
    name = "swarm_faults";
    why =
      "short seeds under generated fault scripts with retries and hedges, as \
       the CI swarm sweeps them: world build and the fault paths weigh in";
    runs_per_second = 720.0;
    params =
      (fun ~seed ~script ->
        {
          Cluster.default_params with
          n_replicas = 3;
          n_clients = 3;
          n_shards = 4;
          targeting = `Quorum;
          policy = Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
          workload =
            {
              Workload.default_spec with
              ops_per_client = 40;
              read_fraction = 0.5;
            };
          seed;
          script;
        });
    gen =
      (fun ~seed ->
        Harness.Gen.script (Qc_util.Prng.create seed) ~groups:swarm_groups
          ~clients:swarm_clients ~horizon:300.0);
  }

let all = [ kv_readmostly; kv_sharded_io; txn_paxos; swarm_faults ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(** The same shape with nothing to do: what building the world costs. *)
let zero_ops (p : Cluster.params) =
  {
    p with
    workload = { p.workload with ops_per_client = 0 };
    txns =
      Option.map (fun (s : Cluster.txn_spec) -> { s with txns_per_client = 0 }) p.txns;
  }

(** Logical operations attempted: reads and writes, or transactions. *)
let ops (r : Cluster.results) =
  if r.txn_run then r.ok_txns + r.failed_txns
  else r.ok_reads + r.failed_reads + r.ok_writes + r.failed_writes

let ok_ops (r : Cluster.results) =
  if r.txn_run then r.ok_txns else r.ok_reads + r.ok_writes

(** The latency of the operation that commits data: a single-key write
    (version query, then install) or a transaction. *)
let commit_latency (r : Cluster.results) =
  if r.txn_run then r.txn_latency else r.writes

(** What makes a run wrong: audit violations, Paxos Commit transactions
    left in doubt, and — under a fault script — no success after the
    final heal.  The swarm CLI's verdict for the same shape. *)
let violations ~(script : Script.t) (r : Cluster.results) =
  let blocked =
    match r.blocked_txns with
    | [] -> []
    | b ->
        [
          Fmt.str "paxos-commit left %d txn(s) blocked: %s" (List.length b)
            (String.concat "," b);
        ]
  in
  let liveness =
    if script = [] then []
    else
      match
        Harness.Check.liveness_after_heal ~script ~completions:r.completions
      with
      | Ok () -> []
      | Error e -> [ Fmt.str "liveness: %s" e ]
  in
  r.audit_violations @ blocked @ liveness
