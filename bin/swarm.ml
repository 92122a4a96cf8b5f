(* The seed-swarm fuzzer CLI.

   `swarm sweep` pushes a range of seeds through randomized fault
   scripts against a simulated cluster, audits every run
   (single-writer consistency + liveness after heal), minimizes any
   failure to a smaller script, prints a replayable `swarm repro`
   one-liner per failure and optionally a JSON report.  `swarm repro`
   replays one (seed, script) pair and reports the violations.

   Exit status: 0 when every audited run is clean, 1 when any
   violation was found (including a successful repro — reproducing a
   violation is a failing exit so CI can gate on it), 2 on bad input:
   a sweep of fewer than one seed, a shape with no client or no
   operation to audit, a shape or script the cluster rejects, a shard
   wider than 12 replicas, or (without --unsafe) a strategy whose read
   and write quorums do not all intersect ([Store.Strategy.legal]). *)

module Prng = Qc_util.Prng
module Script = Harness.Script

type shape = {
  shards : int;
  replicas : int;
  clients : int;
  ops : int;
  unsafe : bool;
  txn : Store.Txn.mode option;
      (* [Some _] swaps the single-key op loop for the cross-shard
         transaction workload and arms coordinator-kill episodes *)
  tune : bool;
      (* enable the workload-aware quorum optimizer + read steering,
         so the fuzzer audits runs that re-strategize mid-flight *)
}

(* read-1/write-1 quorums do not intersect: the planted bug used by
   the CI canary to prove the swarm catches real violations *)
let unsafe_strategy n =
  Store.Strategy.make ~name:"unsafe-1/1" ~n
    ~read_ok:(fun m -> Store.Strategy.popcount m >= 1)
    ~write_ok:(fun m -> Store.Strategy.popcount m >= 1)

let params_of shape ~seed script =
  {
    Store.Cluster.default_params with
    n_replicas = shape.replicas;
    n_clients = shape.clients;
    n_shards = shape.shards;
    strategy =
      (if shape.unsafe then unsafe_strategy else Store.Strategy.majority);
    targeting = `Quorum;
    policy = Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = shape.ops;
        read_fraction = 0.5;
      };
    seed;
    script;
    txns =
      Option.map
        (fun mode ->
          (* timescales matched to the 300-unit script horizon:
             the default 400-unit coordinator deadline and 150-unit
             recovery base would leave post-fault lock releases
             later than the last scripted heal, failing liveness on
             workload exhaustion rather than on a real bug *)
          {
            Store.Cluster.default_txn_spec with
            commit_mode = mode;
            txns_per_client = max 4 (shape.ops / 2);
            txn_timeout = 80.0;
            txn_retries = 3;
            recovery_delay = 40.0;
          })
        shape.txn;
    tune =
      (if shape.tune then Some Store.Cluster.default_tune_spec else None);
  }

let run_one shape ~seed script =
  let r = Store.Cluster.run (params_of shape ~seed script) in
  let audit = r.Store.Cluster.audit_violations in
  let audit =
    (* Paxos Commit is the non-blocking protocol: any transaction still
       prepared-but-undecided once the script has quiesced is a bug.
       Under 2PC blocked transactions are the expected cost, not a
       violation — the ablation table quantifies them instead. *)
    match shape.txn with
    | Some `Paxos -> (
        match
          Harness.Check.blocked_after_heal ~script
            ~blocked:r.Store.Cluster.blocked_txns
        with
        | Ok () -> audit
        | Error e -> audit @ [ e ])
    | Some `Two_phase | None -> audit
  in
  (* a 2PC run with transactions stranded in doubt is in the protocol's
     documented blocking regime: their locks legitimately starve later
     conflicting transactions, so liveness-after-heal (an AC5-shaped
     claim) does not apply — that cost is quantified by `tables.exe
     txn`, not flagged here.  Every other configuration keeps the
     check. *)
  let blocking_2pc =
    shape.txn = Some `Two_phase && r.Store.Cluster.blocked_txns <> []
  in
  if blocking_2pc then audit
  else
    match
      Harness.Check.liveness_after_heal ~script
        ~completions:r.Store.Cluster.completions
    with
    | Ok () -> audit
    | Error e -> audit @ [ Fmt.str "liveness: %s" e ]

let gen_for shape ~seed =
  Harness.Gen.script
    ~txn:(shape.txn <> None)
    (Prng.create seed)
    ~groups:
      (Store.Cluster.group_names ~n_shards:shape.shards
         ~n_replicas:shape.replicas)
    ~clients:(Store.Cluster.client_names shape.clients)
    ~horizon:300.0

let extra_flags shape =
  Fmt.str "--shards %d --replicas %d --clients %d --ops %d%s%s%s" shape.shards
    shape.replicas shape.clients shape.ops
    (if shape.unsafe then " --unsafe" else "")
    (match shape.txn with
    | None -> ""
    | Some m -> " --txn " ^ Store.Txn.mode_label m)
    (if shape.tune then " --tune" else "")

(* the widest shard swarm takes: quorum targeting enumerates the
   strategy's minimal quorums ([Store.Strategy.quorums], n predicate
   calls for each of the 2^n masks, a few ms at 16 replicas), and
   [Strategy.legal] and the tuner's scoring enumerate 2^n too; the cap
   stays 12 until quorum expressions (ROADMAP item 11) lift it *)
let max_gated_replicas = 12

(* a shape the cluster rejects is bad input: one line, exit 2; so is
   one with no client or no operation, which would audit nothing and
   report clean, one with fewer than 2 replicas, which generated
   scripts may partition, one wider than [max_gated_replicas], and one
   whose strategy is not legal (some read quorum misses some write
   quorum).  --unsafe skips that gate so the planted bug reaches the
   audit. *)
let with_valid shape ~seed script k =
  let p = params_of shape ~seed script in
  let n = shape.shards * shape.replicas in
  let strategy = p.Store.Cluster.strategy shape.replicas in
  match Store.Cluster.validate p with
  | Error e ->
      Fmt.epr "swarm: %s@." e;
      2
  | Ok () when shape.clients < 1 ->
      Fmt.epr "swarm: --clients must be >= 1 (got %d)@." shape.clients;
      2
  | Ok () when shape.ops < 1 ->
      Fmt.epr "swarm: --ops must be >= 1 (got %d)@." shape.ops;
      2
  | Ok () when n < 2 ->
      Fmt.epr "swarm: a shape needs >= 2 replicas in all (got %d)@." n;
      2
  | Ok () when shape.replicas > max_gated_replicas ->
      Fmt.epr
        "swarm: at most %d replicas per shard (got %d): runs enumerate \
         minimal quorums, a cost that grows exponentially@."
        max_gated_replicas shape.replicas;
      2
  | Ok () when (not shape.unsafe) && not (Store.Strategy.legal strategy) ->
      Fmt.epr "swarm: strategy %s is not legal: some read quorum misses some \
               write quorum@."
        strategy.Store.Strategy.name;
      2
  | Ok () -> k ()

(* sweep, minimize each failure, print the repro lines and write the
   report to [json], opened by the caller *)
let run_sweep shape ~seeds ~seed0 ~max_failures json =
  let run ~seed script = run_one shape ~seed script in
  let failures =
    Harness.Swarm.sweep ~run ~gen:(gen_for shape) ~seeds ~seed0 ~max_failures
      ~progress:(fun ~seed ~failed ->
        if failed then Fmt.pr "seed %d: VIOLATION@." seed)
      ()
  in
  let minimized = List.map (Harness.Swarm.minimize ~run) failures in
  let extra = extra_flags shape in
  let report = { Harness.Swarm.seeds; seed0; failures; minimized } in
  Fmt.pr "swept %d seeds from %d: %d failing@." seeds seed0
    (List.length failures);
  List.iter
    (fun (m : Harness.Swarm.outcome) ->
      Fmt.pr "@.seed %d minimized to %d step(s): %s@."
        m.Harness.Swarm.seed
        (List.length m.Harness.Swarm.script)
        (Script.to_string m.Harness.Swarm.script);
      List.iter (fun v -> Fmt.pr "  violation: %s@." v)
        m.Harness.Swarm.violations;
      Fmt.pr "  repro: %s@." (Harness.Swarm.repro_line ~extra m))
    minimized;
  (match json with
  | None -> ()
  | Some (path, oc) ->
      output_string oc (Harness.Swarm.report_json ~extra report);
      close_out oc;
      Fmt.pr "report written to %s@." path);
  if failures = [] then 0 else 1

let sweep shape seeds seed0 max_failures json_path =
  if seeds < 1 then (
    Fmt.epr "swarm: --seeds must be >= 1 (got %d)@." seeds;
    2)
  else if max_failures < 1 then (
    Fmt.epr "swarm: --max-failures must be >= 1 (got %d)@." max_failures;
    2)
  else
    with_valid shape ~seed:seed0 [] @@ fun () ->
    (* open the report before the sweep, so a bad path fails at once *)
    match Option.map (fun path -> (path, open_out path)) json_path with
    | exception Sys_error e ->
        Fmt.epr "swarm: cannot write %s@." e;
        2
    | json -> run_sweep shape ~seeds ~seed0 ~max_failures json

let repro shape seed script_str =
  match Script.of_string script_str with
  | Error e ->
      Fmt.epr "cannot parse script: %s@." e;
      2
  | Ok script ->
      with_valid shape ~seed script @@ fun () ->
      let violations = run_one shape ~seed script in
      Fmt.pr "seed %d, script: %s@." seed (Script.to_string script);
      if violations = [] then begin
        Fmt.pr "audit clean — violation did not reproduce@.";
        0
      end
      else begin
        List.iter (fun v -> Fmt.pr "violation: %s@." v) violations;
        1
      end

(* ---------- CLI ---------- *)

open Cmdliner

let shape_term =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Replica groups.")
  in
  let replicas =
    Arg.(
      value & opt int 3
      & info [ "replicas" ]
          ~doc:
            (Fmt.str
               "Replicas per shard (at most %d: each run enumerates the \
                strategy's minimal quorums)."
               max_gated_replicas))
  in
  let clients = Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Clients.") in
  let ops =
    Arg.(value & opt int 40 & info [ "ops" ] ~doc:"Operations per client.")
  in
  let unsafe =
    Arg.(
      value & flag
      & info [ "unsafe" ]
          ~doc:
            "Run with non-intersecting read-1/write-1 quorums — the planted \
             bug.  The audit must catch it; CI uses this as the canary that \
             the swarm finds real violations.")
  in
  let txn =
    let mode_conv =
      Arg.enum [ ("off", None); ("2pc", Some `Two_phase); ("paxos", Some `Paxos) ]
    in
    Arg.(
      value & opt mode_conv None
      & info [ "txn" ] ~docv:"MODE"
          ~doc:
            "Cross-shard transaction workload: $(b,off) (default, single-key \
             ops), $(b,2pc) (blocking two-phase commit), or $(b,paxos) \
             (Paxos Commit).  Arms coordinator-kill fault episodes; under \
             $(b,paxos) any transaction left blocked after quiescence is a \
             violation.")
  in
  let tune =
    Arg.(
      value & flag
      & info [ "tune" ]
          ~doc:
            "Enable the workload-aware quorum optimizer and queue-aware read \
             steering, so runs re-strategize mid-flight (joint-strategy \
             transition + key migration) while the fault scripts fire.  The \
             audits must stay clean across every committed switch.")
  in
  Term.(
    const (fun shards replicas clients ops unsafe txn tune ->
        { shards; replicas; clients; ops; unsafe; txn; tune })
    $ shards $ replicas $ clients $ ops $ unsafe $ txn $ tune)

let sweep_cmd =
  let seeds =
    Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"Seeds to sweep.")
  in
  let seed0 = Arg.(value & opt int 0 & info [ "seed0" ] ~doc:"First seed.") in
  let max_failures =
    Arg.(
      value & opt int 10
      & info [ "max-failures" ] ~doc:"Stop after this many failing seeds.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report here.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep seeds through randomized fault scripts, audit every run, \
          minimize failures (exit 1 on any violation).")
    Term.(
      const sweep $ shape_term $ seeds $ seed0 $ max_failures $ json)

let repro_cmd =
  let seed =
    Arg.(
      required
      & opt (some int) None
      & info [ "seed" ] ~doc:"Seed of the failing run.")
  in
  let script =
    Arg.(
      value & opt string ""
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:"The fault script, in Harness.Script text form.")
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Replay one (seed, script) pair and report audit violations (exit 1 \
          when the violation reproduces).")
    Term.(const repro $ shape_term $ seed $ script)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "swarm"
             ~doc:
               "Seed-swarm fuzzer for the simulated cluster: randomized \
                fault schedules, consistency audit, failure minimization.")
          [ sweep_cmd; repro_cmd ]))
