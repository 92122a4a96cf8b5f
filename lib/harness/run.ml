(** The script interpreter: compile a {!Script.t} onto the simulation
    primitives — {!Sim.Net} link cuts and fault filters,
    {!Sim.Failure} injectors — against a running cluster environment.

    Byte-identity contract: the two storm steps and [Kill_shard] are
    the legacy nemesis knobs, and installing them reproduces the
    pre-script code paths draw for draw — same PRNG streams (the
    bipartition storm derives its generator from [seed lxor 0x9a97],
    the crash storm draws from the simulation PRNG via
    {!Sim.Failure.attach}), same [Core.schedule] call order, same trace
    instants.  Seeded runs of legacy configurations digest identically
    before and after the script refactor; golden tests pin this.

    The crash storm runs in the background ({!Sim.Core.background}):
    it never keeps a run going once the workload's own events are
    done.

    Timed generic steps are new behaviour and emit their own
    ["nemesis.step"] instants; they drive node health through
    {!Sim.Failure} injector handles so up/down time stays accounted. *)

module Prng = Qc_util.Prng
module Core = Sim.Core
module Net = Sim.Net

type 'msg env = {
  sim : Core.t;
  net : 'msg Net.t;
  groups : string array array;  (** replica names, one row per shard *)
  clients : string list;
  seed : int;  (** the run seed storms derive their generators from *)
}

let replicas env =
  Array.to_list env.groups |> List.concat_map Array.to_list

(* ---------- the legacy bipartition storm, verbatim ---------- *)

let install_storm env ~mean ~cycles =
  let { sim; net; seed; clients = client_names; _ } = env in
  let tracer = Core.tracer sim in
  let replica_names = replicas env in
  let n_total_replicas = List.length replica_names in
  let nrng = Prng.create (seed lxor 0x9a97) in
  let cut_between side_a side_b =
    List.iter
      (fun a -> List.iter (fun b -> Net.cut_link net a b) side_b)
      side_a
  in
  let heal_between side_a side_b =
    List.iter
      (fun a -> List.iter (fun b -> Net.heal_link net a b) side_b)
      side_a
  in
  (* bounded cycles so the event queue eventually drains (the
     workload finishes long before) *)
  let rec nemesis cycles =
    if cycles > 0 then
      Core.schedule sim ~delay:(Prng.exponential nrng ~mean) (fun () ->
          (* random non-trivial bipartition of the replicas *)
          let shuffled = Prng.shuffle nrng replica_names in
          let k = 1 + Prng.int nrng (n_total_replicas - 1) in
          let side_a = List.filteri (fun i _ -> i < k) shuffled in
          let side_b = List.filteri (fun i _ -> i >= k) shuffled in
          (* clients land on a random side, cut off from the other *)
          let other_side = if Prng.bool nrng then side_b else side_a in
          if Obs.Trace.enabled tracer then
            Obs.Trace.instant tracer ~cat:"store" ~name:"nemesis.partition"
              ~track:"nemesis"
              ~args:
                [
                  ("side_a", Obs.Trace.Str (String.concat "," side_a));
                  ("side_b", Obs.Trace.Str (String.concat "," side_b));
                ]
              ();
          cut_between side_a side_b;
          List.iter (fun c -> cut_between [ c ] other_side) client_names;
          Core.schedule sim ~delay:(mean /. 2.0) (fun () ->
              if Obs.Trace.enabled tracer then
                Obs.Trace.instant tracer ~cat:"store" ~name:"nemesis.heal"
                  ~track:"nemesis" ();
              heal_between side_a side_b;
              List.iter (fun c -> heal_between [ c ] other_side) client_names;
              nemesis (cycles - 1)))
  in
  nemesis cycles

(* ---------- generic timed actions ---------- *)

let fire env injector (action : Script.action) =
  let { sim; net; _ } = env in
  let tracer = Core.tracer sim in
  (match action with
  (* the legacy shard-kill emits only its historical instant *)
  | Script.Kill_shard _ -> ()
  | _ ->
      if Obs.Trace.enabled tracer then
        Obs.Trace.instant tracer ~cat:"harness" ~name:"nemesis.step"
          ~track:"nemesis"
          ~args:[ ("step", Obs.Trace.Str (Script.action_label action)) ]
          ());
  match action with
  | Script.Partition sides ->
      let rec cut = function
        | [] -> ()
        | side :: rest ->
            List.iter
              (fun a ->
                List.iter
                  (fun b -> List.iter (fun other -> Net.cut_link net a other) b)
                  rest)
              side;
            cut rest
      in
      cut sides
  | Script.Heal ->
      Net.heal_all_links net;
      Net.clear_link_filters net
  | Script.Crash node ->
      Sim.Failure.set_health (injector node) ~net ~now:(Core.now sim) ~up:false
  | Script.Recover node ->
      Sim.Failure.set_health (injector node) ~net ~now:(Core.now sim) ~up:true
  | Script.Link_filter { src; dst; spec } -> Net.set_link_filter net ~src ~dst spec
  | Script.Link_clear { src; dst } -> Net.clear_link_filter net ~src ~dst
  | Script.Loss p -> Net.set_loss net p
  | Script.Pause_shard s ->
      Array.iter (fun r -> Net.crash net r) env.groups.(s)
  | Script.Resume_shard s ->
      Array.iter (fun r -> Net.recover net r) env.groups.(s)
  | Script.Kill_shard s ->
      let group = env.groups.(s) in
      if Obs.Trace.enabled tracer then
        Obs.Trace.instant tracer ~cat:"store" ~name:"nemesis.shard_kill"
          ~track:"nemesis"
          ~args:[ ("shard", Obs.Trace.Int s) ]
          ();
      Array.iter (fun r -> Net.crash net r) group

(** Install the script against the environment: timed steps schedule
    their actions, storms start their legacy processes.  Returns every
    {!Sim.Failure} injector handle the script created (one per node
    under a [Crash_storm], one per node a scripted [Crash]/[Recover]
    touches), so callers can inspect realized up-fractions. *)
let install (env : 'msg env) (script : Script.t) : Sim.Failure.t list =
  (* node names and shard indices included: a bad one fails at
     install, not minutes into a run *)
  (match Script.validate ~groups:env.groups ~clients:env.clients script with
  | Ok () -> ()
  | Error e -> invalid_arg (Fmt.str "Harness.Run.install: %s" e));
  let scripted : (string, Sim.Failure.t) Hashtbl.t = Hashtbl.create 4 in
  let scripted_order = ref [] in
  let injector node =
    match Hashtbl.find_opt scripted node with
    | Some t -> t
    | None ->
        (* a node can already be down (a crash from an earlier install,
           a REPL `crash`): the injector must mirror the real state or
           a scripted Recover would be an idempotent no-op *)
        let t =
          Sim.Failure.create ~up:(Net.is_up env.net node) ~node
            ~now:(Core.now env.sim) ()
        in
        Hashtbl.replace scripted node t;
        scripted_order := t :: !scripted_order;
        t
  in
  (* create scripted injectors up front, in first-mention order, so
     their accounting clocks all start at install time *)
  List.iter
    (function
      | Script.At (_, (Script.Crash n | Script.Recover n)) ->
          ignore (injector n)
      | _ -> ())
    script;
  let stochastic = ref [] in
  List.iter
    (fun step ->
      match step with
      | Script.At (t, action) ->
          Core.schedule env.sim ~delay:t (fun () -> fire env injector action)
      | Script.Bipartition_storm { mean; cycles } ->
          install_storm env ~mean ~cycles
      | Script.Crash_storm spec ->
          List.iter
            (fun node ->
              let inj =
                Sim.Failure.attach ~sim:env.sim ~net:env.net ~node ~spec ()
              in
              stochastic := inj :: !stochastic)
            (replicas env))
    script;
  List.rev !scripted_order @ List.rev !stochastic
