(** Failure injection: crash/recover processes driving node liveness.

    Each injector is a handle on one node's health.  The classic
    stochastic process ({!attach}) alternates up and down periods with
    exponentially distributed durations (MTBF up, MTTR down), the
    model behind per-site availability [p = mtbf / (mtbf + mttr)].
    Injectors can also be driven externally ({!create} +
    {!set_health}) — this is what the cluster harness's scripted
    [Crash]/[Recover] steps use — and either way they account
    cumulative up/down time, so tests can check the realized
    up-fraction against the analytic availability. *)

module Prng = Qc_util.Prng

type spec = { mtbf : float; mttr : float }

(** Long-run availability of a node under [spec]. *)
let availability s = s.mtbf /. (s.mtbf +. s.mttr)

(** A handle on one node's health: current state plus cumulative
    up/down accounting since the injector was created. *)
type t = {
  node : string;
  mutable up : bool;
  mutable up_time : float;
  mutable down_time : float;
  mutable last_change : float;  (** virtual time of the last transition *)
  mutable transitions : int;
}

let node t = t.node
let is_up t = t.up
let transitions t = t.transitions

(** An externally driven injector for [node] with the clock starting
    at [now].  [up] (default true) must reflect the node's real state:
    an injector created over an already-down node with [up = true]
    would make the next [set_health ~up:true] an idempotent no-op. *)
let create ?(up = true) ~node ~now () =
  { node; up; up_time = 0.0; down_time = 0.0; last_change = now;
    transitions = 0 }

let account t ~now =
  let dt = now -. t.last_change in
  if t.up then t.up_time <- t.up_time +. dt
  else t.down_time <- t.down_time +. dt;
  t.last_change <- now

(** Drive a health transition from outside (a scripted nemesis step, a
    REPL command): flips the node on the network and accounts the
    elapsed phase.  Idempotent — setting the current state only
    advances the accounting clock. *)
let set_health t ~(net : 'msg Net.t) ~now ~up =
  account t ~now;
  if up <> t.up then begin
    t.transitions <- t.transitions + 1;
    t.up <- up;
    if up then Net.recover net t.node else Net.crash net t.node
  end

(** Fraction of the time since creation the node has been up (1.0
    before any time has passed). *)
let up_fraction t ~now =
  account t ~now;
  let total = t.up_time +. t.down_time in
  if total <= 0.0 then 1.0 else t.up_time /. total

(** Attach the classic stochastic crash/recover process for [node] to
    the network; returns the injector handle.  With [until] the phases
    are foreground events and stop at that virtual time; without it
    they run in the background, for as long as the run has foreground
    work.  Durations draw from the simulation's own PRNG, so identical
    seeds give identical schedules. *)
let attach ~(sim : Core.t) ~(net : 'msg Net.t) ~node ~(spec : spec) ?until ()
    =
  let rng = Core.rng sim in
  let t = create ~node ~now:(Core.now sim) () in
  let at, until =
    match until with
    | Some u -> (Core.schedule sim, u)
    | None -> (Core.background sim, infinity)
  in
  let rec up_phase () =
    let dt = Prng.exponential rng ~mean:spec.mtbf in
    at ~delay:dt (fun () ->
        if Core.now sim < until then begin
          set_health t ~net ~now:(Core.now sim) ~up:false;
          down_phase ()
        end)
  and down_phase () =
    let dt = Prng.exponential rng ~mean:spec.mttr in
    at ~delay:dt (fun () ->
        if Core.now sim < until then begin
          set_health t ~net ~now:(Core.now sim) ~up:true;
          up_phase ()
        end)
  in
  up_phase ();
  t
