(** The script interpreter: compile a {!Script.t} onto {!Sim.Net} and
    {!Sim.Failure} against a cluster environment.

    Installing the legacy steps ([Bipartition_storm], [Crash_storm])
    reproduces the pre-script nemesis code paths draw for draw — same
    PRNG streams, schedule call order and trace instants — so seeded
    legacy runs digest identically.  Generic
    timed steps are new behaviour and emit their own ["nemesis.step"]
    instants. *)

module Core = Sim.Core
module Net = Sim.Net

type 'msg env = {
  sim : Core.t;
  net : 'msg Net.t;
  groups : string array array;  (** replica names, one row per shard *)
  clients : string list;
  seed : int;  (** the run seed storms derive their generators from *)
}

val replicas : 'msg env -> string list
(** Every replica name, groups flattened in shard order. *)

val install : 'msg env -> Script.t -> Sim.Failure.t list
(** Install the script: timed steps schedule their actions at their
    (relative) times, storms start their stochastic processes.
    Returns the {!Sim.Failure} injector handles the script created —
    one per replica under a [Crash_storm], one per node touched by a
    scripted [Crash]/[Recover] — for up-fraction inspection.

    @raise Invalid_argument on a script that fails {!Script.validate}
    against the environment's groups and clients. *)
