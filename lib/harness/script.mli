(** The fault-schedule DSL: a cluster-test scenario as data.

    A script is a list of steps — timed one-shot actions plus the two
    seeded stochastic processes lifted from the old ad-hoc nemesis
    knobs.  Scripts validate, print to and parse from a compact
    one-line text format (so a failing fuzzer seed becomes a
    copy-pasteable repro), and shrink for failure minimization:

    {v @120 partition r0,r1/r2,r3,r4; @180 heal; storm mean=150 v}

    Times are relative to the moment the script is installed. *)

module Net = Sim.Net

type action =
  | Partition of string list list
      (** cut every link between nodes of distinct sides *)
  | Heal  (** heal every cut link and clear every link filter *)
  | Crash of string
  | Recover of string
  | Link_filter of { src : string; dst : string; spec : Net.drop_spec }
      (** directed per-link fault filter (see {!Sim.Net.drop_spec}) *)
  | Link_clear of { src : string; dst : string }
  | Loss of float  (** set the network-wide loss probability *)
  | Pause_shard of int  (** crash every replica of the shard *)
  | Resume_shard of int  (** recover every replica of the shard *)

type step =
  | At of float * action  (** fire the action at this virtual time *)
  | Bipartition_storm of { mean : float; cycles : int }
      (** the legacy [partitions] nemesis: every ~[mean] time units cut
          the replicas along a random bipartition, heal half a period
          later, for [cycles] cycles; seeded from the run seed *)
  | Crash_storm of Sim.Failure.spec
      (** the legacy [failures] nemesis: exponential crash/recover
          processes on every replica, in the background — they run
          only while the workload still has events pending *)

type t = step list

val action_label : action -> string
val step_label : step -> string

val to_string : t -> string
val pp : t Fmt.t

val of_string : string -> (t, string) result
(** Parse the printed form; [to_string] and [of_string] round-trip. *)

val validate :
  groups:string array array -> clients:string list -> t -> (unit, string) result
(** Well-formedness against a world of replica [groups] (one row per
    shard) and [clients]: finite non-negative times, disjoint
    non-empty partition sides, probabilities in range, every node a
    [Crash], [Recover], [Partition] or link filter names one of the
    world's replicas or clients, and shard indices in
    [\[0, Array.length groups)]. *)

val of_partitions : float -> t
(** The legacy [partitions = Some mean] knob as a script. *)

val of_failures : Sim.Failure.spec -> t
(** The legacy [failures = Some spec] knob as a script. *)

val of_shard_kill : int * float -> t
(** The legacy [shard_kill = Some (shard, at)] knob as a script: a
    [Pause_shard] at [at] with no resume. *)

val of_legacy :
  ?failures:Sim.Failure.spec ->
  ?partitions:float ->
  ?shard_kill:int * float ->
  unit ->
  t
(** All three legacy knobs, compiled in the order the pre-script
    cluster installed them (failures, partitions, shard kill) — the
    order byte-identical replay depends on. *)

val disruptive : action -> bool
(** Does the action introduce a fault (as opposed to repairing one)? *)

val quiesces_at : t -> float option
(** The virtual time after which the script provably leaves the
    cluster healed: every disruptive step is undone by a later
    restorative one and nothing fires afterwards.  [None] when the
    script never settles (storms, a [Pause_shard] or a [Crash] without
    a matching resume or [Recover], ...). *)

val shrink : t -> t list
(** Strictly smaller candidate scripts for failure minimization: each
    step dropped, storm cycles halved, heals pulled earlier.  Greedy
    shrinking with these moves terminates. *)
