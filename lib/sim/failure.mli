(** Failure injection: injector handles on node health.  The classic
    stochastic process ({!attach}) alternates exponentially-distributed
    up (MTBF) and down (MTTR) periods — the model behind per-site
    availability [p = mtbf / (mtbf + mttr)] — and injectors can also
    be driven externally ({!create} + {!set_health}), which is how
    scripted nemesis steps flip health.  Either way the handle
    accounts cumulative up/down time. *)

type spec = { mtbf : float; mttr : float }

val availability : spec -> float
(** Long-run availability under the spec. *)

type t
(** A handle on one node's health, with up/down-time accounting. *)

val node : t -> string
val is_up : t -> bool
val transitions : t -> int
(** Health flips so far (externally driven or stochastic). *)

val create : ?up:bool -> node:string -> now:float -> unit -> t
(** An externally driven injector, initially up — pass [~up:false]
    when the node is already down (an injector installed over an
    existing fault must reflect the node's real state, or a scripted
    [Recover] would be an idempotent no-op). *)

val set_health : t -> net:'msg Net.t -> now:float -> up:bool -> unit
(** Drive a health transition from outside: flips the node on the
    network and accounts the elapsed phase.  Idempotent — setting the
    current state only advances the accounting clock. *)

val up_fraction : t -> now:float -> float
(** Fraction of the time since creation the node has been up — for
    long stochastic runs this converges to {!availability}. *)

val attach :
  sim:Core.t -> net:'msg Net.t -> node:string -> spec:spec -> ?until:float ->
  unit -> t
(** Attach the stochastic crash/recover process for the node; returns
    the injector handle.  With [until] the process is foreground work
    that stops at that virtual time; without it the process runs in
    the background ({!Core.background}) for as long as the run has
    foreground work, and never keeps a run going by itself.  Durations
    draw from the simulation's PRNG — identical seeds give identical
    schedules. *)
