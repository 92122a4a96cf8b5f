(** The discrete-event simulation core: a virtual clock and an event
    queue of callbacks.  Deterministic given the seed.

    An event is foreground (the default) or background.  A run ends
    once no foreground event remains, so a background process — a
    crash storm, say — never keeps the clock going after the work is
    done.  Foreground events scheduled with {!timer} can be cancelled
    before they run. *)

type t

type timer
(** A cancellable foreground event. *)

val no_timer : timer
(** A timer that is never pending: cancelling it does nothing. *)

val create : seed:int -> t
(** Starts with a disabled tracer: every emission is a no-op until
    {!attach_tracer}. *)

val now : t -> float
val rng : t -> Qc_util.Prng.t
val executed_events : t -> int

val pending : t -> int
(** Foreground events scheduled and neither run nor cancelled yet. *)

val tracer : t -> Obs.Trace.t
(** The simulator's trace sink, shared by every layer built on it. *)

val attach_tracer : t -> Obs.Trace.t -> unit
(** Install a trace sink and wire its clock to the virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the callback at [now + delay], in the foreground.  A negative
    delay is clamped to now and [infinity] is allowed (the event never
    runs before the clock reaches it).  Raises [Invalid_argument] on a
    NaN delay: NaN has no place in the event queue's key order. *)

val timer : t -> delay:float -> (unit -> unit) -> timer
(** {!schedule}, returning a handle for {!cancel}. *)

val cancel : t -> timer -> unit
(** Remove a pending timer.  Cancelling a timer that already ran, was
    already cancelled, or is {!no_timer} does nothing. *)

val background : t -> delay:float -> (unit -> unit) -> unit
(** {!schedule} in the background: the event runs only if foreground
    work is still pending when its time comes. *)

val run : ?until:float -> t -> unit
(** Process events until no foreground event remains or virtual time
    passes [until] (the clock then stops at [until]).  When the
    foreground work runs out the clock stays at the time of the last
    event run. *)
