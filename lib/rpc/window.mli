(** AIMD control of the engine's multi-key batching window.

    The controller is the engine's only source of the coalescing
    delay: each flush reports the peak per-destination batch size it
    coalesced, and the controller widens the window additively while
    frames are actually forming (peak >= [busy]) and shrinks it
    multiplicatively when they are not — bursts widen toward
    [max_window], idle traffic collapses toward [min_window] (with the
    default [min_window = 0.0], to a same-instant flush that adds no
    latency at all).  A static window is a controller whose range is a
    single point ({!fixed}). *)

type config = {
  min_window : float;  (** floor; [0.0] = fire-immediately when idle *)
  max_window : float;  (** ceiling on the coalescing delay *)
  initial : float;  (** starting window *)
  add : float;  (** additive increase per busy flush *)
  mult : float;  (** multiplicative decrease factor per idle flush *)
  busy : int;  (** peak per-destination batch size that counts as busy *)
}

val default_config : config
(** [min 0, max 8, initial 0, +1.0, x0.5, busy >= 4]. *)

val fixed : float -> config
(** [fixed w] pins the window at [w]: [min_window = max_window =
    initial = w], so {!observe} clamps every widening at [w] and snaps
    every shrink back to it.  A static batching window is this
    config. *)

val validate : config -> (unit, string) result

type t

val create : config -> t
(** @raise Invalid_argument if the config fails {!validate}. *)

val window : t -> float
(** The current coalescing window. *)

val config : t -> config

val observe : t -> peak:int -> unit
(** Report one flush's peak per-destination batch size and adjust the
    window: additive increase when [peak >= busy], multiplicative
    decrease otherwise (snapping to [min_window] within epsilon). *)

val widenings : t -> int
(** Busy flushes observed (additive increases). *)

val shrinkings : t -> int
(** Idle flushes observed (multiplicative decreases). *)

val pp_config : config Fmt.t
