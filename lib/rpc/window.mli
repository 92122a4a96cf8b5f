(** AIMD control of the engine's multi-key batching window.

    The controller is the engine's only source of the coalescing
    delay: each flush reports the peak per-destination batch size it
    coalesced, and an adaptive controller widens the window additively
    while frames are actually forming and shrinks it
    multiplicatively when they are not — bursts widen toward the
    ceiling, idle traffic collapses to a same-instant flush that
    adds no latency at all.  A static window is a {!Fixed} controller,
    which no flush moves. *)

type config =
  | Adaptive
      (** AIMD from 0: +1 per busy flush (peak >= 4) up to 8, x0.5
          per idle flush, snapping to 0 at or below 0.125 *)
  | Fixed of float  (** the window, pinned; every flush waits it *)

val default_config : config
(** [Adaptive]. *)

val fixed : float -> config
(** [fixed w] is [Fixed w]. *)

val validate : config -> (unit, string) result
(** A fixed width must be finite and [>= 0]. *)

type t

val create : config -> t
(** @raise Invalid_argument if the config fails {!validate}. *)

val window : t -> float
(** The current coalescing window. *)

val config : t -> config

val observe : t -> peak:int -> unit
(** Report one flush's peak per-destination batch size.  An adaptive
    window widens on a busy peak and shrinks on an idle one (see
    {!Adaptive}); a fixed window stays put. *)

val pp_config : config Fmt.t
