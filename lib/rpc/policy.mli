(** Retry / backoff / hedging policy for replication RPC calls.

    A call under the {e default} policy behaves exactly like the
    historical fire-once clients: one wave of messages, no per-attempt
    timer, no hedge timer — the only clock running against the
    operation is its overall deadline.  Every knob beyond that is
    opt-in, so seeded runs that do not use it are bit-for-bit
    unchanged. *)

type t = {
  max_attempts : int;
      (** total send waves per call; 1 = fire once (no retries) *)
  backoff : float;
      (** extra delay before the second attempt; doubles per further
          attempt, jittered (see {!retry_delay}) *)
  hedge_delay : float option;
      (** after this delay without completion, fan the request out to
          every candidate beyond the initial wave; [None] disables
          hedging *)
}

val attempt_timeout : float
(** Virtual time units before an unfinished attempt triggers a retry:
    25.  Only armed when [max_attempts > 1]. *)

val default : t
(** Fire once: [max_attempts = 1], [backoff = 5], no hedging. *)

val retries : t -> int
(** [max_attempts - 1]. *)

val with_retries : int -> t
(** [with_retries n] is [default] with [n] retries ([n + 1] attempts). *)

val with_hedge : ?base:t -> float -> t
(** [with_hedge d] enables hedging after [d] time units. *)

val validate : t -> (unit, string) result
(** [max_attempts >= 1], [backoff] finite and [>= 0], [hedge_delay]
    finite and positive; the error names the offending field. *)

val retry_delay : t -> attempt:int -> u:float -> float
(** Backoff delay scheduled before [attempt] (2-based), jittered by
    the uniform draw [u] in [0, 1):
    [backoff * 2^(attempt - 2) * (1 + 0.2 * (2u - 1))].  The draw comes
    from the engine's own PRNG, so retry storms de-synchronize while
    runs stay seed-reproducible.  Exposed pure so tests can pin the
    bounds. *)

val pp : t Fmt.t
(** One-line rendering, e.g.
    [retries=2 attempt_timeout=25 backoff=5x2 jitter=0.2 hedge=10]. *)
