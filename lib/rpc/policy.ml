(** Retry / backoff / hedging policy — see the interface for the
    semantics.  The default is fire-once so that existing seeded runs
    are unchanged byte for byte. *)

type t = { max_attempts : int; backoff : float; hedge_delay : float option }

let attempt_timeout = 25.0
let backoff_mult = 2.0
let jitter = 0.2
let default = { max_attempts = 1; backoff = 5.0; hedge_delay = None }
let retries p = p.max_attempts - 1
let with_retries n = { default with max_attempts = n + 1 }
let with_hedge ?(base = default) d = { base with hedge_delay = Some d }

let validate p =
  if p.max_attempts < 1 then
    Error (Fmt.str "max_attempts must be >= 1 (got %d)" p.max_attempts)
  else if not (Float.is_finite p.backoff && p.backoff >= 0.0) then
    Error (Fmt.str "backoff must be finite and >= 0 (got %g)" p.backoff)
  else
    match p.hedge_delay with
    | Some d when not (Float.is_finite d && d > 0.0) ->
        Error (Fmt.str "hedge_delay must be a finite positive number (got %g)" d)
    | _ -> Ok ()

let retry_delay p ~attempt ~u =
  let base = p.backoff *. (backoff_mult ** float_of_int (attempt - 2)) in
  base *. (1.0 +. (jitter *. ((2.0 *. u) -. 1.0)))

let pp ppf p =
  Fmt.pf ppf "retries=%d attempt_timeout=%g backoff=%gx%g jitter=%g hedge=%s"
    (retries p) attempt_timeout p.backoff backoff_mult jitter
    (match p.hedge_delay with None -> "off" | Some d -> Fmt.str "%g" d)
