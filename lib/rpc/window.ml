(** AIMD control of the engine's batching window.

    The signal is the peak per-destination batch size observed at each
    flush: a peak of [busy] or more means distinct requests are
    actually sharing frames, so widening the window buys more
    coalescing per message — additive increase.  A peak below [busy]
    means the window is only adding queue delay — multiplicative
    decrease, collapsing toward [min_window] (with [min_window = 0.0]
    an idle client fires immediately, adding no virtual-time latency
    at all, since a zero-delay flush runs in the same instant as the
    enqueue).

    Peak per destination — not raw queue depth — is deliberate: a
    broadcast client always has one message per replica in the queue,
    so depth alone reads every operation as a burst; frames only form
    when several {e requests} target the same destination. *)

type config = {
  min_window : float;  (** floor; [0.0] = fire-immediately when idle *)
  max_window : float;  (** ceiling on the coalescing delay *)
  initial : float;  (** starting window *)
  add : float;  (** additive increase per busy flush *)
  mult : float;  (** multiplicative decrease factor per idle flush *)
  busy : int;  (** peak per-destination batch size that counts as busy *)
}

let default_config =
  {
    min_window = 0.0;
    max_window = 8.0;
    initial = 0.0;
    add = 1.0;
    mult = 0.5;
    busy = 4;
  }

let fixed w = { default_config with min_window = w; max_window = w; initial = w }

let validate c =
  let fin x = Float.is_finite x in
  if (not (fin c.min_window)) || c.min_window < 0.0 then
    Error "min_window must be finite and >= 0"
  else if (not (fin c.max_window)) || c.max_window < c.min_window then
    Error "max_window must be finite and >= min_window"
  else if
    (not (fin c.initial)) || c.initial < c.min_window || c.initial > c.max_window
  then Error "initial must lie in [min_window, max_window]"
  else if (not (fin c.add)) || c.add <= 0.0 then
    Error "add must be finite and > 0"
  else if (not (fin c.mult)) || c.mult < 0.0 || c.mult >= 1.0 then
    Error "mult must lie in [0, 1)"
  else if c.busy < 1 then Error "busy must be >= 1"
  else Ok ()

type t = {
  cfg : config;
  mutable window : float;
  mutable widenings : int;
  mutable shrinkings : int;
}

let create cfg =
  (match validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Rpc.Window.create: " ^ e));
  { cfg; window = cfg.initial; widenings = 0; shrinkings = 0 }

let window t = t.window
let config t = t.cfg
let widenings t = t.widenings
let shrinkings t = t.shrinkings

let observe t ~peak =
  if peak >= t.cfg.busy then begin
    t.window <- Float.min t.cfg.max_window (t.window +. t.cfg.add);
    t.widenings <- t.widenings + 1
  end
  else begin
    (* snap to the floor once the window shrinks well below the
       additive step: a window that small coalesces nothing the next
       widening wouldn't rebuild, and min_window = 0 must really reach
       fire-immediately instead of decaying forever *)
    let w = t.window *. t.cfg.mult in
    t.window <-
      (if w <= t.cfg.min_window +. (0.125 *. t.cfg.add) then t.cfg.min_window
       else w);
    t.shrinkings <- t.shrinkings + 1
  end

let pp_config ppf c =
  Fmt.pf ppf "aimd window=[%g, %g] initial=%g +%g x%g busy>=%d" c.min_window
    c.max_window c.initial c.add c.mult c.busy
