(** AIMD control of the engine's batching window.

    The signal is the peak per-destination batch size observed at each
    flush: a peak of [busy] or more means distinct requests are
    actually sharing frames, so widening the window buys more
    coalescing per message — additive increase.  A peak below [busy]
    means the window is only adding queue delay — multiplicative
    decrease, collapsing toward 0 (an idle client fires immediately,
    adding no virtual-time latency at all, since a zero-delay flush
    runs in the same instant as the enqueue).

    Peak per destination — not raw queue depth — is deliberate: a
    broadcast client always has one message per replica in the queue,
    so depth alone reads every operation as a burst; frames only form
    when several {e requests} target the same destination. *)

type config = Adaptive | Fixed of float

let default_config = Adaptive
let fixed w = Fixed w

(* the adaptive controller: it starts at 0, widens by [add] per busy
   flush up to [max_window], and halves per idle flush *)
let max_window = 8.0
let add = 1.0
let mult = 0.5
let busy = 4

let validate = function
  | Adaptive -> Ok ()
  | Fixed w when Float.is_finite w && w >= 0.0 -> Ok ()
  | Fixed w -> Error (Fmt.str "a fixed window must be finite and >= 0 (got %g)" w)

type t = { cfg : config; mutable window : float }

let create cfg =
  (match validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Rpc.Window.create: " ^ e));
  let window = match cfg with Adaptive -> 0.0 | Fixed w -> w in
  { cfg; window }

let window t = t.window
let config t = t.cfg

let observe t ~peak =
  match t.cfg with
  | Fixed _ -> ()
  | Adaptive ->
      if peak >= busy then t.window <- Float.min max_window (t.window +. add)
      else begin
        (* snap to 0 once the window shrinks well below the additive
           step: a window that small coalesces nothing the next
           widening wouldn't rebuild, and an idle client must really
           reach fire-immediately instead of decaying forever *)
        let w = t.window *. mult in
        t.window <- (if w <= 0.125 *. add then 0.0 else w)
      end

let pp_config ppf = function
  | Adaptive ->
      Fmt.pf ppf "aimd window=[0, %g] initial=0 +%g x%g busy>=%d" max_window add
        mult busy
  | Fixed w -> Fmt.pf ppf "fixed window=%g" w
