(** Per-replica exponentially weighted moving averages — the online
    latency tracker behind queue-aware read steering and the
    optimizer's expected-latency model.

    The first observation for an index seeds its average directly
    (rather than blending with zero), so a tracker warms up in one
    round trip per replica; until then [value] returns 0, so steering
    favours a replica it has not heard from yet. *)

(* the blend weight of each new observation *)
let alpha = 0.2

type t = { values : float array; seen : bool array }

let create ~n =
  if n < 1 then invalid_arg "Ewma.create: n must be >= 1";
  { values = Array.make n 0.0; seen = Array.make n false }

let n t = Array.length t.values

let observe t i x =
  if i < 0 || i >= Array.length t.values then
    invalid_arg "Ewma.observe: index out of range";
  if t.seen.(i) then
    t.values.(i) <- t.values.(i) +. (alpha *. (x -. t.values.(i)))
  else begin
    t.values.(i) <- x;
    t.seen.(i) <- true
  end

let value t i =
  if i < 0 || i >= Array.length t.values then
    invalid_arg "Ewma.value: index out of range";
  t.values.(i)

let known t i =
  if i < 0 || i >= Array.length t.seen then
    invalid_arg "Ewma.known: index out of range";
  t.seen.(i)
