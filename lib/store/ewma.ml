(** Per-replica exponentially weighted moving averages — the online
    latency tracker behind queue-aware read steering and the
    optimizer's expected-latency model.

    The first observation for an index seeds its average directly
    (rather than blending with the init value), so a tracker warms up
    in one round trip per replica; until then [value] returns [init],
    which callers choose so that unobserved replicas neither attract
    nor repel the steering cost. *)

type t = {
  alpha : float;  (** blend weight of each new observation, in (0, 1] *)
  init : float;  (** reported for indices never observed *)
  values : float array;
  seen : bool array;
}

let create ~n ?(alpha = 0.2) ?(init = 0.0) () =
  if n < 1 then invalid_arg "Ewma.create: n must be >= 1";
  if
    not
      (Float.is_finite alpha
      && Float.compare alpha 0.0 > 0
      && Float.compare alpha 1.0 <= 0)
  then invalid_arg "Ewma.create: alpha must be in (0, 1]";
  { alpha; init; values = Array.make n init; seen = Array.make n false }

let n t = Array.length t.values
let alpha t = t.alpha

let observe t i x =
  if i < 0 || i >= Array.length t.values then
    invalid_arg "Ewma.observe: index out of range";
  if t.seen.(i) then
    t.values.(i) <- t.values.(i) +. (t.alpha *. (x -. t.values.(i)))
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
