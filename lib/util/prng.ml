(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component in this repository draws randomness
    through this module so that executions, simulations, and failure
    injections are exactly reproducible from a single integer seed.
    We deliberately avoid [Stdlib.Random] because its state is global
    and its algorithm is not stable across OCaml releases. *)

(* The 64-bit state lives in an 8-byte buffer: an [int64] record field
   would be boxed, so every draw would allocate. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

(* One splitmix64 step: advance by the golden-gamma constant and mix. *)
let[@inline] next_int64 t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [bits t] returns 62 uniformly random non-negative bits. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(** [int t n] is uniform on [0, n). Requires [n > 0]. *)
let int t n =
  assert (n > 0);
  bits t mod n

(** [float t] is uniform on [0, 1). *)
let[@inline] float t =
  let mantissa = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int mantissa /. 9007199254740992.0 (* 2^53 *)

(** [bool t] is a fair coin flip. *)
let bool t = Int64.logand (next_int64 t) 1L = 1L

(** [range t lo hi] is uniform on the inclusive range [lo, hi]. *)
let range t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

(** [choose t xs] picks a uniform element of the non-empty list [xs]. *)
let choose t xs =
  match xs with
  | [] -> invalid_arg "Prng.choose: empty list"
  | _ -> List.nth xs (int t (List.length xs))

(** [choose_opt t xs] is [None] on the empty list, otherwise a uniform pick. *)
let choose_opt t xs = match xs with [] -> None | _ -> Some (choose t xs)

(** [shuffle t xs] is a uniform permutation of [xs] (Fisher-Yates). *)
let shuffle t xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(** [exponential t ~mean] draws from an exponential distribution. *)
let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

(* The normal ziggurat (Marsaglia & Tsang, "The Ziggurat Method for
   Generating Random Variables", J. Stat. Softw. 5(8), 2000), in
   Doornik's 2005 ZIGNOR layout: 128 layers of equal area [zig_v] under
   [f x = exp (-x^2/2)] on [x >= 0].  Layer [i >= 1] is the rectangle
   [0, x_i] x [f x_i, f x_(i+1)]; layer 0 is the strip under [f R] out
   to [R = x_1] plus the tail beyond [R], drawn as one pseudo-rectangle
   of width [x_0 = V / f R].  [x_128 = 0].

   R and V are Doornik's 3.442619855899 and 9.91256303526217e-3 carried
   to full precision: at 13 digits the chain of edges closes the top
   layer only to 1.2e-9 of V, at these digits every layer's area is V
   to 4e-14.  The tables are built once, here, and never written
   again, so no world or generator pays for them and domains may share
   them. *)
let zig_r = 3.442619855896652

let zig_v = 9.9125630353364708e-3

let zig_x =
  let f x = exp (-0.5 *. x *. x) in
  let x = Array.make 129 0.0 in
  x.(0) <- zig_v /. f zig_r;
  x.(1) <- zig_r;
  for i = 2 to 127 do
    x.(i) <- sqrt (-2.0 *. log ((zig_v /. x.(i - 1)) +. f x.(i - 1)))
  done;
  x

(* [x_(i+1) / x_i]: a draw [u x_i] with [|u|] below it lies inside the
   curve, so it is accepted without evaluating [f]. *)
let zig_ratio = Array.init 128 (fun i -> zig_x.(i + 1) /. zig_x.(i))

(* One 64-bit draw [r] gives a layer and a signed uniform from disjoint
   bits: the layer from bits 0-6, [u] in [-1, 1) from bits 11-63. *)
let[@inline] zig_layer r = Int64.to_int r land 0x7f

let[@inline] zig_bits r = Int64.to_int (Int64.shift_right_logical r 11)

let[@inline] zig_unit m = (float_of_int m *. 0x1p-52) -. 1.0

(* Marsaglia's tail method: [x = -ln U1 / R] is accepted when
   [-2 ln U2 >= x^2]; [R + x] then has the normal's law beyond [R]. *)
let rec zig_tail t ~mu ~sigma neg =
  let x = -.log (1.0 -. float t) /. zig_r in
  let y = -.log (1.0 -. float t) in
  if y +. y >= x *. x then
    let z = zig_r +. x in
    exp (mu +. (sigma *. if neg then -.z else z))
  else zig_tail t ~mu ~sigma neg

(* The draws (about 2.8 %) outside their layer's inner rectangle:
   layer 0 goes to the tail, any other layer accepts [u x_i] when a
   uniform point of its wedge falls under [f]; a rejection starts over
   with a fresh draw.  It is handed the layer and bits 11-63 as ints
   and the caller's boxed [mu] and [sigma], and returns the lognormal
   itself: a float passed to or returned from a call is boxed, so a
   slow draw allocates only its result, as a fast one does. *)
let rec zig_slow t ~mu ~sigma i m =
  let u = zig_unit m in
  if i = 0 then zig_tail t ~mu ~sigma (u < 0.0)
  else
    let x = u *. zig_x.(i) in
    let f0 = exp (-0.5 *. ((zig_x.(i) *. zig_x.(i)) -. (x *. x))) in
    let f1 = exp (-0.5 *. ((zig_x.(i + 1) *. zig_x.(i + 1)) -. (x *. x))) in
    if f1 +. (float t *. (f0 -. f1)) < 1.0 then exp (mu +. (sigma *. x))
    else lognormal t ~mu ~sigma

(** [lognormal t ~mu ~sigma] is [exp (mu + sigma z)] for a standard
    normal [z] drawn by the ziggurat above, exact in distribution.  On
    the fast path [z] costs one 64-bit draw, one table lookup and one
    multiply, and nothing is boxed but the result. *)
and lognormal t ~mu ~sigma =
  let r = next_int64 t in
  let i = zig_layer r and m = zig_bits r in
  let u = zig_unit m in
  if Float.abs u < zig_ratio.(i) then exp (mu +. (sigma *. (u *. zig_x.(i))))
  else zig_slow t ~mu ~sigma i m

module Ziggurat = struct
  let r = zig_r
  let v = zig_v
  let edge i = zig_x.(i)
end

(** [split t] derives an independent child generator; the parent
    advances so successive splits are independent of each other. *)
let split t =
  let child_seed = bits t in
  create child_seed

(** [subset t xs ~p] keeps each element of [xs] independently with
    probability [p]. *)
let subset t xs ~p = List.filter (fun _ -> float t < p) xs
