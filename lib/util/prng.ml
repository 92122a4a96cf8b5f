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

(** [lognormal t ~mu ~sigma] draws from a log-normal distribution,
    using a Box-Muller normal variate underneath. *)
let lognormal t ~mu ~sigma =
  let u1 = 1.0 -. float t and u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  exp (mu +. (sigma *. z))

(** [split t] derives an independent child generator; the parent
    advances so successive splits are independent of each other. *)
let split t =
  let child_seed = bits t in
  create child_seed

(** [subset t xs ~p] keeps each element of [xs] independently with
    probability [p]. *)
let subset t xs ~p = List.filter (fun _ -> float t < p) xs
