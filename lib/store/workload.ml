(** Workload generation: Zipf-distributed keys, a read/write mix, and
    closed-loop clients with think time.

    Each key has a single designated writing client (readers are
    unrestricted).  Single-writer-per-key keeps version numbers
    strictly increasing without a distributed concurrency-control
    layer — CC is the business of {!Cc} and of the formal systems;
    the store isolates the replication behaviour the way Gifford's
    original evaluation did. *)

module Prng = Qc_util.Prng

(* [names.(i)] is rank [i]'s key name, made on first use and kept for
   the life of the world ([""] until then), so no operation formats a
   key. *)
type zipf = { cdf : float array; names : string array }

(** Zipf(s) over [n] ranks, by inverse-CDF sampling. *)
let zipf ~n ~s =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  { cdf; names = Array.make n "" }

let sample z rng =
  let u = Prng.float rng in
  let n = Array.length z.cdf in
  (* binary search for the first index with cdf >= u *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if z.cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  go 0 (n - 1)

type spec = {
  n_keys : int;
  zipf_s : float;  (** 0.0 = uniform *)
  read_fraction : float;
  think_time : float;  (** mean think time between a client's ops *)
  ops_per_client : int;
  burst : int;
      (** operations a client issues concurrently per think interval
          (waiting for the whole burst before thinking again); 1 — the
          default, and the historical behaviour — is strictly one
          operation in flight.  Bursts are what give the engine
          several distinct keys in flight to batch. *)
}

let default_spec =
  {
    n_keys = 16;
    zipf_s = 0.9;
    read_fraction = 0.9;
    think_time = 5.0;
    ops_per_client = 200;
    burst = 1;
  }

type op = Read of string | Write of string * int

let key_name i = "k" ^ string_of_int i

(* A write owner's fallback key can lie past the Zipf ranks (a client
   index at or above [n_keys]): that one is made each time. *)
let name z i =
  if i >= Array.length z.names then key_name i
  else
    match z.names.(i) with
    | "" ->
        let k = key_name i in
        z.names.(i) <- k;
        k
    | k -> k

(** The next operation for [client] (index [ci] of [n_clients]):
    reads go anywhere; writes are restricted to keys this client owns
    (key index mod n_clients = ci). *)
let next_op spec z rng ~ci ~n_clients ~op_counter : op =
  if Prng.float rng < spec.read_fraction then
    Read (name z (sample z rng))
  else
    (* project the sampled key onto this client's ownership class *)
    let k = sample z rng in
    let k = k - (k mod n_clients) + ci in
    let k = if k < spec.n_keys then k else ci in
    Write (name z k, (op_counter * 1000) + ci)

let footprint z rng ~size =
  let keys = ref [] and have = ref 0 and tries = ref 0 in
  let cap = 100 * size and n = Array.length z.names in
  (* Zipf draws first; a tail too thin to draw from in time then gives
     the lowest ranks not drawn yet with no further draw, so a later
     draw never depends on whether a footprint had to be filled *)
  while !have < size && !tries < cap + n do
    let k =
      if !tries < cap then name z (sample z rng) else name z (!tries - cap)
    in
    incr tries;
    if not (List.exists (String.equal k) !keys) then begin
      keys := k :: !keys;
      incr have
    end
  done;
  List.rev !keys
