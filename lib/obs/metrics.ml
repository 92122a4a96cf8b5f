(** A metrics registry: named counters, gauges, and fixed-bucket
    histograms, each optionally labelled (replica name, operation
    kind, ...).  Requesting the same (name, labels) pair twice returns
    the same instrument, so independently wired components share
    counters naturally.  [dump] lists instruments in registration
    order — deterministic output for deterministic runs. *)

type labels = (string * string) list

type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  bounds : float array;  (** upper bounds, ascending; a final +inf
                             bucket is implicit *)
  counts : int array;  (** length [Array.length bounds + 1] *)
  sum : float array;
      (** one cell: a float field of this mixed record would box every
          write *)
  mutable count : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* A registry key carries its hash, computed once when the key is made
   (a fold of [String.hash] over the name and the canonical labels), so
   neither a lookup nor a rehash of the growing table hashes a string
   again. *)
type key = { name : string; labels : labels; hash : int }

module Ktbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.hash = b.hash
    && String.equal a.name b.name
    && List.equal
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
         a.labels b.labels

  let hash k = k.hash
end)

type t = {
  tbl : instrument Ktbl.t;
  mutable order : (key * instrument) list;  (** reverse registration order *)
}

let create () = { tbl = Ktbl.create 32; order = [] }

let compare_label (k1, v1) (k2, v2) =
  let c = String.compare k1 k2 in
  if c <> 0 then c else String.compare v1 v2

(* Labels are almost always given sorted (or singly): keep those as
   they are, and sort only the rest. *)
let rec sorted = function
  | a :: (b :: _ as rest) -> compare_label a b <= 0 && sorted rest
  | [] | [ _ ] -> true

let canonical labels =
  if sorted labels then labels else List.sort compare_label labels

let make_key name labels =
  let labels = canonical labels in
  let mix h x = (h * 31) + x in
  let hash =
    List.fold_left
      (fun h (k, v) -> mix (mix h (String.hash k)) (String.hash v))
      (String.hash name) labels
  in
  { name; labels; hash }

let find_or_add t ~name ~labels make classify =
  let key = make_key name labels in
  match Ktbl.find_opt t.tbl key with
  | Some i -> (
      match classify i with
      | Some v -> v
      | None ->
          invalid_arg
            (Fmt.str "Metrics: %s re-registered as a different instrument kind"
               name))
  | None ->
      let v, i = make () in
      Ktbl.add t.tbl key i;
      t.order <- (key, i) :: t.order;
      v

let counter t ?(labels = []) name : counter =
  find_or_add t ~name ~labels
    (fun () ->
      let c = { c = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge t ?(labels = []) name : gauge =
  find_or_add t ~name ~labels
    (fun () ->
      let g = { g = 0.0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let default_buckets = [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 |]

let histogram t ?(labels = []) ?(buckets = default_buckets) name : histogram =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly ascending")
    buckets;
  find_or_add t ~name ~labels
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          sum = [| 0.0 |];
          count = 0;
        }
      in
      (h, Histogram h))
    (function
      | Histogram h ->
          (* a second registration must ask for the buckets the
             instrument counts in, or its caller's would be silently
             dropped *)
          if
            Array.length h.bounds = Array.length buckets
            && Array.for_all2 Float.equal h.bounds buckets
          then Some h
          else
            invalid_arg
              (Fmt.str "Metrics: %s re-registered with different buckets"
                 name)
      | _ -> None)

(* ---------- operations ---------- *)

let inc (c : counter) = c.c <- c.c + 1
let value (c : counter) = c.c

let set (g : gauge) x = g.g <- x
let gauge_value (g : gauge) = g.g

(* The first bucket whose bound is at least [x] (the +inf bucket for
   anything above every bound, and for nan), found by a loop: it
   allocates nothing. *)
let observe (h : histogram) x =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && not (x <= h.bounds.(!i)) do
    incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.sum.(0) <- h.sum.(0) +. x;
  h.count <- h.count + 1

let hist_count (h : histogram) = h.count
let hist_sum (h : histogram) = h.sum.(0)

(** (upper bound, count) pairs, the final pair with bound [infinity]. *)
let bucket_counts (h : histogram) : (float * int) list =
  List.init
    (Array.length h.counts)
    (fun i ->
      let bound =
        if i < Array.length h.bounds then h.bounds.(i) else infinity
      in
      (bound, h.counts.(i)))

(** Estimate the [q]-quantile from bucket counts: the upper bound of
    the first bucket whose cumulative count reaches [q * total] (the
    conservative histogram-quantile estimate). *)
let quantile (h : histogram) q =
  if h.count = 0 then nan
  else
    let target =
      int_of_float (ceil (q *. float_of_int h.count -. 1e-9)) |> Int.max 1
    in
    let rec go i acc =
      if i >= Array.length h.counts then infinity
      else
        let acc = acc + h.counts.(i) in
        if acc >= target then
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        else go (i + 1) acc
    in
    go 0 0

(* ---------- dump ---------- *)

let pp_labels ppf = function
  | [] -> ()
  | labels ->
      Fmt.pf ppf "{%a}"
        Fmt.(list ~sep:(any ",") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        labels

let dump t : string =
  let buf = Buffer.create 256 in
  let ppf = Fmt.with_buffer buf in
  List.iter
    (fun (key, i) ->
      match i with
      | Counter c -> Fmt.pf ppf "%s%a %d@." key.name pp_labels key.labels c.c
      | Gauge g -> Fmt.pf ppf "%s%a %g@." key.name pp_labels key.labels g.g
      | Histogram h ->
          Fmt.pf ppf "%s%a count=%d sum=%g%a@." key.name pp_labels key.labels
            h.count h.sum.(0)
            Fmt.(
              list ~sep:nop (fun ppf (b, c) ->
                  if b = infinity then Fmt.pf ppf " le_inf=%d" c
                  else Fmt.pf ppf " le_%g=%d" b c))
            (bucket_counts h))
    (List.rev t.order);
  Fmt.flush ppf ();
  Buffer.contents buf
