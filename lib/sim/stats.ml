(** Run-time statistics: latency samples with percentile summaries.

    Samples accumulate in a growable float array (no per-sample boxing
    or list cells), sorting is in [Float.compare] order (total, correct
    on every float) and, like the mean, reads the flat array without
    boxing a sample, and percentiles follow the nearest-rank
    definition: the p-th percentile of n sorted samples is the value
    at rank [ceil (p * n)] (1-based), computed with an epsilon guard
    so binary float noise cannot push the rank off by one. *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 16 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let grown = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 grown 0 t.n;
    t.data <- grown
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

(** Combine two sample sets (e.g. per-replica stats) into a fresh one;
    the inputs are not mutated. *)
let merge a b =
  let t = { data = Array.make (max 16 (a.n + b.n)) 0.0; n = a.n + b.n } in
  Array.blit a.data 0 t.data 0 a.n;
  Array.blit b.data 0 t.data a.n b.n;
  t

(* Nearest-rank percentile of a sorted array: rank ceil(p*n), 1-based.
   The 1e-9 slack keeps e.g. 0.29 *. 100. = 28.999999... from landing
   on rank 29 when the exact product is 29. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else if p <= 0.0 then sorted.(0)
  else if p >= 1.0 then sorted.(n - 1)
  else
    let rank = int_of_float (ceil ((p *. float_of_int n) -. 1e-9)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* [x] sorts before [y] in [Float.compare] order (nan first).  The
   comparison is specialised to floats, so the sort below never boxes
   a sample, as a polymorphic [Array.sort] comparator would. *)
let[@inline] before (x : float) y = Float.compare x y < 0

(* Move [a.(i)] down the max-heap [a.(0 .. n-1)] to its place. *)
let sift_down (a : float array) i n =
  let x = a.(i) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let c = if l + 1 < n && before a.(l) a.(l + 1) then l + 1 else l in
      if before x a.(c) then begin
        a.(!i) <- a.(c);
        i := c
      end
      else sinking := false
    end
  done;
  a.(!i) <- x

(* In-place heapsort, ascending.  Elements [Float.compare] calls equal
   are the same float (or zeros of either sign), so the result is the
   one [Array.sort Float.compare] gives, up to the order of [0.0] and
   [-0.0]. *)
let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- top;
    sift_down a 0 last
  done

let sorted_samples t =
  let a = Array.sub t.data 0 t.n in
  sort_floats a;
  a

(** Nearest-rank percentile of the current samples. *)
let percentile t p = percentile_sorted (sorted_samples t) p

let summarize t : summary =
  let a = sorted_samples t in
  let n = Array.length a in
  if n = 0 then
    {
      count = 0;
      mean = nan;
      p50 = nan;
      p90 = nan;
      p95 = nan;
      p99 = nan;
      p999 = nan;
      max = nan;
    }
  else
    (* left to right, as a fold would add, so the mean is the same
       float *)
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. a.(i)
    done;
    {
      count = n;
      mean = !sum /. float_of_int n;
      p50 = percentile_sorted a 0.50;
      p90 = percentile_sorted a 0.90;
      p95 = percentile_sorted a 0.95;
      p99 = percentile_sorted a 0.99;
      p999 = percentile_sorted a 0.999;
      max = a.(n - 1);
    }

(* The output format predates p95/p999 and stays stable for existing
   callers (tables.exe columns, EXPERIMENTS.md). *)
let pp_summary ppf s =
  if s.count = 0 then Fmt.string ppf "n=0"
  else
    Fmt.pf ppf "n=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f" s.count
      s.mean s.p50 s.p90 s.p99 s.max
