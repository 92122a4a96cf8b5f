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
  let t = { data = Array.make (Int.max 16 (a.n + b.n)) 0.0; n = a.n + b.n } in
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
    sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))

(* [x] sorts before [y] in [Float.compare] order (nan first).  The
   comparison is specialised to floats, so the sort below never boxes
   a sample, as a polymorphic [Array.sort] comparator would. *)
let[@inline] before (x : float) y = Float.compare x y < 0

(* The length of the runs insertion sort makes before merging. *)
let run = 8

(* Merge the sorted runs [s.(lo .. mid-1)] and [s.(mid .. hi-1)] into
   [d.(lo .. hi-1)], taking from the left run on ties. *)
let merge_runs (s : float array) (d : float array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let x = s.(!i) and y = s.(!j) in
    if before y x then begin
      d.(!k) <- y;
      incr j
    end
    else begin
      d.(!k) <- x;
      incr i
    end;
    incr k
  done;
  Array.blit s !i d !k (mid - !i);
  Array.blit s !j d (!k + mid - !i) (hi - !j)

(* Stable bottom-up merge sort, ascending: insertion-sort runs of
   [run] samples in place, then merge widths [run], [2 * run], ...
   back and forth between [a] and one scratch array, and return
   whichever holds the result.  Unlike a heapsort's sift, whose every
   branch is a coin flip on random samples, a merge's branches follow
   the runs.  Being stable, the result is the one
   [Array.stable_sort Float.compare] gives, bit for bit (the order of
   [0.0] and [-0.0] included). *)
let sort_floats (a : float array) =
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min n (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j > !lo && before x a.(!j - 1) do
        a.(!j) <- a.(!j - 1);
        decr j
      done;
      a.(!j) <- x
    done;
    lo := hi
  done;
  let src = ref a and dst = ref a and width = ref run in
  if n > run then dst := Array.create_float n;
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min n (!lo + !width) in
      let hi = Int.min n (mid + !width) in
      merge_runs s d !lo mid hi;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

let sorted t = sort_floats (Array.sub t.data 0 t.n)

(** Nearest-rank percentile of the current samples. *)
let percentile t p = percentile_sorted (sorted t) p

let summarize t : summary =
  let a = sorted t in
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
