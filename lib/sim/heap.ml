(** A binary min-heap, the event queue of the discrete-event
    simulator.  Keys are (time, sequence-number) pairs; the sequence
    number breaks ties FIFO so simultaneous events run in scheduling
    order, keeping runs deterministic.

    The heap is an indexed struct of arrays.  By position it keeps
    [times.(i)] (a flat [float array], so times are unboxed),
    [seqs.(i)] and [slots.(i)], the entry's slot.  By slot it keeps the
    value [vals.(s)], the entry's position [pos.(s)] and a generation
    [gens.(s)], bumped whenever the slot's entry leaves.  A handle is
    (generation, slot) packed in an int, so a stale handle — its entry
    taken or cancelled, its slot perhaps reused — fails the generation
    check and cancelling it does nothing.  [slots] is a permutation of
    every slot: positions [0 .. size-1] hold the live entries' slots,
    the positions beyond hold the free ones, so no separate free list
    exists.

    Pushing, taking and cancelling allocate nothing beyond the
    occasional doubling, and every value slot an entry leaves is
    overwritten, so a taken or cancelled value is never kept reachable
    by the heap.  Sifts read the moving key out of the arrays instead
    of taking it as an argument: a [float] argument to a function that
    is not inlined is boxed. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;
  mutable gens : int array;
  mutable vals : 'a array;
  mutable size : int;
}

type handle = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 32) - 1
let none = -1

(* The filler of value slots holding no entry, which are never read.
   It is an immediate, so [vals] is always built as an ordinary block
   array, never a flat float array, whatever ['a] is; every access to
   it here is polymorphic, so a float value is stored boxed. *)
let vacant () : 'a = Obj.magic 0

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    pos = [||];
    gens = [||];
    vals = [||];
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

(* The strict total order on keys.  Seqs are unique, so no two live
   keys are equal; times are never NaN (Core.schedule rejects it). *)
let[@inline] before (t1 : float) (s1 : int) t2 s2 =
  t1 < t2 || (Float.equal t1 t2 && s1 < s2)

(* Only called when full, so every old slot is live and the new
   positions get the new, free slots. *)
let grow h =
  let n = h.size in
  let cap = max 16 (2 * n) in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and slots = Array.init cap Fun.id
  and pos = Array.make cap 0
  and gens = Array.make cap 0
  and vals = Array.make cap (vacant ()) in
  Array.blit h.times 0 times 0 n;
  Array.blit h.seqs 0 seqs 0 n;
  Array.blit h.slots 0 slots 0 n;
  Array.blit h.pos 0 pos 0 n;
  Array.blit h.gens 0 gens 0 n;
  Array.blit h.vals 0 vals 0 n;
  h.times <- times;
  h.seqs <- seqs;
  h.slots <- slots;
  h.pos <- pos;
  h.gens <- gens;
  h.vals <- vals

(* Move the entry at position [i] up to its place. *)
let sift_up h i =
  let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
  let t = times.(i) and s = seqs.(i) and sl = slots.(i) in
  let i = ref i in
  while !i > 0 && before t s times.((!i - 1) / 2) seqs.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    times.(!i) <- times.(p);
    seqs.(!i) <- seqs.(p);
    let ps = slots.(p) in
    slots.(!i) <- ps;
    pos.(ps) <- !i;
    i := p
  done;
  times.(!i) <- t;
  seqs.(!i) <- s;
  slots.(!i) <- sl;
  pos.(sl) <- !i

(* Move the entry at position [i] down to its place among the first
   [n] positions. *)
let sift_down h i n =
  let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
  let t = times.(i) and s = seqs.(i) and sl = slots.(i) in
  let i = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && before times.(r) seqs.(r) times.(l) seqs.(l) then r else l
      in
      if before times.(c) seqs.(c) t s then begin
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        let cs = slots.(c) in
        slots.(!i) <- cs;
        pos.(cs) <- !i;
        i := c
      end
      else sifting := false
    end
  done;
  times.(!i) <- t;
  seqs.(!i) <- s;
  slots.(!i) <- sl;
  pos.(sl) <- !i

(* The entry at position [i], in slot [sl], leaves: release its value,
   retire its handle, fill the hole with the last entry and park the
   freed slot just beyond the live positions. *)
let remove_at h i sl =
  h.vals.(sl) <- vacant ();
  h.gens.(sl) <- (h.gens.(sl) + 1) land gen_mask;
  let n = h.size - 1 in
  h.size <- n;
  if i < n then begin
    let times = h.times and seqs = h.seqs and slots = h.slots in
    times.(i) <- times.(n);
    seqs.(i) <- seqs.(n);
    let ls = slots.(n) in
    slots.(i) <- ls;
    h.pos.(ls) <- i;
    slots.(n) <- sl;
    let p = (i - 1) / 2 in
    if i > 0 && before times.(i) seqs.(i) times.(p) seqs.(p) then sift_up h i
    else sift_down h i n
  end

let[@inline] add h time seq v =
  if h.size = Array.length h.times then grow h;
  let i = h.size in
  let sl = h.slots.(i) in
  h.size <- i + 1;
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.vals.(sl) <- v;
  sift_up h i;
  (h.gens.(sl) lsl slot_bits) lor sl

let[@inline] push h time seq v = ignore (add h time seq v : handle)

let cancel h (handle : handle) =
  let sl = handle land slot_mask in
  if handle >= 0 && sl < Array.length h.gens && h.gens.(sl) = handle lsr slot_bits
  then begin
    remove_at h h.pos.(sl) sl;
    true
  end
  else false

let empty () = invalid_arg "Sim.Heap: empty heap"

let[@inline] min_time h = if h.size = 0 then empty () else h.times.(0)
let[@inline] min_seq h = if h.size = 0 then empty () else h.seqs.(0)

let take h =
  if h.size = 0 then empty ()
  else begin
    let sl = h.slots.(0) in
    let top = h.vals.(sl) in
    remove_at h 0 sl;
    top
  end

let peek h =
  if h.size = 0 then None
  else Some (h.times.(0), h.seqs.(0), h.vals.(h.slots.(0)))

let pop h =
  if h.size = 0 then None
  else
    let time = h.times.(0) and seq = h.seqs.(0) in
    Some (time, seq, take h)
