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
   keys are equal; times are never NaN (Core.schedule rejects it), so
   [t1 <= t2] after [not (t1 < t2)] means equal times.  Two machine
   compares: [Float.equal], which must also order NaN, compiles to a
   dozen instructions. *)
let[@inline] before (t1 : float) (s1 : int) t2 s2 =
  t1 < t2 || (t1 <= t2 && s1 < s2)

(* Only called when full, so every old slot is live and the new
   positions get the new, free slots. *)
let grow h =
  let n = h.size in
  let cap = Int.max 16 (2 * n) in
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

(* The sifts below index [times], [seqs], [slots] and [pos] unchecked.
   The four arrays (and [gens]) always share one length, the capacity;
   [size] never exceeds it; every position a loop touches is below
   [size]; and every slot is below the capacity, since [slots] is a
   permutation of [0 .. capacity-1].  [vals] is polymorphic and stays
   checked: nothing here reads it in a loop. *)

(* Move the entry at position [i] up to its place.  Safe: [i] is below
   [size] and each step goes to the parent, a smaller position. *)
let sift_up h i =
  let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
  let t = Array.unsafe_get times i
  and s = Array.unsafe_get seqs i
  and sl = Array.unsafe_get slots i in
  let i = ref i and climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) / 2 in
    if before t s (Array.unsafe_get times p) (Array.unsafe_get seqs p) then begin
      Array.unsafe_set times !i (Array.unsafe_get times p);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      let ps = Array.unsafe_get slots p in
      Array.unsafe_set slots !i ps;
      Array.unsafe_set pos ps !i;
      i := p
    end
    else climbing := false
  done;
  Array.unsafe_set times !i t;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set slots !i sl;
  Array.unsafe_set pos sl !i

(* The entry at position [i], in slot [sl], leaves: release its value
   and retire its handle.  Then, bottom-up, walk the hole it leaves
   down to a leaf, each level promoting the smaller child with one
   comparison; move the last entry into the hole and sift it up.  It
   came from the bottom, so it rarely climbs far — a top-down sift
   spends two comparisons per level taking it nearly as deep.  The
   freed slot is parked just beyond the live positions.  Safe: with
   [n] the new size, the hole and the children it takes are below [n],
   and [n] itself is below the old size. *)
let remove_at h i sl =
  h.vals.(sl) <- vacant ();
  h.gens.(sl) <- (h.gens.(sl) + 1) land gen_mask;
  let n = h.size - 1 in
  h.size <- n;
  let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
  if i < n then begin
    let hole = ref i and l = ref ((2 * i) + 1) in
    while !l < n do
      let r = !l + 1 in
      let c =
        if
          r < n
          && before (Array.unsafe_get times r) (Array.unsafe_get seqs r)
               (Array.unsafe_get times !l) (Array.unsafe_get seqs !l)
        then r
        else !l
      in
      Array.unsafe_set times !hole (Array.unsafe_get times c);
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs c);
      let cs = Array.unsafe_get slots c in
      Array.unsafe_set slots !hole cs;
      Array.unsafe_set pos cs !hole;
      hole := c;
      l := (2 * c) + 1
    done;
    Array.unsafe_set times !hole (Array.unsafe_get times n);
    Array.unsafe_set seqs !hole (Array.unsafe_get seqs n);
    Array.unsafe_set slots !hole (Array.unsafe_get slots n);
    sift_up h !hole
  end;
  Array.unsafe_set slots n sl

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
