(** A binary min-heap, the event queue of the discrete-event
    simulator.  Keys are (time, sequence-number) pairs; the sequence
    number breaks ties FIFO so simultaneous events run in scheduling
    order, keeping runs deterministic.

    The heap is a struct of arrays: entry [i] is [times.(i)] (a flat
    [float array], so times are unboxed), [seqs.(i)] and [vals.(i)].
    Pushing and taking allocate nothing beyond the occasional doubling,
    and every value slot an entry leaves is overwritten, so a taken
    value is never kept reachable by the heap. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
}

(* The filler of value slots at or beyond [size], which are never read.
   It is an immediate, so [vals] is always built as an ordinary block
   array, never a flat float array, whatever ['a] is; every access to
   it here is polymorphic, so a float value is stored boxed. *)
let vacant () : 'a = Obj.magic 0

let create () = { times = [||]; seqs = [||]; vals = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

(* The strict total order on keys.  Seqs are unique, so no two live
   keys are equal; times are never NaN (Core.schedule rejects it). *)
let[@inline] before (t1 : float) (s1 : int) t2 s2 =
  t1 < t2 || (Float.equal t1 t2 && s1 < s2)

let grow h =
  let n = h.size in
  let cap = max 16 (2 * n) in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and vals = Array.make cap (vacant ()) in
  Array.blit h.times 0 times 0 n;
  Array.blit h.seqs 0 seqs 0 n;
  Array.blit h.vals 0 vals 0 n;
  h.times <- times;
  h.seqs <- seqs;
  h.vals <- vals

let[@inline] push h time seq v =
  if h.size = Array.length h.times then grow h;
  let times = h.times and seqs = h.seqs and vals = h.vals in
  (* sift the hole up from the new last slot, then fill it *)
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && before time seq times.((!i - 1) / 2) seqs.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    times.(!i) <- times.(p);
    seqs.(!i) <- seqs.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- v

let empty () = invalid_arg "Sim.Heap: empty heap"

let[@inline] min_time h = if h.size = 0 then empty () else h.times.(0)
let[@inline] min_seq h = if h.size = 0 then empty () else h.seqs.(0)

let take h =
  if h.size = 0 then empty ()
  else begin
    let times = h.times and seqs = h.seqs and vals = h.vals in
    let top = vals.(0) in
    let n = h.size - 1 in
    h.size <- n;
    (* sift the last entry down from the root's hole *)
    let t = times.(n) and s = seqs.(n) and v = vals.(n) in
    let i = ref 0 and sifting = ref true in
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
          vals.(!i) <- vals.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- t;
    seqs.(!i) <- s;
    vals.(!i) <- v;
    vals.(n) <- vacant ();
    top
  end

let peek h =
  if h.size = 0 then None else Some (h.times.(0), h.seqs.(0), h.vals.(0))

let pop h =
  if h.size = 0 then None
  else
    let time = h.times.(0) and seq = h.seqs.(0) in
    Some (time, seq, take h)
