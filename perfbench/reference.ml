(* Host speed, measured.  The host this benchmark runs on changes speed
   by tens of percent within a minute (shared cores, frequency), which
   would swamp any change to the code.  So host times are reported at a
   reference speed: next to the runs the benchmark times a fixed kernel
   and scales each run's CPU time by [nominal_ns] over the kernel's
   time around it.  A host that runs the kernel in exactly [nominal_ns]
   reports its times unchanged.

   The kernel does the simulator's kinds of work and none of the
   repository's code: an event loop over a binary heap keyed by
   (time, sequence) tuples under polymorphic compare, string-keyed
   hash lookups, small allocations, and random reads over 8 MB kept
   outside the OCaml heap (so it adds nothing to the collector's work
   or to the heap the benchmark reports).  Cache-missing reads are what
   let it slow down in step with the simulator when the host does. *)

(* This process's CPU time (user + system, from getrusage): unlike the
   wall clock it does not grow while other processes hold the CPU. *)
let cpu_ns () = Sys.time () *. 1e9

let names = Array.init 64 (fun i -> Printf.sprintf "s%d:r%d" (i / 4) (i mod 4))

let memory =
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 20) (fun i -> i * 7)

let kernel () =
  let x = ref 12345 in
  let rnd () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let acc = ref 0 in
  for _ = 1 to 13_000 do
    acc := !acc + Bigarray.Array1.unsafe_get memory (rnd () land 0xfffff)
  done;
  let index = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let heap = Array.make 128 (0.0, 0, "") and size = ref 0 in
  let less a b =
    let t1, s1, _ = a and t2, s2, _ = b in
    compare (t1, s1) (t2, s2) < 0
  in
  let swap i j =
    let e = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- e
  in
  let push e =
    heap.(!size) <- e;
    let i = ref !size in
    incr size;
    while !i > 0 && less heap.(!i) heap.((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = if l < !size && less heap.(l) heap.(!i) then l else !i in
      let m = if r < !size && less heap.(r) heap.(m) then r else m in
      if m = !i then moving := false
      else begin
        swap !i m;
        i := m
      end
    done;
    top
  in
  for seq = 1 to 64 do
    push (float_of_int (rnd () mod 100), seq, names.(rnd () land 63))
  done;
  for seq = 65 to 1064 do
    let t, _, name = pop () in
    acc := !acc + Hashtbl.find index name;
    let payload = [ name; string_of_int !acc ] in
    push (t +. (float_of_int (rnd () mod 100) /. 10.0), seq, List.hd payload)
  done;
  !acc

let nominal_ns = 500_000.0

(** One timing of the kernel, in CPU ns. *)
let sample () =
  let t0 = cpu_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  cpu_ns () -. t0

(* The speed estimate follows the median of the last few samples, so one
   interrupted sample does not move it. *)
type t = { mutable recent : float list }

let create () = { recent = [] }
let window = 5

let observe t =
  let x = sample () in
  t.recent <- x :: List.filteri (fun i _ -> i < window - 1) t.recent

(** The factor that turns a CPU time measured now into reference time. *)
let scale t =
  match List.sort Float.compare t.recent with
  | [] -> 1.0
  | xs -> nominal_ns /. List.nth xs (List.length xs / 2)
