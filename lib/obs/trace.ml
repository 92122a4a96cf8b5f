(** The trace core: typed events (span begin/end, instants, counter
    samples) stamped with a pluggable clock — in simulations, the
    virtual clock of [Sim.Core] — plus a monotonic sequence number, so
    a trace totally orders what the float timestamps only partially
    order.  Events land in a bounded ring buffer: tracing an arbitrary
    long run costs bounded memory, the newest events win, and the
    number of overwritten events is reported.

    Everything here is deterministic given the inputs: sequence
    numbers and span ids are allocated in emission order, timestamps
    come from the injected clock, and no wall-clock or global state is
    consulted — two runs from the same seed produce byte-identical
    traces. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = B | E | I | C

let phase_label = function B -> "B" | E -> "E" | I -> "I" | C -> "C"

type event = {
  seq : int;  (** monotonic per-tracer sequence number *)
  ts : float;  (** virtual time (or whatever the clock yields) *)
  cat : string;  (** layer: "sim", "net", "store", "ioa", ... *)
  name : string;
  track : string;  (** node / client / component the event belongs to *)
  ph : phase;
  id : int;  (** span id pairing B with E; 0 for I and C events *)
  args : (string * arg) list;
}

type span = {
  span_id : int;
  span_cat : string;
  span_name : string;
  span_track : string;
}

(** A span handle that never records anything (disabled tracer). *)
let null_span = { span_id = 0; span_cat = ""; span_name = ""; span_track = "" }

let span_id s = s.span_id

type t = {
  mutable enabled : bool;
  mutable clock : unit -> float;
  capacity : int;
  ring : event array;  (** length [capacity]; a circular buffer *)
  mutable len : int;
  mutable head : int;  (** index of the oldest event when [len > 0] *)
  mutable next_seq : int;
  mutable next_span : int;
  mutable overwritten : int;
}

let dummy_event =
  { seq = -1; ts = 0.0; cat = ""; name = ""; track = ""; ph = I; id = 0; args = [] }

let create ?(capacity = 65536) ?(enabled = true) () =
  {
    enabled = enabled && capacity > 0;
    clock = (fun () -> 0.0);
    capacity;
    ring = Array.make (Int.max capacity 1) dummy_event;
    len = 0;
    head = 0;
    next_seq = 0;
    next_span = 1;
    overwritten = 0;
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b && t.capacity > 0
let set_clock t clock = t.clock <- clock
let length t = t.len
let overwritten t = t.overwritten
let capacity t = t.capacity

let push t ev =
  if t.len < t.capacity then begin
    t.ring.((t.head + t.len) mod t.capacity) <- ev;
    t.len <- t.len + 1
  end
  else begin
    (* full: overwrite the oldest *)
    t.ring.(t.head) <- ev;
    t.head <- (t.head + 1) mod t.capacity;
    t.overwritten <- t.overwritten + 1
  end

let emit t ~cat ~name ~track ~ph ~id ?ts ~args () =
  if t.enabled then begin
    let ts = match ts with Some x -> x | None -> t.clock () in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    push t { seq; ts; cat; name; track; ph; id; args }
  end

let instant t ~cat ~name ?(track = "main") ?ts ?(args = []) () =
  emit t ~cat ~name ~track ~ph:I ~id:0 ?ts ~args ()

let counter t ~cat ~name ?(track = "main") ?ts ~value () =
  emit t ~cat ~name ~track ~ph:C ~id:0 ?ts ~args:[ ("value", Float value) ] ()

let begin_span t ~cat ~name ?(track = "main") ?ts ?(args = []) () =
  if not t.enabled then null_span
  else begin
    let id = t.next_span in
    t.next_span <- id + 1;
    emit t ~cat ~name ~track ~ph:B ~id ?ts ~args ();
    { span_id = id; span_cat = cat; span_name = name; span_track = track }
  end

let end_span t span ?ts ?(args = []) () =
  if span.span_id <> 0 then
    emit t ~cat:span.span_cat ~name:span.span_name ~track:span.span_track
      ~ph:E ~id:span.span_id ?ts ~args ()

(** Events in emission order, oldest first. *)
let events t =
  List.init t.len (fun i -> t.ring.((t.head + i) mod t.capacity))
