(** The discrete-event simulation core: a virtual clock and an event
    queue of callbacks.  Deterministic given the seed — all randomness
    flows through the simulation's own PRNG.

    Events are foreground (the default: work the run exists to do) or
    background (processes that would go on forever, such as a crash
    storm).  A run ends once no foreground event remains; background
    events only ever run interleaved with foreground ones.  Foreground
    events scheduled with {!timer} can be cancelled, so a deadline that
    is no longer needed neither runs as a no-op nor keeps the run
    going.

    Every simulator carries an [Obs.Trace.t] whose clock is wired to
    the virtual time; by default it is disabled (zero-cost no-op
    emissions).  Pass an enabled tracer to [create] and every layer
    built on the simulator — network, store, failure injectors — logs
    into the same buffer, on the same clock. *)

module Prng = Qc_util.Prng

(* An all-float record is stored flat, so advancing the clock does not
   box the time, as a float field of [t] would. *)
type clock = { mutable now : float }

(* The heap key of event number [seq] is [2 * seq + 1] for a
   background event and [2 * seq] otherwise: one int carries the
   event's kind without changing the order among events. *)
type t = {
  clock : clock;
  queue : (unit -> unit) Heap.t;
  mutable seq : int;
  rng : Prng.t;
  mutable executed : int;
  mutable foreground : int;  (** foreground events in [queue] *)
  mutable tracer : Obs.Trace.t;
}

type timer = Heap.handle

let no_timer = Heap.none

let create ~seed =
  {
    clock = { now = 0.0 };
    queue = Heap.create ();
    seq = 0;
    rng = Prng.create seed;
    executed = 0;
    foreground = 0;
    tracer = Obs.Trace.create ~capacity:0 ~enabled:false ();
  }

let now t = t.clock.now
let rng t = t.rng
let executed_events t = t.executed
let pending t = t.foreground
let tracer t = t.tracer

(** Make [tr] the simulator's trace sink and wire its clock to the
    virtual time. *)
let attach_tracer t tr =
  t.tracer <- tr;
  Obs.Trace.set_clock tr (fun () -> t.clock.now)

(* Queue [f] at [now + delay] (a negative delay is clamped to now, a
   NaN one rejected); [bg] is 1 for a background event. *)
let[@inline] enqueue t ~delay ~bg (f : unit -> unit) =
  if Float.is_nan delay then invalid_arg "Sim.Core.schedule: NaN delay";
  let time = t.clock.now +. if delay > 0.0 then delay else 0.0 in
  t.seq <- t.seq + 1;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.instant t.tracer ~cat:"sim" ~name:"schedule" ~track:"sim"
      ~args:[ ("seq", Obs.Trace.Int t.seq); ("at", Obs.Trace.Float time) ]
      ();
  Heap.add t.queue time ((t.seq lsl 1) lor bg) f

let timer t ~delay f =
  let h = enqueue t ~delay ~bg:0 f in
  t.foreground <- t.foreground + 1;
  h

let schedule t ~delay f = ignore (timer t ~delay f : timer)
let background t ~delay f = ignore (enqueue t ~delay ~bg:1 f : Heap.handle)

let cancel t (tm : timer) =
  if Heap.cancel t.queue tm then t.foreground <- t.foreground - 1

(** Run events in key order until no foreground event remains or
    virtual time passes [until]. *)
let run ?(until = infinity) t =
  let trace_on = Obs.Trace.enabled t.tracer in
  let q = t.queue in
  let rec loop () =
    if t.foreground > 0 then begin
      let time = Heap.min_time q in
      if time > until then t.clock.now <- until
      else begin
        let key = Heap.min_seq q in
        let f = Heap.take q in
        if key land 1 = 0 then t.foreground <- t.foreground - 1;
        t.clock.now <- time;
        t.executed <- t.executed + 1;
        if trace_on then
          Obs.Trace.instant t.tracer ~cat:"sim" ~name:"exec" ~track:"sim"
            ~args:[ ("seq", Obs.Trace.Int (key lsr 1)) ]
            ();
        f ();
        loop ()
      end
    end
  in
  loop ()
