(** The discrete-event simulation core: a virtual clock and an event
    queue of callbacks.  Deterministic given the seed — all randomness
    flows through the simulation's own PRNG.

    Every simulator carries an [Obs.Trace.t] whose clock is wired to
    the virtual time; by default it is disabled (zero-cost no-op
    emissions).  Pass an enabled tracer to [create] and every layer
    built on the simulator — network, store, failure injectors — logs
    into the same buffer, on the same clock. *)

module Prng = Qc_util.Prng

(* An all-float record is stored flat, so advancing the clock does not
   box the time, as a float field of [t] would. *)
type clock = { mutable now : float }

type t = {
  clock : clock;
  queue : (unit -> unit) Heap.t;
  mutable seq : int;
  rng : Prng.t;
  mutable executed : int;
  mutable tracer : Obs.Trace.t;
}

let create ~seed =
  {
    clock = { now = 0.0 };
    queue = Heap.create ();
    seq = 0;
    rng = Prng.create seed;
    executed = 0;
    tracer = Obs.Trace.create ~capacity:0 ~enabled:false ();
  }

let now t = t.clock.now
let rng t = t.rng
let executed_events t = t.executed
let tracer t = t.tracer

(** Make [tr] the simulator's trace sink and wire its clock to the
    virtual time. *)
let attach_tracer t tr =
  t.tracer <- tr;
  Obs.Trace.set_clock tr (fun () -> t.clock.now)

(** [schedule t ~delay f] runs [f] at [now + delay] (a negative delay
    is clamped to now, a NaN one rejected). *)
let schedule t ~delay (f : unit -> unit) =
  if Float.is_nan delay then invalid_arg "Sim.Core.schedule: NaN delay";
  let time = t.clock.now +. if delay > 0.0 then delay else 0.0 in
  t.seq <- t.seq + 1;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.instant t.tracer ~cat:"sim" ~name:"schedule" ~track:"sim"
      ~args:[ ("seq", Obs.Trace.Int t.seq); ("at", Obs.Trace.Float time) ]
      ();
  Heap.push t.queue time t.seq f

(** Run events until the queue empties or virtual time passes
    [until]. *)
let run ?(until = infinity) ?(max_events = max_int) t =
  let trace_on = Obs.Trace.enabled t.tracer in
  let q = t.queue in
  let rec loop () =
    if t.executed < max_events && not (Heap.is_empty q) then begin
      let time = Heap.min_time q in
      if time > until then t.clock.now <- until
      else begin
        let seq = Heap.min_seq q in
        let f = Heap.take q in
        t.clock.now <- time;
        t.executed <- t.executed + 1;
        if trace_on then
          Obs.Trace.instant t.tracer ~cat:"sim" ~name:"exec" ~track:"sim"
            ~args:[ ("seq", Obs.Trace.Int seq) ]
            ();
        f ();
        loop ()
      end
    end
  in
  loop ()
