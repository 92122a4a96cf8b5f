(* The per-layer host-cost ledger: spans kept in memory around the
   calls the benchmark makes into each layer, aggregated per layer as
   call counts, self time (a span's duration minus the part its child
   spans cover) and self minor words.  Self times of every span add up
   to the duration of the root spans, so the ledger partitions the
   traced run's host time by layer.

   The open-span stack and the per-layer totals live in preallocated
   arrays and the clock and word counters are unboxed, so entering and
   leaving a span allocates nothing: the words the ledger reports are
   the program's own.  Optionally every span is also copied into an
   [Obs.Trace] on a host-time clock, for a Chrome trace of one run. *)

let clock_ns () = Int64.to_float (Monotonic_clock.now ())

(* the layers, as indices into the totals arrays *)
let setup = 0
let core_run = 1
let clients = 2
let issue = 3
let serve = 4
let net_send = 5
let reply = 6
let check = 7
let script = 8
let stats = 9

let names =
  [|
    "setup";
    "sim.core.run";
    "workload.clients";
    "store.issue";
    "store.replica.serve";
    "sim.net.send";
    "store.client.reply";
    "harness.check";
    "harness.script";
    "sim.stats";
  |]

let n_layers = Array.length names
let max_depth = 64

type t = {
  on : bool;
  calls : int array;
  self_ns : float array;
  self_words : float array;
  mutable depth : int;
  st_layer : int array;
  st_t0 : float array;
  st_w0 : float array;
  st_child_ns : float array;
  st_child_words : float array;
  dump : Obs.Trace.t option;  (** a copy of every span, for a Chrome trace *)
  st_span : Obs.Trace.span array;
}

(* With [dump], every span is also copied into that trace, timestamped
   in host milliseconds since the ledger was made (the exporter renders
   one time unit as 1 ms). *)
let create ?dump ~on () =
  let null_span =
    Obs.Trace.begin_span (Obs.Trace.create ~enabled:false ()) ~cat:"" ~name:"" ()
  in
  let origin = clock_ns () in
  Option.iter
    (fun tr -> Obs.Trace.set_clock tr (fun () -> (clock_ns () -. origin) /. 1e6))
    dump;
  {
    on;
    calls = Array.make n_layers 0;
    self_ns = Array.make n_layers 0.0;
    self_words = Array.make n_layers 0.0;
    depth = 0;
    st_layer = Array.make max_depth 0;
    st_t0 = Array.make max_depth 0.0;
    st_w0 = Array.make max_depth 0.0;
    st_child_ns = Array.make max_depth 0.0;
    st_child_words = Array.make max_depth 0.0;
    dump;
    st_span = Array.make max_depth null_span;
  }

(* A ledger that records nothing: the same world, untraced. *)
let off = create ~on:false ()

let enter t layer =
  if t.on then begin
    let d = t.depth in
    if d >= max_depth then failwith "Ledger.enter: span stack overflow";
    t.depth <- d + 1;
    t.st_layer.(d) <- layer;
    t.st_child_ns.(d) <- 0.0;
    t.st_child_words.(d) <- 0.0;
    (match t.dump with
    | Some tr ->
        t.st_span.(d) <-
          Obs.Trace.begin_span tr ~cat:"host" ~name:names.(layer) ~track:"bench"
            ()
    | None -> ());
    t.st_w0.(d) <- Gc.minor_words ();
    t.st_t0.(d) <- clock_ns ()
  end

let leave t =
  if t.on then begin
    let now = clock_ns () in
    let words = Gc.minor_words () in
    let d = t.depth - 1 in
    if d < 0 then failwith "Ledger.leave: no open span";
    t.depth <- d;
    let dur = now -. t.st_t0.(d) and w = words -. t.st_w0.(d) in
    let l = t.st_layer.(d) in
    t.calls.(l) <- t.calls.(l) + 1;
    t.self_ns.(l) <- t.self_ns.(l) +. (dur -. t.st_child_ns.(d));
    t.self_words.(l) <- t.self_words.(l) +. (w -. t.st_child_words.(d));
    if d > 0 then begin
      t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) +. dur;
      t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. w
    end;
    match t.dump with
    | Some tr -> Obs.Trace.end_span tr t.st_span.(d) ()
    | None -> ()
  end

let total_self_ns t = Array.fold_left ( +. ) 0.0 t.self_ns
