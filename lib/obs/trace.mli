(** The trace core: typed events (span begin/end, instants, counter
    samples) stamped with an injected clock — in simulations, the
    virtual clock of [Sim.Core] — plus a monotonic sequence number,
    collected into a bounded in-memory ring buffer.  Deterministic
    given the inputs: two runs from the same seed produce identical
    traces. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = B  (** span begin *) | E  (** span end *) | I  (** instant *)
           | C  (** counter sample *)

val phase_label : phase -> string

type event = {
  seq : int;  (** monotonic per-tracer sequence number *)
  ts : float;  (** virtual time *)
  cat : string;  (** layer: "sim", "net", "store", "ioa", ... *)
  name : string;
  track : string;  (** node / client / component the event belongs to *)
  ph : phase;
  id : int;  (** span id pairing B with E; 0 for I and C events *)
  args : (string * arg) list;
}

type span
(** Handle returned by {!begin_span}; pass it to {!end_span}. *)

val span_id : span -> int
(** The span's id — the value pairing its B and E events, [0] for the
    null span of a disabled tracer.  Ids are allocated monotonically
    per tracer, so on a shared tracer they are unique across the whole
    run and can serve as causal-parent references. *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** A tracer with a ring buffer of [capacity] events (default 65536).
    [capacity = 0] or [enabled = false] gives a tracer on which every
    emission is a cheap no-op. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_clock : t -> (unit -> float) -> unit
(** Install the timestamp source (e.g. the simulator's virtual [now]).
    Defaults to a clock stuck at [0.0]. *)

val length : t -> int
val capacity : t -> int

val overwritten : t -> int
(** Events lost to ring-buffer wraparound. *)

val instant :
  t -> cat:string -> name:string -> ?track:string -> ?ts:float ->
  ?args:(string * arg) list -> unit -> unit

val counter :
  t -> cat:string -> name:string -> ?track:string -> ?ts:float ->
  value:float -> unit -> unit

val begin_span :
  t -> cat:string -> name:string -> ?track:string -> ?ts:float ->
  ?args:(string * arg) list -> unit -> span

val end_span : t -> span -> ?ts:float -> ?args:(string * arg) list -> unit -> unit

val events : t -> event list
(** Emission order, oldest first. *)

