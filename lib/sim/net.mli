(** A simulated message-passing network: per-message latency from a
    pluggable distribution, probabilistic loss, node crashes, link
    cuts.  No delivery guarantees — the asynchronous environment
    quorum consensus is built for.  Drops are attributed to a reason
    and every send/deliver/drop lands in the simulator's tracer. *)

module Prng = Qc_util.Prng

type latency = Prng.t -> src:string -> dst:string -> float

type drop_reason = Sender_down | Dest_down | Link_cut | Loss | Filtered

type drop_spec = Drop_all | Drop_first of int | Drop_prob of float
(** What a per-link fault filter does to messages crossing the link:
    swallow everything, swallow the next [n], or flip a per-message
    coin on the simulation PRNG. *)

val drop_spec_label : drop_spec -> string

type 'msg t

val uniform_latency : lo:float -> hi:float -> latency
val lognormal_latency : mu:float -> sigma:float -> latency
(** Heavy-tailed, the realistic default. *)

val create :
  sim:Core.t -> nodes:string list -> ?latency:latency -> ?loss:float -> unit ->
  'msg t

val sim : 'msg t -> Core.t
val tracer : 'msg t -> Obs.Trace.t
(** The simulator's tracer — for layers that only hold the network. *)

(** {2 Node ids}

    Every node has a dense [int] id, allocated in order of first use
    (the names passed to {!create} take [0 .. n-1]).  The per-message
    path — {!send_id}, {!register_id}'s handlers — works on ids; the
    string entry points resolve names once and call it.  Faults
    ({!crash}, {!cut_link}, filters) and traces stay keyed by name. *)

val id : 'msg t -> string -> int
(** The node's id.  A name not passed to {!create} becomes a node that
    is down until {!recover}, exactly as a send to it would make it. *)

val name : 'msg t -> int -> string
(** The name of the node with this id.
    @raise Invalid_argument for an id no node has. *)

val register_id : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** Install the node's message handler (replaces any previous one); the
    handler receives the sender's id.  Deliveries look the handler up
    when they fire, so a message sent before [register_id] but
    delivered after it reaches the handler.
    @raise Invalid_argument for an id no node has. *)

val register : 'msg t -> node:string -> (src:string -> 'msg -> unit) -> unit
(** {!register_id} by name, with the sender handed over by name.  A
    name not passed to [create] is a node that is down until
    {!recover}: sends to it are [Dest_down] drops. *)

val set_loss : 'msg t -> float -> unit
(** Change the loss probability mid-run (e.g. a lossy episode). *)

val is_up : 'msg t -> string -> bool
val crash : 'msg t -> string -> unit
val recover : 'msg t -> string -> unit
val cut_link : 'msg t -> string -> string -> unit
val heal_link : 'msg t -> string -> string -> unit
val link_cut : 'msg t -> string -> string -> bool

val heal_all_links : 'msg t -> unit
(** Remove every link cut (filters are separate — see
    {!clear_link_filters}). *)

val set_link_filter : 'msg t -> src:string -> dst:string -> drop_spec -> unit
(** Install a fault filter on the directed link [src -> dst],
    replacing any previous one (and resetting its drop counter).
    Filters act after cut checks and before the loss coin, so a
    filtered link consumes no loss draws for the messages it
    swallows. *)

val clear_link_filter : 'msg t -> src:string -> dst:string -> unit
val clear_link_filters : 'msg t -> unit

val link_filter : 'msg t -> src:string -> dst:string -> drop_spec option
val link_filter_drops : 'msg t -> src:string -> dst:string -> int
(** Messages swallowed by the link's current filter (0 without one). *)

val filtered_links : 'msg t -> ((string * string) * drop_spec * int) list
(** Every installed filter with its drop counter, sorted by link. *)

val send_id : 'msg t -> src:int -> dst:int -> ?payloads:int -> 'msg -> unit
(** Dropped when the sender is down at send time, the destination is
    down at delivery time, the link is cut, or the loss coin fires.
    [payloads] (default 1) is the number of logical requests the
    message carries — batch frames pass their batch size so the
    payload counters keep counting logical work.
    @raise Invalid_argument for an id no node has. *)

val send :
  'msg t -> src:string -> dst:string -> ?payloads:int -> 'msg -> unit
(** {!send_id} by name. *)

type counters = {
  sent : int;
  delivered : int;
  payload_sent : int;
      (** logical requests sent — equals [sent] unless batching wraps
          several payloads into one wire message *)
  payload_delivered : int;
  dropped : int;  (** total over every reason *)
  drop_sender_down : int;
  drop_dest_down : int;
  drop_link_cut : int;
  drop_loss : int;
  drop_filtered : int;
}

val counters : 'msg t -> counters
