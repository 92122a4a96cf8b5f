(** Trace query API: spans from begin/end pairs, filters by
    name/category/track/time window, durations, arg lookups, and a
    balance check. *)

type span = {
  cat : string;
  name : string;
  track : string;
  id : int;
  start : float;
  stop : float;
  args : (string * Trace.arg) list;  (** begin args then end args *)
}

val duration : span -> float

val spans : Trace.event list -> span list
(** Pair B/E by span id, sorted by id (begin order).  Unfinished
    spans are dropped. *)

val filter :
  ?cat:string -> ?name:string -> ?track:string -> ?since:float ->
  ?until:float -> span list -> span list

val filter_events :
  ?cat:string -> ?name:string -> ?track:string -> ?ph:Trace.phase ->
  ?since:float -> ?until:float -> Trace.event list -> Trace.event list

val durations : span list -> float list

val arg_int : (string * Trace.arg) list -> string -> int option
val arg_str : (string * Trace.arg) list -> string -> string option
val arg_bool : (string * Trace.arg) list -> string -> bool option

val events_within : span -> Trace.event list -> Trace.event list
(** Instants inside the span's time window on the span's track. *)

val op_of : span -> string option
(** The span's operation stamp ([("op", Str _)] arg, see {!Ctx}). *)

val parent_of : span -> int option
(** The span's causal-parent stamp ([("parent", Int _)] arg). *)

val is_root : span -> bool
(** Stamped with an operation but no parent: the client-side root span
    of a logical operation. *)

val roots : span list -> span list

val spans_of_op : span list -> op:string -> span list
(** The operation's causal tree, flattened: the root span (if it
    completed) first, stamped children after it in span-id order. *)

val events_of_op : Trace.event list -> op:string -> Trace.event list
(** Every event stamped with the operation — replica query/install
    instants, engine reply/hedge instants, child span begin/ends. *)

val children : span list -> id:int -> span list
(** The spans whose [parent] stamp names span [id]. *)

val check_balanced : Trace.event list -> (unit, string) result
(** Every E pairs with a preceding B, no B left open. *)
