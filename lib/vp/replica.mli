(** Virtual-partition replicas: (version, value) per key plus the
    current view; data operations carrying a different view id, or an
    older one than a view change has asked this replica's state for,
    are NACKed. *)

type t = {
  name : string;
  data : (string, int * int) Hashtbl.t;
  mutable view : View.t;
  mutable fence : int;  (** the newest view id a view change asked for *)
  mutable nacks : int;
}

val create : name:string -> initial_view:View.t -> t
val lookup : t -> string -> int * int
val state : t -> (string * (int * int)) list
val attach : t -> net:Protocol.msg Sim.Net.t -> unit
