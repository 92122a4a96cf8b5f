(** Whole-program call graph over analyzed units: one node per
    structure-level value binding, edges by {!Shape.Uid.t}-resolved
    identifier uses (alias-proof), external references kept with their
    use-site locations for the taint pass. *)

type node = {
  n_unit : string;  (** owning compilation unit *)
  n_name : string;  (** binding path within the unit, e.g. ["M.helper"] *)
  n_source : string;  (** source file of the unit *)
  n_line : int;
  n_col : int;
  mutable n_calls : string list;  (** callee node keys, deduplicated *)
  mutable n_ext : (string * int * int) list;
      (** external refs: (display path, line, col) at the use site *)
}

type t

val key : unit_:string -> name:string -> string
(** Node key: ["<unit>.<binding path>"]. *)

val node : t -> string -> node option
val nodes_in_order : t -> node list
(** All nodes, in deterministic definition order. *)

val build : Typed.unit_info list -> t

val callers : t -> (string, string list) Hashtbl.t
(** Reverse adjacency: callee key -> caller keys, deterministic
    order. *)
