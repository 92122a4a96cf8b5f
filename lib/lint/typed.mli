(** Typedtree loading for the whole-program passes: reads the [.cmt]
    files dune already produces ([-bin-annot]) instead of
    re-typechecking, and shares the small helpers every pass needs.
    See DESIGN.md section 17. *)

type unit_info = {
  u_name : string;  (** compilation-unit name, e.g. ["Store__Replica"] *)
  u_source : string;  (** source path relative to the build context root *)
  u_structure : Typedtree.structure;
}

val load : build_dir:string -> src_prefixes:string list -> unit_info list
(** Every implementation unit under [build_dir] whose recorded source
    path starts with a prefix (empty list = all), deterministically
    ordered by unit name; unreadable or non-implementation [.cmt]s are
    skipped. *)

val uid_unit : Shape.Uid.t -> string option
(** The compilation unit a definition uid belongs to, when known. *)

val line_of : Location.t -> int
val col_of : Location.t -> int
