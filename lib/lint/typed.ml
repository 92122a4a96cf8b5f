(** Loading typedtrees for the whole-program passes.

    The analyzer does not re-typecheck anything: dune already compiles
    every module with [-bin-annot], so each compiled unit leaves a
    [.cmt] file carrying its full {!Typedtree.structure}.  This module
    walks a build directory (default [_build/default]), reads every
    [.cmt] with {!Cmt_format.read_cmt}, and keeps the implementation
    units whose recorded source path falls under the requested
    prefixes — the analyzed "program".

    Identity discipline: a unit is named by its compilation-unit name
    ([Store__Replica]); values are resolved across units by their
    {!Shape.Uid.t}, which the typechecker stamps on every definition
    and every use — module aliases ([module E = Rpc.Engine]) and
    library wrapping are already resolved in the uid, so the passes
    never have to guess what a dotted path means. *)

type unit_info = {
  u_name : string;  (** compilation-unit name, e.g. ["Store__Replica"] *)
  u_source : string;
      (** source path as recorded at compile time, relative to the
          build context root, e.g. ["lib/store/replica.ml"] *)
  u_structure : Typedtree.structure;
}

(* Deterministic recursive walk (same discipline as Rules.collect_ml):
   readdir output is sorted, so unit order never depends on the
   filesystem.  Unstat-able entries (broken symlinks, races) are
   skipped — a build tree is not guaranteed tidy. *)
let rec collect_cmt acc path =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true ->
      let entries =
        match Sys.readdir path with
        | exception Sys_error _ -> []
        | a -> List.sort String.compare (Array.to_list a)
      in
      List.fold_left
        (fun acc entry ->
          if entry = "" then acc
          else collect_cmt acc (Filename.concat path entry))
        acc entries
  | false -> if Filename.check_suffix path ".cmt" then path :: acc else acc

let normalize_source s =
  let s =
    if String.length s >= 2 && String.sub s 0 2 = "./" then
      String.sub s 2 (String.length s - 2)
    else s
  in
  s

let under_prefix prefixes src =
  prefixes = []
  || List.exists
       (fun p ->
         let p = normalize_source p in
         let lp = String.length p in
         String.length src >= lp && String.sub src 0 lp = p)
       prefixes

(** Load every implementation unit under [build_dir] whose source path
    starts with one of [src_prefixes] (empty = everything).  Unreadable
    or foreign-version [.cmt] files are skipped silently — they belong
    to other tools; an empty result is the caller's error to raise. *)
let load ~build_dir ~src_prefixes : unit_info list =
  let files = List.rev (collect_cmt [] build_dir) in
  let load_one path =
    match Cmt_format.read_cmt path with
    | exception _ -> None
    | cmt -> (
        match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
        | Cmt_format.Implementation str, Some src ->
            let src = normalize_source src in
            if under_prefix src_prefixes src then
              Some
                { u_name = cmt.Cmt_format.cmt_modname; u_source = src; u_structure = str }
            else None
        | _ -> None)
  in
  let units = List.filter_map load_one files in
  (* the same unit can appear under several object dirs (byte and
     native, or a vendored copy); keep the first in sorted-path order *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun u ->
      if Hashtbl.mem seen u.u_name then false
      else begin
        Hashtbl.add seen u.u_name ();
        true
      end)
    units
    |> List.sort (fun a b -> String.compare a.u_name b.u_name)

(* ---------- small shared typedtree helpers ---------- *)

(** The compilation unit a use-site resolves to, when known. *)
let uid_unit : Shape.Uid.t -> string option = function
  | Shape.Uid.Item { comp_unit; _ } -> Some comp_unit
  | Shape.Uid.Compilation_unit cu -> Some cu
  | Shape.Uid.Internal | Shape.Uid.Predef _ -> None

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let col_of (loc : Location.t) =
  loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol
