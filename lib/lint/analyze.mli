(** The whole-program analyzer ([lint.exe analyze]): loads typedtrees
    from a build directory and runs the {!Taint} pass.  See DESIGN.md
    section 17. *)

val all_rules : string list
(** The analyze rule ids: [effect-taint]. *)

val run :
  ?only:string list ->
  ?exclude:string list ->
  build_dir:string ->
  src_prefixes:string list ->
  unit ->
  (Report.finding list, string) result
(** Analyze every compiled unit under [build_dir] whose source path
    starts with one of [src_prefixes] (e.g. [["lib/"]]).  [only] /
    [exclude] filter by rule id.  [Error] when the build directory or
    matching units are missing (run [dune build] first); findings come
    back {!Report.sort}ed. *)
