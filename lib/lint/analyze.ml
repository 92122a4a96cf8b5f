(** The whole-program analyzer: orchestrates the typedtree passes.

    [run] loads every compiled unit under the build directory whose
    source lives under the requested prefixes (default [lib/]), builds
    the call graph once, and runs {!Taint}, the interprocedural effect
    taint with call chains.

    Pragma scanning reuses the lexical scheme of the syntactic lint
    ({!Rules.scan_pragma_lines}): the pass consults the pragma lines of
    the file it is about to report on, through a per-file cache.
    Findings come back sorted and deduplicated by {!Report.sort}, so
    the text and JSON reports are byte-identical across runs. *)

let all_rules = [ Taint.rule ]

(** Resolve a recorded source path against the build dir (dune copies
    sources into the build context, so [_build/default/lib/...] exists
    whenever the cmt does). *)
let source_path ~build_dir src =
  let in_build = Filename.concat build_dir src in
  if Sys.file_exists in_build then Some in_build
  else if Sys.file_exists src then Some src
  else None

let run ?(only = []) ?(exclude = []) ~build_dir ~src_prefixes () :
    (Report.finding list, string) result =
  if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then
    Error
      (Fmt.str "build directory %s not found — run `dune build` first" build_dir)
  else
    let units = Typed.load ~build_dir ~src_prefixes in
    if units = [] then
      Error
        (Fmt.str
           "no compiled units under %s match source prefix%s %s — run `dune \
            build` first"
           build_dir
           (if List.length src_prefixes = 1 then "" else "es")
           (String.concat ", " src_prefixes))
    else begin
      (* per-file pragma cache *)
      let cache : (string, (int * string) list) Hashtbl.t = Hashtbl.create 32 in
      let pragmas_of src =
        match Hashtbl.find_opt cache src with
        | Some p -> p
        | None ->
            let p =
              match source_path ~build_dir src with
              | Some path -> Rules.scan_pragma_lines path
              | None -> []
            in
            Hashtbl.add cache src p;
            p
      in
      let graph = Callgraph.build units in
      let wanted rule =
        (only = [] || List.mem rule only) && not (List.mem rule exclude)
      in
      let findings =
        if wanted Taint.rule then Taint.run ~graph ~pragmas_of else []
      in
      Ok (Report.sort findings)
    end
