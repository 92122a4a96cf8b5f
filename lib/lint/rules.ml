(** The determinism lint rules: an AST walk over the repo's own
    sources using compiler-libs ([Pparse] + [Ast_iterator]).

    The repo's correctness story leans on byte-identical seeded runs
    (golden trace digests) — these rules reject, before any run
    starts, the constructs that silently rot them:

    - {b effect-ban}: [Random.*], [Unix.*], [UnixLabels.*] and
      [Sys.time] anywhere in library code, and any module path to
      [Random], [Unix], [UnixLabels], [Sys] or [Stdlib] itself (an
      alias, an [open], a local open, an [include], a functor argument
      or a pack), which would let those effects in under another name;
      and every [external] declaration, which reaches the runtime's
      primitives with no module path at all.
      All randomness must flow through the seeded {!Qc_util.Prng} (the
      one exempt implementation file) and all time through the virtual
      clock [Sim.Core.now].
    - {b hashtbl-order}: [Hashtbl.iter] / [Hashtbl.fold], and [iter] /
      [fold] of a functor-made table — the shared [Strtbl], however
      qualified, or a module the file binds to a
      [Hashtbl.Make]/[MakeSeeded] instance (or to an alias of one).
      Stdlib hash-bucket order is implementation-defined, so any
      result built by iteration can leak that order into traces and
      assertions.
      Sites whose result is genuinely order-insensitive (counts,
      existential checks, per-entry mutation) are silenced with an
      explicit [(* lint: order-insensitive *)] pragma after review;
      everything else must sort at the boundary.
    - {b float-compare}: polymorphic [=] / [<>] / [compare] applied to
      float expressions, and bare [compare] passed to a sort — the
      class of bug that forced the [Sim.Stats] rewrite onto
      [Float.compare] (nan, signed zeros, and polymorphic-compare
      cost).
    - {b poly-minmax}: bare [min] / [max] (or [Stdlib.min] /
      [Stdlib.max]), applied or passed as a value.  Unless inlined at
      a known type they call the runtime's polymorphic [compare_val];
      on ints [Int.min] / [Int.max] compile inline.  On floats
      [Float.min] / [Float.max] differ on nan, so a float site writes
      its comparison out.

    Pragmas come from a fixed allowlist; an unknown pragma name and a
    pragma that silences nothing are themselves findings, so stale
    escapes cannot accumulate. *)

(* rule ids *)
let rule_effect = "effect-ban"
let rule_hashtbl = "hashtbl-order"
let rule_float = "float-compare"
let rule_minmax = "poly-minmax"
let rule_parse = "parse-error"
let rule_unknown_pragma = "unknown-pragma"
let rule_unused_pragma = "unused-pragma"

(** Pragma allowlist: comment token -> the rule it may silence. *)
let pragma_allowlist =
  [
    ("order-insensitive", rule_hashtbl);
    ("effect-ok", rule_effect);
    ("float-eq-ok", rule_float);
  ]

(* ---------- pragma scanning (comments are not in the AST) ---------- *)

type pragma = { pline : int; pname : string; mutable used : bool }

(* A pragma is a plain comment whose whole text is "lint: NAME".
   Pragmas are recognized lexically — the compiler's lexer yields real
   comments only, so the pattern appearing inside a string literal or
   a docstring is never a pragma.  A comment that starts with "lint:"
   but carries trailing junk surfaces as an unknown pragma rather
   than being silently ignored. *)
let pragma_of_comment (text, (loc : Location.t)) =
  let text = String.trim text in
  let prefix = "lint:" in
  let plen = String.length prefix in
  if String.length text >= plen && String.sub text 0 plen = prefix then
    let name = String.trim (String.sub text plen (String.length text - plen)) in
    if name = "" then None
    else
      Some { pline = loc.Location.loc_start.Lexing.pos_lnum; pname = name; used = false }
  else None

let scan_pragmas source =
  let lexbuf = Lexing.from_string source in
  Lexer.init ();
  (try
     let rec drain () =
       match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
     in
     drain ()
   with _ -> () (* a lexical error resurfaces as a parse-error finding *));
  List.filter_map pragma_of_comment (Lexer.comments ())

(* ---------- the AST walk ---------- *)

open Parsetree

(* [Stdlib.X.f] and the compiled unit name [Stdlib__X.f] both mean
   [X.f]; the bare path [Stdlib] becomes []. *)
let strip_stdlib path =
  let unit_name = function
    | m :: rest when String.starts_with ~prefix:"Stdlib__" m ->
        String.sub m 8 (String.length m - 8) :: rest
    | path -> path
  in
  match path with "Stdlib" :: rest -> unit_name rest | path -> unit_name path

let ident_path (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (Longident.flatten txt))
  | _ -> None

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

(* Float.* functions that do NOT return (or compare as) raw floats —
   applying these is not evidence the surrounding comparison is a
   float comparison. *)
let float_mod_nonfloat =
  [
    "compare"; "equal"; "to_int"; "to_string"; "is_nan"; "is_finite";
    "is_integer"; "sign_bit"; "classify_float";
  ]

(* Syntactic "this expression is a float": a float literal, an
   application of a float operator or Float.* producer, a float type
   constraint, or a conditional whose branches are.  A heuristic —
   the lint runs on parse trees, not typed trees — but it covers the
   classes that actually bite (literals and arithmetic). *)
let rec floatish (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some [ op ] when List.mem op float_ops -> true
      | Some [ "float_of_int" ] -> true
      | Some [ "Float"; fn ] when not (List.mem fn float_mod_nonfloat) -> true
      | _ -> false)
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ })
    ->
      true
  | Pexp_ifthenelse (_, a, Some b) -> floatish a || floatish b
  | _ -> false

let sort_functions =
  [
    [ "List"; "sort" ]; [ "List"; "stable_sort" ]; [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ]; [ "Array"; "sort" ]; [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ];
  ]

let is_bare_compare (e : expression) =
  match ident_path e with Some [ "compare" ] -> true | _ -> false

let poly_eq_names = [ "="; "<>"; "compare" ]

type ctx = {
  file : string;
  exempt_effects : bool;
  mutable tables : string list;
      (** modules this file binds to a functor-made hash table *)
  mutable found : Report.finding list;
}

(* The shared string-keyed table module ([Qc_util.Strtbl]): its
   iteration is flagged under any qualification. *)
let shared_table = "Strtbl"

(* Is the module at [path] a hash table whose [iter]/[fold] walk
   buckets: [Hashtbl], one of the file's own functor-made [tables], or
   the shared table under any qualification? *)
let is_table ~tables path =
  match List.rev path with
  | [ "Hashtbl" ] -> true
  | [ m ] when List.mem m tables -> true
  | m :: _ -> String.equal m shared_table
  | [] -> false

(* [path] is [M.iter] or [M.fold] of a hash-table module [M] *)
let table_iteration ~tables path =
  match List.rev path with
  | ("iter" | "fold") :: (_ :: _ as rev_m) -> is_table ~tables (List.rev rev_m)
  | _ -> false

(* The names of the modules a structure binds to a
   [Hashtbl.Make]/[MakeSeeded] application or to an alias of a table,
   at any depth ([let module] included), in source order so an alias
   sees the bindings before it. *)
let table_modules (ast : structure) =
  let tables = ref [] in
  let rec is_instance (me : module_expr) =
    match me.pmod_desc with
    | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) -> (
        match strip_stdlib (Longident.flatten txt) with
        | [ "Hashtbl"; ("Make" | "MakeSeeded") ] -> true
        | _ -> false)
    | Pmod_ident { txt; _ } ->
        is_table ~tables:!tables (strip_stdlib (Longident.flatten txt))
    | Pmod_constraint (me, _) -> is_instance me
    | _ -> false
  in
  let bind name me =
    match name with
    | Some name when is_instance me -> tables := name :: !tables
    | _ -> ()
  in
  let module_binding (self : Ast_iterator.iterator) (mb : module_binding) =
    bind mb.pmb_name.txt mb.pmb_expr;
    Ast_iterator.default_iterator.module_binding self mb
  in
  let expr (self : Ast_iterator.iterator) (e : expression) =
    (match e.pexp_desc with
    | Pexp_letmodule (name, me, _) -> bind name.txt me
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with module_binding; expr } in
  it.Ast_iterator.structure it ast;
  !tables

let add ctx ~(loc : Location.t) rule msg =
  let p = loc.Location.loc_start in
  ctx.found <-
    {
      Report.file = ctx.file;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      rule;
      msg;
    }
    :: ctx.found

let check_ident ctx ~loc path =
  match path with
  | "Random" :: _ when not ctx.exempt_effects ->
      add ctx ~loc rule_effect
        (Fmt.str "%s: ambient randomness breaks seeded reproducibility — \
                  draw through the seeded Qc_util.Prng"
           (String.concat "." path))
  | ("Unix" | "UnixLabels") :: _ when not ctx.exempt_effects ->
      add ctx ~loc rule_effect
        (Fmt.str "%s: real-world effects (wall clocks, processes, fds) are \
                  banned in library code — use the simulator's virtual time"
           (String.concat "." path))
  | [ "Sys"; "time" ] when not ctx.exempt_effects ->
      add ctx ~loc rule_effect
        "Sys.time: wall-clock reads are banned in library code — use \
         Sim.Core.now (virtual time)"
  | [ ("min" | "max") as f ] ->
      add ctx ~loc rule_minmax
        (Fmt.str "polymorphic %s calls compare_val — use Int.%s (or the \
                  type's own function), or write a float comparison out"
           f f)
  | _ when table_iteration ~tables:ctx.tables path ->
      add ctx ~loc rule_hashtbl
        (Fmt.str "%s: hash-bucket iteration order is implementation-defined \
                  and must not escape — sort the result at the boundary, or \
                  silence with (* lint: order-insensitive *) after review"
           (String.concat "." path))
  | _ -> ()

let check_apply ctx ~loc f args =
  (match ident_path f with
  | Some [ op ] when List.mem op poly_eq_names ->
      if List.exists (fun (_, a) -> floatish a) args then
        add ctx ~loc rule_float
          (Fmt.str "polymorphic %s on a float expression — use Float.compare \
                    / Float.equal (nan and signed zeros)"
             op)
  | Some path when List.mem path sort_functions -> (
      match args with
      | (_, cmp) :: _ when is_bare_compare cmp ->
          add ctx ~loc rule_float
            (Fmt.str "polymorphic compare passed to %s — use a monomorphic \
                      compare (Float.compare, Int.compare, String.compare, ...)"
               (String.concat "." path))
      | _ -> ())
  | _ -> ())

(* A module path to a banned module, to [Sys] or to [Stdlib] itself
   reaches the banned values under names [check_ident] cannot see
   ([R.int], [int] under an open, [S.Random.int]); flag the path where
   it enters.  Every alias, [open], local open, [include], functor
   argument and pack names its module through a [Pmod_ident]. *)
let check_module ctx ~loc path =
  match path with
  | ([] | [ "Sys" ] | ("Random" | "Unix" | "UnixLabels") :: _)
    when not ctx.exempt_effects ->
      let name = if path = [] then "Stdlib" else String.concat "." path in
      add ctx ~loc rule_effect
        (Fmt.str "module %s: an alias or open of this module reaches \
                  Random, Unix or Sys.time under names the rule cannot \
                  see — draw through Qc_util.Prng, read Sim.Core.now"
           name)
  | _ -> ()

(* An [external] binds a C primitive directly, with no module path
   for the checks above to see ([caml_sys_random_seed],
   [caml_sys_time]); every one is flagged, and a reviewed site is
   silenced with [effect-ok]. *)
let check_external ctx ~loc (vd : value_description) =
  if not ctx.exempt_effects then
    add ctx ~loc rule_effect
      (Fmt.str "external %s = %S: a C primitive can reach entropy or the \
                wall clock with no module path — review it and silence \
                with (* lint: effect-ok *)"
         vd.pval_name.txt
         (match vd.pval_prim with p :: _ -> p | [] -> ""))

let iterator ctx =
  let expr (self : Ast_iterator.iterator) (e : expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        check_ident ctx ~loc:e.pexp_loc (strip_stdlib (Longident.flatten txt))
    | Pexp_apply (f, args) -> check_apply ctx ~loc:e.pexp_loc f args
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let module_expr (self : Ast_iterator.iterator) (me : module_expr) =
    (match me.pmod_desc with
    | Pmod_ident { txt; _ } ->
        check_module ctx ~loc:me.pmod_loc
          (strip_stdlib (Longident.flatten txt))
    | _ -> ());
    Ast_iterator.default_iterator.module_expr self me
  in
  let structure_item (self : Ast_iterator.iterator) (si : structure_item) =
    (match si.pstr_desc with
    | Pstr_primitive vd -> check_external ctx ~loc:si.pstr_loc vd
    | _ -> ());
    Ast_iterator.default_iterator.structure_item self si
  in
  { Ast_iterator.default_iterator with expr; module_expr; structure_item }

(* ---------- pragma application ---------- *)

(* A pragma on the finding's line or the line above silences it. *)
let apply_pragmas pragmas findings =
  let silences (p : pragma) (f : Report.finding) =
    match List.assoc_opt p.pname pragma_allowlist with
    | Some rule ->
        rule = f.Report.rule
        && (p.pline = f.Report.line || p.pline = f.Report.line - 1)
    | None -> false
  in
  let kept =
    List.filter
      (fun f ->
        match List.find_opt (fun p -> silences p f) pragmas with
        | Some p ->
            p.used <- true;
            false
        | None -> true)
      findings
  in
  (* the caller rewrites [file] on every finding, so "" is fine here *)
  let pragma_findings =
    List.filter_map
      (fun p ->
        if not (List.mem_assoc p.pname pragma_allowlist) then
          Some
            {
              Report.file = "";
              line = p.pline;
              col = 0;
              rule = rule_unknown_pragma;
              msg =
                Fmt.str "unknown lint pragma %S — allowed: %s" p.pname
                  (String.concat ", " (List.map fst pragma_allowlist));
            }
        else if not p.used then
          Some
            {
              Report.file = "";
              line = p.pline;
              col = 0;
              rule = rule_unused_pragma;
              msg =
                Fmt.str "pragma %S silences nothing on this or the next line \
                         — remove it"
                  p.pname;
            }
        else None)
      pragmas
  in
  kept @ pragma_findings

(* ---------- entry points ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The one implementation file allowed ambient effects: the seeded
   PRNG itself (lib/util/prng.ml). *)
let default_exempt path =
  Filename.basename path = "prng.ml"
  && Filename.basename (Filename.dirname path) = "util"

(** Lint one [.ml] file.  [exempt_effects] disables the effect-ban
    rule (defaults to the {!default_exempt} path test). *)
let lint_file ?exempt_effects path : Report.finding list =
  let exempt_effects =
    match exempt_effects with Some e -> e | None -> default_exempt path
  in
  let ctx = { file = path; exempt_effects; tables = []; found = [] } in
  let pragmas =
    match read_file path with
    | source -> scan_pragmas source
    | exception Sys_error e ->
        add ctx ~loc:Location.none rule_parse e;
        []
  in
  (match Pparse.parse_implementation ~tool_name:"lint" path with
  | ast ->
      ctx.tables <- table_modules ast;
      let it = iterator ctx in
      it.Ast_iterator.structure it ast
  | exception e ->
      let msg =
        match Location.error_of_exn e with
        | Some (`Ok err) -> Fmt.str "%a" Location.print_report err
        | _ -> Printexc.to_string e
      in
      add ctx ~loc:Location.none rule_parse msg);
  let fixed_file f = { f with Report.file = path } in
  Report.sort (List.map fixed_file (apply_pragmas pragmas ctx.found))

(* Deterministic recursive walk: readdir output is sorted before use
   so the report order never depends on the filesystem. *)
let rec collect_ml acc path =
  if Sys.is_directory path then
    let entries = Array.to_list (Sys.readdir path) in
    let entries = List.sort String.compare entries in
    List.fold_left
      (fun acc entry ->
        if entry = "" || entry.[0] = '.' || entry = "_build" then acc
        else collect_ml acc (Filename.concat path entry))
      acc entries
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(** Lint every [.ml] file under the given paths (files or directories,
    walked recursively and deterministically). *)
let lint_paths paths : (Report.finding list, string) result =
  let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
  if missing <> [] then
    Error (Fmt.str "no such file or directory: %s" (String.concat ", " missing))
  else
    let files = List.rev (List.fold_left collect_ml [] paths) in
    Ok (Report.sort (List.concat_map (fun f -> lint_file f) files))
