(* Determinism lint, CI-gated.

     lint.exe [OPTS] PATH...     lint every .ml under PATHs (parse trees)

   Options:
     --json FILE      also write the findings as JSON
     --only RULE      keep only findings of RULE (repeatable)
     --exclude RULE   drop findings of RULE (repeatable)

   --only/--exclude must name lint rules and leave at least one to
   run.  Any other operand starting with "--" is a usage error, not a
   path.

   Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

   The lint walks parse trees (compiler-libs) for the four determinism
   rules (effect ban, Hashtbl iteration order, float comparison,
   polymorphic min/max) plus pragma hygiene.  See DESIGN.md
   section 12. *)

let usage () =
  Fmt.epr
    "usage: lint.exe [--json FILE] [--only RULE] [--exclude RULE] PATH...@.";
  exit 2

(* Open the --json report before any work, so an unwritable path is a
   usage error at once rather than an exception after the report. *)
let open_json = function
  | None -> None
  | Some path -> (
      match open_out path with
      | oc -> Some oc
      | exception Sys_error e ->
          Fmt.epr "lint: cannot write %s@." e;
          exit 2)

let write_json oc contents =
  Option.iter
    (fun oc ->
      output_string oc contents;
      close_out oc)
    oc

type opts = {
  json : string option;
  only : string list;
  exclude : string list;
  operands : string list;
}

(* options anywhere in the argument list; the rest are operands *)
let parse_opts args =
  let rec go o = function
    | [] -> { o with only = List.rev o.only; exclude = List.rev o.exclude;
              operands = List.rev o.operands }
    | "--json" :: file :: rest -> go { o with json = Some file } rest
    | "--only" :: rule :: rest -> go { o with only = rule :: o.only } rest
    | "--exclude" :: rule :: rest ->
        go { o with exclude = rule :: o.exclude } rest
    | [ ("--json" | "--only" | "--exclude") ] -> usage ()
    | a :: _ when String.starts_with ~prefix:"--" a ->
        Fmt.epr "lint: unknown option %s@." a;
        usage ()
    | a :: rest -> go { o with operands = a :: o.operands } rest
  in
  go { json = None; only = []; exclude = []; operands = [] } args

(* the rule ids the per-file lint emits *)
let lint_rules =
  [
    Lint.Rules.rule_effect;
    Lint.Rules.rule_hashtbl;
    Lint.Rules.rule_float;
    Lint.Rules.rule_minmax;
    Lint.Rules.rule_parse;
    Lint.Rules.rule_unknown_pragma;
    Lint.Rules.rule_unused_pragma;
  ]

let wanted o rule =
  (o.only = [] || List.mem rule o.only) && not (List.mem rule o.exclude)

(* A filter must name lint rules and leave one to run: otherwise a
   typo'd --only RULE, or a lint filtered down to nothing, would report
   "clean" having checked nothing. *)
let check_rules o =
  List.iter
    (fun r ->
      if not (List.mem r lint_rules) then begin
        Fmt.epr "lint: no rule %S (rules: %s)@." r
          (String.concat ", " lint_rules);
        exit 2
      end)
    (o.only @ o.exclude);
  if not (List.exists (wanted o) lint_rules) then begin
    Fmt.epr "lint: --only/--exclude leave no rule to run@.";
    exit 2
  end

let run_lint o =
  check_rules o;
  let oc = open_json o.json in
  match Lint.Rules.lint_paths o.operands with
  | Error e ->
      Fmt.epr "lint: %s@." e;
      exit 2
  | Ok findings ->
      let findings =
        List.filter (fun (f : Lint.Report.finding) -> wanted o f.rule) findings
      in
      write_json oc (Lint.Report.to_json findings);
      if findings = [] then begin
        Fmt.pr "lint: clean (%s)@." (String.concat " " o.operands);
        exit 0
      end
      else begin
        Fmt.pr "%s@." (Lint.Report.to_text findings);
        Fmt.pr "lint: %d finding(s)@." (List.length findings);
        exit 1
      end

let () =
  match parse_opts (List.tl (Array.to_list Sys.argv)) with
  | { operands = []; _ } -> usage ()
  | o -> run_lint o
