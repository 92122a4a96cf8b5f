(* Determinism lint + static quorum checker + whole-program analyzer,
   CI-gated.

     lint.exe [OPTS] PATH...     lint every .ml under PATHs (parse trees)
     lint.exe quorum [--json FILE]
                                 static quorum-intersection check
     lint.exe analyze [OPTS]     whole-program pass over typedtrees
                                 (effect taint)

   Options:
     --json FILE      also write the findings as JSON
     --only RULE      keep only findings of RULE (repeatable)
     --exclude RULE   drop findings of RULE (repeatable)
     --build DIR      analyze: build dir holding .cmt files
                      (default _build/default)
     --src PREFIX     analyze: only units whose source path starts with
                      PREFIX (repeatable; default lib/)

   --only/--exclude must name rules of the chosen mode and leave it at
   least one to run; --build/--src belong to analyze alone.

   Exit codes: 0 clean, 1 findings/violations, 2 usage or I/O error.

   The code lint walks parse trees (compiler-libs) for the three
   determinism rules (effect ban, Hashtbl iteration order, float
   comparison) plus pragma hygiene; the quorum subcommand verifies
   read/write and write/write intersection, minimality and
   non-domination for every shipped configuration family without
   running the simulator; the analyze subcommand reads the typedtrees
   dune already produced and traces banned effects through the call
   graph.  See DESIGN.md sections 12 and 17. *)

let usage () =
  Fmt.epr
    "usage: lint.exe [--json FILE] [--only RULE] [--exclude RULE] PATH...@.\
    \       lint.exe quorum [--json FILE]@.\
    \       lint.exe analyze [--json FILE] [--build DIR] [--src PREFIX] \
     [--only RULE] [--exclude RULE]@.";
  exit 2

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

type opts = {
  json : string option;
  only : string list;
  exclude : string list;
  build : string option;
  srcs : string list;  (** reversed; empty means default *)
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
    | "--build" :: dir :: rest -> go { o with build = Some dir } rest
    | "--src" :: prefix :: rest -> go { o with srcs = prefix :: o.srcs } rest
    | [ ("--json" | "--only" | "--exclude" | "--build" | "--src") ] ->
        usage ()
    | a :: rest -> go { o with operands = a :: o.operands } rest
  in
  go
    { json = None; only = []; exclude = []; build = None; srcs = [];
      operands = [] }
    args

(* the rule ids the per-file lint emits *)
let lint_rules =
  [
    Lint.Rules.rule_effect;
    Lint.Rules.rule_hashtbl;
    Lint.Rules.rule_float;
    Lint.Rules.rule_parse;
    Lint.Rules.rule_unknown_pragma;
    Lint.Rules.rule_unused_pragma;
  ]

let wanted o rule =
  (o.only = [] || List.mem rule o.only) && not (List.mem rule o.exclude)

(* A filter must name rules of the mode that runs and leave it one to
   run: otherwise a typo'd or foreign --only RULE, or a mode filtered
   down to nothing, would report "clean" having checked nothing. *)
let check_rules ~mode ~rules o =
  List.iter
    (fun r ->
      if not (List.mem r rules) then begin
        Fmt.epr "lint: %s has no rule %S (its rules: %s)@." mode r
          (String.concat ", " rules);
        exit 2
      end)
    (o.only @ o.exclude);
  if not (List.exists (wanted o) rules) then begin
    Fmt.epr "lint: --only/--exclude leave %s no rule to run@." mode;
    exit 2
  end

let report ~json ~label findings =
  Option.iter (fun file -> write_file file (Lint.Report.to_json findings)) json;
  if findings = [] then begin
    Fmt.pr "lint: clean (%s)@." label;
    exit 0
  end
  else begin
    Fmt.pr "%s@." (Lint.Report.to_text findings);
    Fmt.pr "lint: %d finding(s)@." (List.length findings);
    exit 1
  end

let run_quorum json =
  let summary =
    match Lint.Quorum_check.run () with Ok s -> s | Error s -> s
  in
  Fmt.pr "%a" Lint.Quorum_check.pp_summary summary;
  Option.iter
    (fun file -> write_file file (Lint.Quorum_check.to_json summary))
    json;
  exit (if summary.Lint.Quorum_check.violations = [] then 0 else 1)

let run_lint o =
  check_rules ~mode:"lint" ~rules:lint_rules o;
  if o.build <> None || o.srcs <> [] then begin
    Fmt.epr "lint: --build and --src apply to analyze only@.";
    exit 2
  end;
  match Lint.Rules.lint_paths o.operands with
  | Error e ->
      Fmt.epr "lint: %s@." e;
      exit 2
  | Ok findings ->
      let findings =
        List.filter (fun (f : Lint.Report.finding) -> wanted o f.rule) findings
      in
      report ~json:o.json ~label:(String.concat " " o.operands) findings

let run_analyze o =
  check_rules ~mode:"analyze" ~rules:Lint.Analyze.all_rules o;
  if o.operands <> [] then usage ();
  let src_prefixes =
    match o.srcs with [] -> [ "lib/" ] | l -> List.rev l
  in
  let build_dir = Option.value o.build ~default:"_build/default" in
  match
    Lint.Analyze.run ~only:o.only ~exclude:o.exclude ~build_dir ~src_prefixes
      ()
  with
  | Error e ->
      Fmt.epr "lint: %s@." e;
      exit 2
  | Ok findings ->
      report ~json:o.json
        ~label:(Fmt.str "analyze %s" (String.concat " " src_prefixes))
        findings

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "quorum" :: rest -> (
      match parse_opts rest with
      | { operands = []; only = []; exclude = []; build = None; srcs = [];
          json } ->
          run_quorum json
      | _ -> usage ())
  | "analyze" :: rest -> run_analyze (parse_opts rest)
  | args -> (
      match parse_opts args with
      | { operands = []; _ } -> usage ()
      | o -> run_lint o)
