(* Tests for the determinism lint (lib/lint): fixture sources with
   known violation lines, pragma semantics, the reporters, and a
   qcheck fuzz of the replica dispatch the compiler proves total. *)

module Report = Lint.Report
module Rules = Lint.Rules
module Prng = Qc_util.Prng

let fixture name = Filename.concat "lint_fixtures" name

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let summarize findings =
  List.map (fun f -> (f.Report.line, f.Report.rule)) findings

let line_rule = Alcotest.(list (pair int string))

let check_fixture name expected =
  let findings = Rules.lint_file (fixture name) in
  List.iter
    (fun f ->
      Alcotest.(check string) "finding carries the fixture path"
        (fixture name) f.Report.file)
    findings;
  Alcotest.check line_rule name expected (summarize findings)

(* ---------- one fixture per rule, exact file:line ---------- *)

(* Lines 4-6 name the effect directly; from line 11 on, each finding
   is an escape form entering through a module path: an alias, a local
   open, a let-open, the compiled unit name Stdlib__Random, Stdlib.Random,
   an alias of Stdlib itself, open Sys and open Random. *)
let test_effect_ban () =
  check_fixture "effect_ban.ml"
    (List.map
       (fun line -> (line, Rules.rule_effect))
       [ 4; 5; 6; 11; 13; 14; 15; 16; 17; 19; 21; 23 ])

let test_hashtbl_order () =
  check_fixture "hashtbl_order.ml"
    (List.map
       (fun line -> (line, Rules.rule_hashtbl))
       [ 5; 6; 25; 26; 27; 28; 29; 32 ])

let test_float_eq () =
  check_fixture "float_eq.ml"
    [ (6, Rules.rule_float); (7, Rules.rule_float); (8, Rules.rule_float) ]

let test_poly_minmax () =
  check_fixture "poly_minmax.ml"
    (List.map (fun line -> (line, Rules.rule_minmax)) [ 5; 6; 7; 8 ])

let test_pragma_hygiene () =
  check_fixture "pragma_hygiene.ml"
    [ (4, Rules.rule_unknown_pragma); (7, Rules.rule_unused_pragma) ]

let test_clean_fixture () = check_fixture "clean.ml" []

(* Exempting effects (the lib/util/prng.ml carve-out) silences the
   effect findings — and thereby strands the effect-ok pragma, which
   must then be reported as unused rather than silently dropped. *)
let test_exempt_effects () =
  let findings =
    Rules.lint_file ~exempt_effects:true (fixture "effect_ban.ml")
  in
  Alcotest.check line_rule "exempt file: only the stranded pragma"
    [ (8, Rules.rule_unused_pragma) ]
    (summarize findings)

let test_default_exempt () =
  Alcotest.(check bool) "lib/util/prng.ml exempt" true
    (Rules.default_exempt "lib/util/prng.ml");
  Alcotest.(check bool) "other files not exempt" false
    (Rules.default_exempt "lib/vp/replica.ml")

(* ---------- directory walk + reporters ---------- *)

let all_fixture_findings () =
  match Rules.lint_paths [ "lint_fixtures" ] with
  | Error e -> Alcotest.failf "lint_paths: %s" e
  | Ok findings -> findings

let test_lint_paths_walk () =
  let findings = all_fixture_findings () in
  Alcotest.(check int) "total findings across fixtures" 29
    (List.length findings);
  Alcotest.(check bool) "sorted and deduplicated" true
    (Report.sort findings = findings)

let test_lint_paths_missing () =
  match Rules.lint_paths [ "no/such/path.ml" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing path must be an Error"

let test_reporters () =
  let findings = all_fixture_findings () in
  let text = Report.to_text findings in
  let expect_line = Fmt.str "%s:4:" (fixture "effect_ban.ml") in
  Alcotest.(check bool)
    (Fmt.str "text report mentions %S" expect_line)
    true
    (contains ~affix:expect_line text && contains ~affix:Rules.rule_effect text);
  let json = Report.to_json findings in
  Alcotest.(check bool) "json report carries the count" true
    (contains ~affix:"\"count\":29" json);
  Alcotest.(check string) "json deterministic across runs" json
    (Report.to_json (all_fixture_findings ()))

(* The lint gate itself: the repo's own lib/ tree is clean.  Tests run
   in _build/default/test, so reach the sources through the dune
   project root two levels up. *)
let lib_root = Filename.concat (Filename.concat ".." "..") "lib"

let test_repo_lib_clean () =
  if Sys.file_exists lib_root then
    match Rules.lint_paths [ lib_root ] with
    | Ok [] -> ()
    | Ok findings -> Alcotest.failf "lib/ not clean:\n%s" (Report.to_text findings)
    | Error e -> Alcotest.failf "lint_paths lib/: %s" e

(* ---------- report determinism, replica dispatch fuzz ---------- *)

module Protocol = Store.Protocol
module Replica = Store.Replica

(* Report determinism: any input permutation sorts to the same report,
   and duplicate findings collapse. *)
let test_report_shuffle_regression () =
  let findings = Rules.lint_file (fixture "effect_ban.ml") in
  let sorted = Report.sort findings in
  List.iteri
    (fun i seed ->
      let shuffled = Prng.shuffle (Prng.create seed) (findings @ findings) in
      Alcotest.check line_rule
        (Fmt.str "shuffle %d resorts and dedupes" i)
        (summarize sorted)
        (summarize (Report.sort shuffled)))
    [ 1; 42; 0xbeef ]

(* A generator over the full wire protocol, batches included.  The
   compiler proves [Replica.serve] total over [Protocol.msg] (its
   [@warning "@4@8"] contract); fuzzing random frames through it
   checks that no arm escapes at run time either. *)
let gen_key = QCheck.Gen.oneofl [ "a"; "b"; "k1"; "k2" ]
let gen_id = QCheck.Gen.oneofl [ "t1"; "t2"; "t3" ]

let gen_ctx st =
  if QCheck.Gen.bool st then
    Some (Obs.Ctx.make ~op:(QCheck.Gen.oneofl [ "read"; "write" ] st)
            ~parent:(QCheck.Gen.int_bound 99 st))
  else None

let gen_kv st = (gen_key st, QCheck.Gen.int_bound 9 st)

let gen_kvv st =
  (gen_key st, QCheck.Gen.int_bound 9 st, QCheck.Gen.int_bound 99 st)

let gen_small_list g st =
  QCheck.Gen.list_size (QCheck.Gen.int_bound 3) g st

let rec gen_msg depth st : Protocol.msg =
  let open QCheck.Gen in
  let rid = int_bound 99 st in
  let key = gen_key st in
  let txid =
    let name = gen_id st in
    { Qc_util.Txid.id = Hashtbl.hash name; name }
  in
  let bal = int_bound 5 st in
  match int_bound (if depth > 0 then 13 else 11) st with
  | 0 -> Protocol.Query_req { rid; key; ctx = gen_ctx st }
  | 1 -> Protocol.Query_rep { rid; key; vn = int_bound 9 st; value = int_bound 99 st }
  | 2 ->
      Protocol.Install_req
        { rid; key; vn = int_bound 9 st; value = int_bound 99 st; ctx = gen_ctx st }
  | 3 -> Protocol.Install_ack { rid; key }
  | 4 ->
      Protocol.Txn_prepare
        {
          rid; txid;
          writes = gen_small_list gen_kv st;
          reads = gen_small_list gen_key st;
          acceptors = gen_small_list gen_id st;
          paxos = bool st;
        }
  | 5 ->
      Protocol.Txn_vote
        { rid; txid; yes = bool st; kvs = gen_small_list gen_kvv st }
  | 6 -> Protocol.Txn_p1a { rid; txid; bal }
  | 7 ->
      let accepted =
        if bool st then Some (bal, bool st, gen_small_list gen_kvv st) else None
      in
      Protocol.Txn_p1b { rid; txid; bal; ok = bool st; accepted }
  | 8 ->
      Protocol.Txn_p2a
        { rid; txid; bal; commit = bool st;
          writes = gen_small_list gen_kvv st }
  | 9 -> Protocol.Txn_p2b { rid; txid; bal; ok = bool st }
  | 10 ->
      Protocol.Txn_decide
        { rid; txid; commit = bool st;
          writes = gen_small_list gen_kvv st }
  | 11 -> Protocol.Txn_decide_ack { rid; txid; applied = bool st }
  | 12 -> Protocol.Batch_req { rid; reqs = gen_small_list (gen_msg (depth - 1)) st }
  | _ -> Protocol.Batch_rep { rid; reps = gen_small_list (gen_msg (depth - 1)) st }

let arb_msg = QCheck.make (gen_msg 2)

(* The dispatch the compiler checked for totality handles every frame
   without a match failure (or any other escape). *)
let prop_handler_total =
  QCheck.Test.make ~count:300 ~name:"replica handles every random frame"
    arb_msg
    (fun m ->
      let t = Replica.create ~name:"fuzz" () in
      let tr = Obs.Trace.create ~enabled:false () in
      match Replica.handle_one t ~tr m with
      | _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "handle_one raised %s"
            (Printexc.to_string e))

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "effect-ban fixture" `Quick test_effect_ban;
        Alcotest.test_case "hashtbl-order fixture" `Quick test_hashtbl_order;
        Alcotest.test_case "float-compare fixture" `Quick test_float_eq;
        Alcotest.test_case "poly-minmax fixture" `Quick test_poly_minmax;
        Alcotest.test_case "pragma hygiene fixture" `Quick
          test_pragma_hygiene;
        Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        Alcotest.test_case "exempt effects strands pragma" `Quick
          test_exempt_effects;
        Alcotest.test_case "default exemption" `Quick test_default_exempt;
        Alcotest.test_case "directory walk" `Quick test_lint_paths_walk;
        Alcotest.test_case "missing path is an error" `Quick
          test_lint_paths_missing;
        Alcotest.test_case "text and json reporters" `Quick test_reporters;
        Alcotest.test_case "repo lib/ is lint-clean" `Quick
          test_repo_lib_clean;
        Alcotest.test_case "report shuffle regression" `Quick
          test_report_shuffle_regression;
        qcheck prop_handler_total;
      ] );
  ]
