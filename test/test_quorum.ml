(* Tests for the fixed quorum consensus algorithm (paper Section 3):
   configurations, TMs, system B/A construction, the Lemma 6/7/8
   invariant checkers, and the Theorem 10 simulation — including
   property-based randomized validation and checker-sensitivity
   (mutation) tests. *)

open Ioa
module Config = Quorum.Config
module Item = Quorum.Item
module Prng = Qc_util.Prng
module Coterie = Quorum.Coterie
module Strategy = Store.Strategy

(* ---------- configurations ---------- *)

let dms n = List.init n (fun i -> Fmt.str "d%d" i)

(* The formal half's legality check and the store half's agree: the
   store sees a configuration as one bit per member, each side the
   predicate "the replica set holds one of its quorums". *)
let halves_agree (c : Config.t) =
  let u = Config.members c in
  let holds qs m = List.exists (fun q -> Coterie.mask_of u q land lnot m = 0) qs in
  Strategy.make ~name:"config" ~n:(List.length u) ~read_ok:(holds c.read_quorums)
    ~write_ok:(holds c.write_quorums)
  |> Strategy.legal |> Bool.equal (Config.legal c)

(* Kumar's tree quorums from lists: a within-group majority from two of
   three contiguous groups, bounds [g*n/3 .. (g+1)*n/3) as in
   [Strategy.tree]. *)
let tree_config n =
  let majorities g =
    let ms = List.filteri (fun i _ -> i >= g * n / 3 && i < (g + 1) * n / 3) (dms n) in
    Config.subsets_of_size ((List.length ms / 2) + 1) ms
  in
  let pick acc g = List.concat_map (fun q -> List.map (( @ ) q) (majorities g)) acc in
  let qs = List.concat_map (List.fold_left pick [ [] ]) [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ] in
  Config.make ~read_quorums:qs ~write_quorums:qs

(* Every family over small universes with what its construction
   promises ([None]: nothing) for write/write intersection,
   non-domination of the write coterie, and antichain sides; then 100
   seeded samples of the random generator. *)
let catalog =
  let yes = Some true and any = None in
  let weighted votes r w =
    Config.weighted ~votes:(List.combine (dms (List.length votes)) votes)
      ~read_threshold:r ~write_threshold:w
  in
  List.concat_map
    (fun n ->
      let u = dms n in
      [ (* {U} is dominated by any smaller coterie once |U| > 1 *)
        (Fmt.str "rowa-%d" n, yes, Some (n = 1), yes, Config.rowa u);
        (* singleton writes stop meeting at n > 1: the generalization
           beyond coteries the paper's algorithm allows *)
        (Fmt.str "raow-%d" n, Some (n = 1), any, yes, Config.raow u);
        (* majorities are non-dominated exactly at odd n *)
        (Fmt.str "majority-%d" n, yes, Some (n mod 2 = 1), yes, Config.majority u) ])
    [ 1; 2; 3; 4; 5; 6 ]
  @ [ ("weighted-1.1.1-r2w2", yes, yes, yes, weighted [ 1; 1; 1 ] 2 2);
      ("weighted-2.1.1-r2w3", yes, Some false, yes, weighted [ 2; 1; 1 ] 2 3);
      ("weighted-3.2.1.1-r4w4", yes, any, yes, weighted [ 3; 2; 1; 1 ] 4 4) ]
  @ List.map
      (fun (r, c) ->
        (Fmt.str "grid-%dx%d" r c, yes, any, any, Config.grid ~rows:r ~cols:c (dms (r * c))))
      [ (1, 4); (4, 1); (2, 2); (2, 3); (3, 2); (3, 3) ]
  @ List.map (fun n -> (Fmt.str "tree-3/%d" n, yes, any, yes, tree_config n)) [ 4; 5; 6; 9 ]
  @ List.init 100 (fun seed ->
        let rng = Prng.create seed in
        let c = Quorum.Gen.config rng (dms (1 + Prng.int rng 5)) in
        (Fmt.str "gen-seed%d" seed, any, any, any, c))

(* Assert, on every catalog row, each [(what, promise, actual)] the row
   promises something for. *)
let check_catalog checks =
  List.iter
    (fun ((name, _, _, _, _) as row) ->
      List.iter
        (fun (what, promise, actual) ->
          Option.iter (fun p -> Alcotest.(check bool) (name ^ " " ^ what) p actual) promise)
        (checks row))
    catalog

let test_config_families () =
  check_catalog (fun (_, _, _, antichain, c) ->
      let u = Config.members c in
      let is_antichain qs =
        List.length (Coterie.minimize (List.map (Coterie.mask_of u) qs)) = List.length qs
      in
      [ ("legal", Some true, Config.legal c);
        ("antichain", antichain, is_antichain c.read_quorums && is_antichain c.write_quorums) ])

let test_classic_verdicts () =
  check_catalog (fun (_, ww, nd, _, c) ->
      let cot = Coterie.of_write_side c in
      (* every non-domination promise comes with a write coterie *)
      [ ("write/write intersection", ww, cot <> None);
        ("non-dominated", nd, Option.fold ~none:false ~some:Coterie.non_dominated cot) ])

let test_catalog_clean () =
  Alcotest.(check int) "catalog size" 131 (List.length catalog);
  check_catalog (fun (_, _, _, _, c) ->
      let u = Config.members c and minimized = Coterie.minimize_config c in
      let covered c mask =
        let s = Coterie.quorum_of u mask in
        (Config.read_covered c s, Config.write_covered c s)
      in
      let nd_iff_no_witness k =
        Bool.equal (Coterie.non_dominated k) (Coterie.domination_witness k = None)
      in
      [ ( "nd iff no witness", Some true,
          Option.fold ~none:true ~some:nd_iff_no_witness (Coterie.of_write_side c) );
        ( "minimize_config keeps coverage", Some true,
          List.for_all
            (fun m -> covered c m = covered minimized m)
            (List.init (1 lsl List.length u) Fun.id) ) ]);
  (* the list-built tree family is the store's [Strategy.tree] *)
  List.iter
    (fun n ->
      let masks = List.map (Coterie.mask_of (dms n)) (tree_config n).read_quorums in
      let minimal side = (Strategy.quorums (Strategy.tree ~groups:3 n) side).minimal in
      let expected = List.sort (Fun.flip Int.compare) masks in
      Alcotest.(check (list int)) (Fmt.str "tree-3/%d read" n) expected (minimal `Read);
      Alcotest.(check (list int)) (Fmt.str "tree-3/%d write" n) expected (minimal `Write))
    [ 4; 5; 6; 9 ]

let test_halves_agree () =
  check_catalog (fun (_, _, _, _, c) ->
      [ ("legal, both halves", Some true, Config.legal c && halves_agree c) ]);
  let disjoint = Config.make ~read_quorums:[ [ "a" ] ] ~write_quorums:[ [ "b" ] ] in
  Alcotest.(check bool) "disjoint quorums illegal, both halves" true
    ((not (Config.legal disjoint)) && halves_agree disjoint)

(* Static/dynamic cross-check: a description whose configurations are
   all legal also survives the full dynamic harness (run the system,
   check Lemmas 5-8 and Theorem 10). *)
let test_static_dynamic_cross_check () =
  let d = Quorum.Gen.description (Prng.create 2026) in
  List.iter
    (fun (it : Item.t) ->
      Alcotest.(check bool) (it.name ^ " legal") true (Config.legal it.config))
    d.Quorum.Description.items;
  match Quorum.Harness.run_and_check ~seed:2026 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "dynamic harness rejected seed 2026: %s" e

let test_config_illegal () =
  let c =
    Config.make ~read_quorums:[ [ "d0" ] ] ~write_quorums:[ [ "d1" ] ]
  in
  Alcotest.(check bool) "disjoint quorums illegal" false (Config.legal c);
  Alcotest.(check bool) "empty read side illegal" false
    (Config.legal (Config.make ~read_quorums:[] ~write_quorums:[ [ "d0" ] ]))

let test_config_covered () =
  let c = Config.majority [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "two of three covers" true
    (Config.read_covered c [ "a"; "c" ]);
  Alcotest.(check bool) "one of three does not" false
    (Config.read_covered c [ "b" ]);
  Alcotest.(check bool) "superset covers" true
    (Config.write_covered c [ "a"; "b"; "c" ])

let test_weighted_thresholds () =
  Alcotest.check_raises "r+w <= v rejected"
    (Invalid_argument
       "Config.weighted: r(1) + w(3) must exceed total votes (4)") (fun () ->
      ignore
        (Config.weighted
           ~votes:[ ("d0", 2); ("d1", 1); ("d2", 1) ]
           ~read_threshold:1 ~write_threshold:3))

let test_grid_dimensions () =
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Config.grid: |dms| must equal rows * cols") (fun () ->
      ignore (Config.grid ~rows:2 ~cols:2 [ "a"; "b"; "c" ]))

let test_majority_sizes () =
  let c = Config.majority (dms 5) in
  List.iter
    (fun q -> Alcotest.(check int) "majority quorum size" 3 (List.length q))
    (c.Config.read_quorums @ c.Config.write_quorums)

(* qcheck: every generated configuration family is legal *)
let prop_gen_configs_legal =
  QCheck.Test.make ~count:200 ~name:"generated configurations are legal"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      Config.legal (Quorum.Gen.config rng (dms (1 + Prng.int rng 5))))

(* qcheck: both halves agree on generated configurations (always legal)
   and on a mutant with a read quorum outside its members (never) *)
let prop_halves_agree =
  QCheck.Test.make ~count:200 ~name:"halves agree on random and broken configs"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let c = Quorum.Gen.config rng (dms (1 + Prng.int rng 5)) in
      let broken = Config.make ~read_quorums:[ [ "zz" ] ] ~write_quorums:c.write_quorums in
      halves_agree c && halves_agree broken && not (Config.legal broken))

(* qcheck: weighted voting with r + w > v is always legal *)
let prop_weighted_legal =
  QCheck.Test.make ~count:200 ~name:"weighted voting legality"
    QCheck.(pair (int_range 0 10_000) (int_range 1 5))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let votes = List.init n (fun i -> (Fmt.str "d%d" i, 1 + Prng.int rng 3)) in
      let total = List.fold_left (fun a (_, v) -> a + v) 0 votes in
      let r = 1 + Prng.int rng total in
      let w = total - r + 1 in
      Config.legal (Config.weighted ~votes ~read_threshold:r ~write_threshold:w))

(* ---------- items and descriptions ---------- *)

let test_item_validation () =
  Alcotest.check_raises "illegal config rejected"
    (Invalid_argument "Item.make x: configuration is not legal") (fun () ->
      ignore
        (Item.make ~name:"x" ~dms:[ "d0"; "d1" ]
           ~config:(Config.make ~read_quorums:[ [ "d0" ] ] ~write_quorums:[ [ "d1" ] ])
           ~initial:Value.Nil))

let test_description_overlapping_dms () =
  let mk name dms =
    Item.make ~name ~dms ~config:(Config.majority dms) ~initial:(Value.Int 0)
  in
  let d =
    {
      Quorum.Description.items = [ mk "x" [ "d0"; "d1" ]; mk "y" [ "d1"; "d2" ] ];
      raw_objects = [];
      root_script =
        { Serial.User_txn.children = []; ordered = true;
      eager = false; returns = Serial.User_txn.return_nil };
    }
  in
  Alcotest.(check bool) "overlap rejected" true
    (Result.is_error (Quorum.Description.validate d))

(* ---------- deterministic scenario ---------- *)

let scenario_description config_of =
  let item =
    Item.make ~name:"x" ~dms:[ "d0"; "d1"; "d2" ]
      ~config:(config_of [ "d0"; "d1"; "d2" ])
      ~initial:(Value.Int 0)
  in
  let script =
    {
      Serial.User_txn.children =
        [
          Serial.User_txn.Sub
            ( "t1",
              {
                Serial.User_txn.children =
                  [
                    Serial.User_txn.Access_child
                      (Txn.Access
                         { obj = "x"; kind = Txn.Write; data = Value.Int 42; seq = 0 });
                    Serial.User_txn.Access_child
                      (Txn.Access
                         { obj = "x"; kind = Txn.Read; data = Value.Nil; seq = 1 });
                  ];
                ordered = true;
                eager = false;
                returns = Serial.User_txn.return_all;
              } );
        ];
      ordered = true;
      eager = false;
      returns = Serial.User_txn.return_nil;
    }
  in
  { Quorum.Description.items = [ item ]; raw_objects = []; root_script = script }

(* write 42 then read must yield 42, under every configuration family *)
let test_write_then_read_families () =
  List.iter
    (fun (name, config_of) ->
      let d = scenario_description config_of in
      let ok = ref 0 in
      for seed = 1 to 20 do
        let run = Quorum.Harness.run_b ~abort_rate:0.0 ~seed d in
        (match Quorum.Harness.check_all d run.System.schedule with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" name e);
        (* when the read-TM committed, it must have returned 42 *)
        List.iter
          (fun a ->
            match a with
            | Action.Request_commit (t, v)
              when Txn.obj_of t = Some "x" && Txn.kind_of t = Some Txn.Read ->
                if Value.equal v (Value.Int 42) then incr ok
                else Alcotest.failf "%s: read returned %a" name Value.pp v
            | _ -> ())
          run.System.schedule
      done;
      Alcotest.(check bool)
        (name ^ ": some reads completed")
        true (!ok > 0))
    [
      ("rowa", Config.rowa);
      ("raow", Config.raow);
      ("majority", Config.majority);
    ]

(* ---------- logical state definitions ---------- *)

let test_logical_definitions () =
  let d = scenario_description Config.majority in
  let item = List.hd d.Quorum.Description.items in
  let run = Quorum.Harness.run_b ~abort_rate:0.0 ~seed:3 d in
  let sched = run.System.schedule in
  Alcotest.(check bool) "quiescent" true run.System.quiescent;
  Alcotest.(check bool) "logical state is 42" true
    (Value.equal (Value.Int 42) (Quorum.Logical.logical_state item sched));
  Alcotest.(check int) "current vn is 1" 1 (Quorum.Logical.current_vn item sched);
  Alcotest.(check int) "access sequence length 4 (two TMs)" 4
    (List.length (Quorum.Logical.access_sequence item sched));
  (* DM states: a write quorum at vn 1 with value 42 *)
  let dm_states = Quorum.Logical.dm_states item sched in
  let at1 = List.filter (fun (_, (vn, _)) -> vn = 1) dm_states in
  Alcotest.(check bool) "at least 2 DMs at vn 1 (majority)" true
    (List.length at1 >= 2);
  List.iter
    (fun (dm, (_, v)) ->
      Alcotest.(check bool) (dm ^ " holds 42") true (Value.equal v (Value.Int 42)))
    at1

(* ---------- invariant checkers: sensitivity (mutation tests) ---------- *)

let base_run seed =
  let rng = Prng.create seed in
  let d = Quorum.Gen.description rng in
  let run = Quorum.Harness.run_b ~abort_rate:0.05 ~seed:(seed * 7) d in
  (d, run.System.schedule)

let test_mutation_read_value_caught () =
  let d, beta = base_run 99 in
  let is_read_tm t =
    match Quorum.Description.role_of d t with
    | Some (Quorum.Description.Tm (_, Txn.Read)) -> true
    | _ -> false
  in
  let mutated =
    List.map
      (fun a ->
        match a with
        | Action.Request_commit (t, _) when is_read_tm t ->
            Action.Request_commit (t, Value.Int (-1))
        | a -> a)
      beta
  in
  Alcotest.(check bool) "base passes" true
    (Result.is_ok (Quorum.Harness.check_all d beta));
  Alcotest.(check bool) "corrupted read caught" true
    (Result.is_error (Quorum.Harness.check_all d mutated))

let test_mutation_missing_dm_caught () =
  (* whether erasing one DM's operations breaks an invariant depends
     on which quorums the run actually used; over enough random runs
     it must be caught at least once *)
  let caught = ref 0 in
  for seed = 90 to 110 do
    let d, beta = base_run seed in
    let dm0 = List.hd (List.hd d.Quorum.Description.items).Item.dms in
    let mutated =
      List.filter
        (fun a ->
          match a with
          | Action.Request_commit (t, _) | Action.Create t ->
              not (Txn.obj_of t = Some dm0)
          | _ -> true)
        beta
    in
    if
      List.length mutated < List.length beta
      && Result.is_error (Quorum.Harness.check_all d mutated)
    then incr caught
  done;
  Alcotest.(check bool) "erased DM ops caught at least once" true (!caught > 0)

let test_mutation_duplicate_tm_create_caught () =
  (* duplicating a TM CREATE violates Lemma 6 alternation *)
  let d, beta = base_run 42 in
  let is_tm t =
    match Quorum.Description.role_of d t with
    | Some (Quorum.Description.Tm _) -> true
    | _ -> false
  in
  let dup = ref false in
  let mutated =
    List.concat_map
      (fun a ->
        match a with
        | Action.Create t when is_tm t && not !dup ->
            dup := true;
            [ a; a ]
        | a -> [ a ])
      beta
  in
  if !dup then
    Alcotest.(check bool) "duplicated TM create caught" true
      (Result.is_error (Quorum.Harness.check_all d mutated))

(* ---------- property: the full pipeline on random systems ---------- *)

let prop_random_systems_correct =
  QCheck.Test.make ~count:60
    ~name:"Lemmas 5-8 + Theorem 10 hold on random serial executions"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match Quorum.Harness.run_and_check ~seed () with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_theorem10_projection_clean =
  QCheck.Test.make ~count:40
    ~name:"Theorem 10 projection removes exactly the replica accesses"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let d = Quorum.Gen.description rng in
      let run = Quorum.Harness.run_b ~abort_rate:0.1 ~seed d in
      let beta = run.System.schedule in
      let erased = Quorum.Description.is_replica_access d in
      let alpha = Schedule.erase erased beta in
      List.length alpha <= List.length beta
      && List.for_all (fun a -> not (erased (Action.txn a))) alpha)

(* a run with zero aborts and quiescence commits every top-level txn *)
let test_no_abort_run_commits_everything () =
  let d = scenario_description Config.rowa in
  let run = Quorum.Harness.run_b ~abort_rate:0.0 ~seed:5 d in
  Alcotest.(check bool) "quiescent" true run.System.quiescent;
  let commits =
    List.filter
      (function
        | Action.Commit (t, _) -> List.length t = 1
        | _ -> false)
      run.System.schedule
  in
  Alcotest.(check int) "one top-level commit" 1 (List.length commits)

(* ---------- edge cases ---------- *)

(* the checks are prefix-closed: truncating a run mid-flight must
   still pass everything (Theorem 10 holds for ALL schedules of B,
   complete or not) *)
let test_truncated_runs_pass () =
  for seed = 1 to 10 do
    let rng = Prng.create (300 + seed) in
    let d = Quorum.Gen.description rng in
    List.iter
      (fun max_steps ->
        let run = Quorum.Harness.run_b ~max_steps ~seed d in
        match Quorum.Harness.check_all d run.System.schedule with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d steps %d: %s" seed max_steps e)
      [ 5; 17; 63 ]
  done

(* an item on a single DM degenerates to the unreplicated case *)
let test_single_dm_item () =
  let d = scenario_description (fun dms -> Config.rowa dms) in
  let d =
    {
      d with
      Quorum.Description.items =
        [
          Item.make ~name:"x" ~dms:[ "d_only" ]
            ~config:(Config.rowa [ "d_only" ])
            ~initial:(Value.Int 0);
        ];
    }
  in
  for seed = 1 to 5 do
    let run = Quorum.Harness.run_b ~abort_rate:0.0 ~seed d in
    match Quorum.Harness.check_all d run.System.schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* deep nesting: five levels of subtransactions around one access *)
let test_deep_nesting () =
  let rec nest depth =
    if depth = 0 then
      {
        Serial.User_txn.children =
          [
            Serial.User_txn.Access_child
              (Txn.Access { obj = "x"; kind = Txn.Write; data = Value.Int 5; seq = 0 });
            Serial.User_txn.Access_child
              (Txn.Access { obj = "x"; kind = Txn.Read; data = Value.Nil; seq = 1 });
          ];
        ordered = true;
        eager = false;
        returns = Serial.User_txn.return_all;
      }
    else
      {
        Serial.User_txn.children =
          [ Serial.User_txn.Sub (Fmt.str "level%d" depth, nest (depth - 1)) ];
        ordered = true;
        eager = false;
        returns = Serial.User_txn.return_all;
      }
  in
  let d =
    {
      Quorum.Description.items =
        [
          Item.make ~name:"x" ~dms:[ "d0"; "d1"; "d2" ]
            ~config:(Config.majority [ "d0"; "d1"; "d2" ])
            ~initial:(Value.Int 0);
        ];
      raw_objects = [];
      root_script = nest 5;
    }
  in
  let run = Quorum.Harness.run_b ~abort_rate:0.0 ~seed:9 d in
  Alcotest.(check bool) "quiescent" true run.System.quiescent;
  match Quorum.Harness.check_all d run.System.schedule with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* the two independent logical-state computations agree *)
let test_logical_state_cross_check () =
  for seed = 1 to 15 do
    let rng = Prng.create (500 + seed) in
    let d = Quorum.Gen.description rng in
    let run = Quorum.Harness.run_b ~seed d in
    let via_invariants =
      Quorum.Invariants.final_logical_states d run.System.schedule
    in
    List.iter
      (fun (i : Item.t) ->
        let via_logical = Quorum.Logical.logical_state i run.System.schedule in
        match List.assoc_opt i.Item.name via_invariants with
        | Some v ->
            Alcotest.(check bool)
              (Fmt.str "seed %d item %s" seed i.Item.name)
              true (Value.equal v via_logical)
        | None -> Alcotest.fail "missing item")
      d.Quorum.Description.items
  done

(* a TM that exhausts its access attempts (all aborted) stalls without
   violating anything: the run simply never quiesces for that branch *)
let test_stuck_tm_still_sound () =
  let d = scenario_description Config.rowa in
  (* abort_rate 1.0: the scheduler aborts whenever possible *)
  for seed = 1 to 5 do
    let run = Quorum.Harness.run_b ~abort_rate:1.0 ~seed d in
    match Quorum.Harness.check_all d run.System.schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

(* ---------- exhaustive exploration (small instances) ---------- *)

let tiny_description config_of dms ops =
  let item =
    Item.make ~name:"x" ~dms ~config:(config_of dms) ~initial:(Value.Int 0)
  in
  {
    Quorum.Description.items = [ item ];
    raw_objects = [];
    root_script =
      {
        Serial.User_txn.children =
          [
            Serial.User_txn.Sub
              ( "t",
                {
                  Serial.User_txn.children = ops;
                  ordered = true;
                  eager = false;
                  returns = Serial.User_txn.return_all;
                } );
          ];
        ordered = true;
        eager = false;
        returns = Serial.User_txn.return_nil;
      };
  }

let tw v seq =
  Serial.User_txn.Access_child
    (Txn.Access { obj = "x"; kind = Txn.Write; data = Value.Int v; seq })

let tr seq =
  Serial.User_txn.Access_child
    (Txn.Access { obj = "x"; kind = Txn.Read; data = Value.Nil; seq })

let test_exhaustive_no_aborts () =
  (* every abort-free schedule of the 2-DM majority write+read system *)
  let d = tiny_description Config.majority [ "d0"; "d1" ] [ tw 1 0; tr 1 ] in
  let s = Quorum.Explore.check_description ~budget:1_000_000 d in
  Alcotest.(check bool) "exhausted" true s.Quorum.Explore.exhausted;
  Alcotest.(check bool) "no violation" true (s.violation = None);
  Alcotest.(check bool) "non-trivial space" true (s.schedules >= 1000)

let test_exhaustive_with_aborts () =
  (* every schedule, aborts included, of the 2-DM rowa write system *)
  let d = tiny_description Config.rowa [ "d0"; "d1" ] [ tw 1 0 ] in
  let s =
    Quorum.Explore.check_description ~budget:1_000_000 ~include_aborts:true d
  in
  Alcotest.(check bool) "exhausted" true s.Quorum.Explore.exhausted;
  Alcotest.(check bool) "no violation" true (s.violation = None);
  Alcotest.(check bool) "thousands of schedules" true (s.schedules > 1000)

let test_exhaustive_budget_respected () =
  let d = tiny_description Config.rowa [ "d0"; "d1" ] [ tw 1 0; tr 1 ] in
  let s = Quorum.Explore.check_description ~budget:500 d in
  Alcotest.(check bool) "not exhausted under tiny budget" false
    s.Quorum.Explore.exhausted;
  Alcotest.(check bool) "stopped near budget" true (s.prefixes <= 501)

let test_exhaustive_detects_violations () =
  (* plumbing check: a checker that rejects read-TM commits must
     surface a violation with the offending prefix *)
  let d = tiny_description Config.rowa [ "d0" ] [ tw 1 0; tr 1 ] in
  let checker =
    {
      Checker.init = ();
      step =
        (fun () a ->
          match a with
          | Action.Request_commit (t, _)
            when Txn.kind_of t = Some Txn.Read && Txn.obj_of t = Some "x" ->
              Error "synthetic violation"
          | _ -> Ok ());
    }
  in
  let s =
    Quorum.Explore.run
      (Quorum.System_b.build ~max_attempts:1 d)
      checker
  in
  match s.Quorum.Explore.violation with
  | Some (prefix, msg) ->
      Alcotest.(check string) "message" "synthetic violation" msg;
      Alcotest.(check bool) "non-empty prefix" true (List.length prefix > 0)
  | None -> Alcotest.fail "expected a violation"

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "quorum.config",
      [
        Alcotest.test_case "constructor families keep their promises" `Quick
          test_config_families;
        Alcotest.test_case "classic strategy verdicts" `Quick test_classic_verdicts;
        Alcotest.test_case "catalog coterie checks run clean" `Quick test_catalog_clean;
        Alcotest.test_case "halves agree on basics and catalog" `Quick test_halves_agree;
        Alcotest.test_case "static/dynamic cross-check" `Quick
          test_static_dynamic_cross_check;
        Alcotest.test_case "illegal configurations" `Quick test_config_illegal;
        Alcotest.test_case "coverage predicate" `Quick test_config_covered;
        Alcotest.test_case "weighted threshold validation" `Quick
          test_weighted_thresholds;
        Alcotest.test_case "grid dimension validation" `Quick test_grid_dimensions;
        Alcotest.test_case "majority quorum sizes" `Quick test_majority_sizes;
        qcheck prop_gen_configs_legal;
        qcheck prop_halves_agree;
        qcheck prop_weighted_legal;
      ] );
    ( "quorum.description",
      [
        Alcotest.test_case "item validation" `Quick test_item_validation;
        Alcotest.test_case "overlapping dm sets rejected" `Quick
          test_description_overlapping_dms;
      ] );
    ( "quorum.scenario",
      [
        Alcotest.test_case "write-then-read across families" `Slow
          test_write_then_read_families;
        Alcotest.test_case "logical state definitions" `Quick
          test_logical_definitions;
        Alcotest.test_case "no-abort run commits everything" `Quick
          test_no_abort_run_commits_everything;
      ] );
    ( "quorum.checker-sensitivity",
      [
        Alcotest.test_case "corrupted read value caught" `Quick
          test_mutation_read_value_caught;
        Alcotest.test_case "erased DM operations caught" `Quick
          test_mutation_missing_dm_caught;
        Alcotest.test_case "duplicated TM create caught" `Quick
          test_mutation_duplicate_tm_create_caught;
      ] );
    ( "quorum.properties",
      [ qcheck prop_random_systems_correct; qcheck prop_theorem10_projection_clean ]
    );
    ( "quorum.edge-cases",
      [
        Alcotest.test_case "truncated runs pass (prefix closure)" `Quick
          test_truncated_runs_pass;
        Alcotest.test_case "single-DM item" `Quick test_single_dm_item;
        Alcotest.test_case "deep nesting (5 levels)" `Quick test_deep_nesting;
        Alcotest.test_case "logical-state cross-check" `Quick
          test_logical_state_cross_check;
        Alcotest.test_case "full-abort runs still sound" `Quick
          test_stuck_tm_still_sound;
      ] );
    ( "quorum.exhaustive",
      [
        Alcotest.test_case "all abort-free schedules verified" `Quick
          test_exhaustive_no_aborts;
        Alcotest.test_case "all schedules incl. aborts verified" `Quick
          test_exhaustive_with_aborts;
        Alcotest.test_case "budget respected" `Quick
          test_exhaustive_budget_respected;
        Alcotest.test_case "violations surfaced with prefix" `Quick
          test_exhaustive_detects_violations;
      ] );
  ]

(* ---------- coterie theory ---------- *)

let u5 = [ "a"; "b"; "c"; "d"; "e" ]
let u3 = [ "a"; "b"; "c" ]
let maj3 = [ [ "a"; "b" ]; [ "a"; "c" ]; [ "b"; "c" ] ]

let test_coterie_majority_nd () =
  let c = Coterie.make ~universe:u3 ~quorums:maj3 in
  Alcotest.(check bool) "majority-3 is ND" true (Coterie.non_dominated c);
  Alcotest.(check bool) "no witness" true (Coterie.domination_witness c = None)

let test_coterie_all_dominated () =
  (* the {U} coterie (write-all used for mutual exclusion) is
     dominated: any single site is a transversal containing no
     quorum *)
  let c = Coterie.make ~universe:u3 ~quorums:[ u3 ] in
  Alcotest.(check bool) "write-all dominated" false (Coterie.non_dominated c);
  match Coterie.domination_witness c with
  | Some w -> Alcotest.(check bool) "small witness" true (List.length w < 3)
  | None -> Alcotest.fail "expected a witness"

let test_coterie_singleton_nd () =
  let c = Coterie.make ~universe:u3 ~quorums:[ [ "a" ] ] in
  Alcotest.(check bool) "primary-site coterie is ND" true (Coterie.non_dominated c)

let test_coterie_dominates () =
  let majority = Coterie.make ~universe:u3 ~quorums:maj3 in
  let all = Coterie.make ~universe:u3 ~quorums:[ u3 ] in
  Alcotest.(check bool) "majority dominates write-all" true (Coterie.dominates majority all);
  Alcotest.(check bool) "not vice versa" false (Coterie.dominates all majority)

let test_coterie_minimize () =
  Alcotest.(check (list int)) "supersets dropped" [ 0b001; 0b110 ]
    (List.sort compare (Coterie.minimize [ 0b001; 0b011; 0b111; 0b110 ]))

let test_coterie_rejects_disjoint () =
  Alcotest.(check bool) "disjoint quorums rejected" true
    (try
       ignore (Coterie.make ~universe:u5 ~quorums:[ [ "a" ]; [ "b" ] ]);
       false
     with Invalid_argument _ -> true)

let test_write_side_coterie () =
  (* majority write quorums pairwise intersect -> a coterie *)
  Alcotest.(check bool) "majority write side is a coterie" true
    (Coterie.of_write_side (Config.majority u3) <> None);
  (* the generalized algorithm allows non-intersecting write quorums *)
  let general = Config.make ~read_quorums:[ u3 ] ~write_quorums:[ [ "a" ]; [ "b" ] ] in
  Alcotest.(check bool) "legal configuration" true (Config.legal general);
  Alcotest.(check bool) "write side not a coterie" true (Coterie.of_write_side general = None)

let test_config_domination () =
  (* read-all/write-one is weakly dominated by a config with the same
     write side but smaller read quorums *)
  let raow = Config.raow u3 in
  let better = Config.make ~read_quorums:maj3 ~write_quorums:maj3 in
  (* majority dominates raow: majority read quorums are inside the
     read-all quorum, and raow's singleton writes... majority writes
     are NOT inside singletons, so majority does NOT dominate raow *)
  Alcotest.(check bool) "majority does not dominate raow" false
    (Coterie.config_dominates better raow);
  (* but adding redundant larger quorums IS dominated by the original *)
  let padded = Config.make ~read_quorums:[ u3 ] ~write_quorums:[ [ "a"; "b" ]; [ "a" ] ] in
  let tight = Config.make ~read_quorums:[ [ "a" ]; u3 ] ~write_quorums:[ [ "a" ] ] in
  Alcotest.(check bool) "tight dominates padded" true (Coterie.config_dominates tight padded)

(* random weighted-voting write sides with w > v/2 are coteries *)
let prop_weighted_write_coterie =
  QCheck.Test.make ~count:100
    ~name:"majority-vote write sides form coteries"
    QCheck.(pair (int_range 0 100_000) (int_range 2 5))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let votes = List.init n (fun i -> (Fmt.str "d%d" i, 1 + Prng.int rng 3)) in
      let total = List.fold_left (fun a (_, v) -> a + v) 0 votes in
      let w = (total / 2) + 1 in
      let r = total - w + 1 in
      let c = Config.weighted ~votes ~read_threshold:r ~write_threshold:w in
      Coterie.of_write_side c <> None)

let coterie_suite =
  ( "quorum.coterie",
    [
      Alcotest.test_case "majority-3 is ND" `Quick test_coterie_majority_nd;
      Alcotest.test_case "write-all coterie dominated" `Quick
        test_coterie_all_dominated;
      Alcotest.test_case "singleton coterie ND" `Quick test_coterie_singleton_nd;
      Alcotest.test_case "domination relation" `Quick test_coterie_dominates;
      Alcotest.test_case "minimization" `Quick test_coterie_minimize;
      Alcotest.test_case "disjoint quorums rejected" `Quick
        test_coterie_rejects_disjoint;
      Alcotest.test_case "write sides as coteries" `Quick test_write_side_coterie;
      Alcotest.test_case "configuration domination" `Quick test_config_domination;
      qcheck prop_weighted_write_coterie;
    ] )

let suites = suites @ [ coterie_suite ]
