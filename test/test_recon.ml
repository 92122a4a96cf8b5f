(* Tests for the reconfiguration algorithm (paper Section 4):
   coordinator naming, recon-DM merge semantics, spies, deterministic
   migration scenarios, invariants, and the simulation onto system A. *)

open Ioa
module Config = Quorum.Config
module Prng = Qc_util.Prng

let cfg_d0 = Config.make ~read_quorums:[ [ "d0" ] ] ~write_quorums:[ [ "d0" ] ]
let cfg_new =
  Config.make ~read_quorums:[ [ "d1" ] ] ~write_quorums:[ [ "d1"; "d2" ] ]

(* forced inside the tests, so a broken constructor fails a named test
   instead of the suite's initialisation *)
let item =
  lazy
    (Recon.Item.make ~name:"x" ~dms:[ "d0"; "d1"; "d2" ] ~initial:(Value.Int 0)
       ~initial_config:cfg_d0 ~candidates:[ cfg_new ])

(* ---------- names ---------- *)

let test_coordinator_names () =
  let tm : Txn.t = [ Txn.Seg "u"; Txn.Access { obj = "x"; kind = Txn.Read; data = Value.Nil; seq = 0 } ] in
  let q = Recon.Coordinator.query_name ~tm ~attempt:2 in
  (match Recon.Coordinator.role_of q with
  | Some Recon.Coordinator.Query -> ()
  | _ -> Alcotest.fail "query name not recognized");
  let p =
    Recon.Coordinator.push_name ~tm ~payload:(Value.Versioned (3, Value.Int 7))
      ~target:cfg_new ~slot:1
  in
  match Recon.Coordinator.role_of p with
  | Some (Recon.Coordinator.Push { payload; target }) ->
      Alcotest.(check bool) "payload roundtrip" true
        (Value.equal payload (Value.Versioned (3, Value.Int 7)));
      Alcotest.(check bool) "target roundtrip" true (Config.equal target cfg_new)
  | _ -> Alcotest.fail "push name not recognized"

let test_recon_tm_names () =
  let u : Txn.t = [ Txn.Seg "u" ] in
  let r = Recon.Tm.recon_name ~parent:u ~item:"x" ~config:cfg_new ~slot:0 in
  match Recon.Tm.recon_info r with
  | Some (i, c, slot) ->
      Alcotest.(check string) "item" "x" i;
      Alcotest.(check bool) "config" true (Config.equal c cfg_new);
      Alcotest.(check int) "slot" 0 slot
  | None -> Alcotest.fail "recon name not recognized"

let test_candidate_dedup () =
  let it =
    Recon.Item.make ~name:"y" ~dms:[ "d0"; "d1" ] ~initial:Value.Nil
      ~initial_config:(Config.majority [ "d0"; "d1" ])
      ~candidates:
        [ Config.rowa [ "d0"; "d1" ]; Config.rowa [ "d0"; "d1" ] ]
  in
  Alcotest.(check int) "duplicates removed" 1 (List.length it.Recon.Item.candidates)

(* ---------- recon-DM merge ---------- *)

let test_dm_merge () =
  let s0 = Recon.Item.dm_initial (Lazy.force item) in
  let s1 = Recon.Dm.merge ~current:s0 (Value.Versioned (1, Value.Int 5)) in
  (match s1 with
  | Value.Recon_state s ->
      Alcotest.(check int) "data write bumps version" 1 s.Value.version;
      Alcotest.(check int) "generation untouched" 0 s.Value.generation
  | _ -> Alcotest.fail "expected recon state");
  let s2 = Recon.Dm.merge ~current:s1 (Value.Gen_config { gen = 3; cfg = cfg_new }) in
  match s2 with
  | Value.Recon_state s ->
      Alcotest.(check int) "config write bumps generation" 3 s.Value.generation;
      Alcotest.(check int) "version untouched" 1 s.Value.version;
      Alcotest.(check bool) "config installed" true (Config.equal s.Value.config cfg_new)
  | _ -> Alcotest.fail "expected recon state"

(* ---------- deterministic migration scenario ---------- *)

let scenario max_recons =
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
  Recon.Description.make ~items:[ Lazy.force item ] ~raw_objects:[] ~root_script:script
    ~max_recons_per_txn:max_recons

let test_migration_scenario () =
  (* across many seeds (spies fire at random points), all invariants
     and the simulation hold, and completed reads always return 42 *)
  let d = scenario 2 in
  let recons_total = ref 0 in
  for seed = 1 to 50 do
    let run = Recon.Harness.run ~abort_rate:0.0 ~seed d in
    (match Recon.Harness.check_all d run.System.schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e);
    recons_total := !recons_total + Recon.Harness.count_recons run.System.schedule;
    List.iter
      (fun a ->
        match a with
        | Action.Request_commit (t, v)
          when Txn.obj_of t = Some "x" && Txn.kind_of t = Some Txn.Read ->
            Alcotest.(check bool) "read returns 42 across reconfigs" true
              (Value.equal v (Value.Int 42))
        | _ -> ())
      run.System.schedule
  done;
  Alcotest.(check bool) "reconfigurations actually fired" true (!recons_total > 10)

let test_generation_numbers_increase () =
  let d = scenario 2 in
  let run = Recon.Harness.run ~abort_rate:0.0 ~seed:8 d in
  (* config-write payloads must carry strictly increasing generations
     per item in a serial run *)
  let gens =
    List.filter_map
      (fun a ->
        match a with
        | Action.Request_commit (t, _) when Txn.kind_of t = Some Txn.Write -> (
            match Txn.data_of t with
            | Some (Value.Gen_config { gen; _ }) -> Some gen
            | _ -> None)
        | _ -> None)
      run.System.schedule
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  (* the same generation may be written to several DMs: dedupe runs *)
  let dedup =
    List.fold_left
      (fun acc g -> match acc with h :: _ when h = g -> acc | _ -> g :: acc)
      [] gens
    |> List.rev
  in
  Alcotest.(check bool) "generations strictly increase" true
    (strictly_increasing dedup)

(* ---------- randomized properties ---------- *)

let prop_recon_random_correct =
  QCheck.Test.make ~count:25
    ~name:"Section 4 invariants + simulation hold on random recon systems"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match Recon.Harness.run_and_check ~seed () with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_report e)

(* sensitivity: dropping the data-copy phase of a genuinely
   config-changing reconfiguration must break the invariants *)
let test_mutation_datacopy_caught () =
  let d = scenario 2 in
  let under_recon_push (t : Txn.t) =
    List.length t >= 3
    && Recon.Tm.is_recon_tm (List.filteri (fun i _ -> i < List.length t - 2) t)
  in
  let caught = ref 0 and applicable = ref 0 in
  for seed = 1 to 60 do
    let run = Recon.Harness.run ~abort_rate:0.0 ~seed d in
    let beta = run.System.schedule in
    (* applicable when a recon committed after the logical write *)
    let saw_write = ref false and recon_after = ref false in
    List.iter
      (fun a ->
        match a with
        | Action.Request_commit (t, _)
          when Txn.kind_of t = Some Txn.Write && Txn.obj_of t = Some "x" ->
            saw_write := true
        | Action.Request_commit (t, _) when Recon.Tm.is_recon_tm t ->
            if !saw_write then recon_after := true
        | _ -> ())
      beta;
    if !recon_after then begin
      incr applicable;
      let mutated =
        List.filter
          (fun a ->
            match a with
            | Action.Request_commit (t, _) | Action.Create t ->
                not
                  (under_recon_push t
                  && Txn.kind_of t = Some Txn.Write
                  &&
                  match Txn.data_of t with
                  | Some (Value.Versioned _) -> true
                  | _ -> false)
            | _ -> true)
          beta
      in
      if Result.is_error (Recon.Harness.check_all d mutated) then incr caught
    end
  done;
  Alcotest.(check bool)
    (Fmt.str "data-copy mutation caught (%d/%d applicable)" !caught !applicable)
    true
    (!applicable > 0 && !caught > 0)

(* Section 4 rejects what Section 3 rejects: items sharing DMs, and a
   script writing an unknown object *)
let test_invalid_rejected () =
  let root_script = (scenario 1).plain.root_script in
  let shared =
    Recon.Item.make ~name:"y" ~dms:[ "d0" ] ~initial:(Value.Int 0)
      ~initial_config:cfg_d0 ~candidates:[]
  in
  let zz =
    Txn.Access { obj = "zz"; kind = Txn.Write; data = Value.Int 1; seq = 0 }
  in
  let unknown = { root_script with children = [ Access_child zz ] } in
  let message build =
    match build () with _ -> "" | exception Invalid_argument m -> m
  in
  List.iter
    (fun (items, root_script) ->
      let d =
        Recon.Description.make ~items ~raw_objects:[] ~root_script
          ~max_recons_per_txn:1
      in
      let expected = message (fun () -> Quorum.System_b.build d.plain) in
      Alcotest.(check bool) "Section 3 rejects it" true (expected <> "");
      Alcotest.(check string) "same message" expected
        (message (fun () -> Recon.System_b.build d));
      Alcotest.(check bool) "check_all returns an error" true
        (Result.is_error (Recon.Harness.check_all d Schedule.empty)))
    [ ([ Lazy.force item; shared ], root_script); ([ Lazy.force item ], unknown) ]

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "recon.names",
      [
        Alcotest.test_case "coordinator name roundtrip" `Quick
          test_coordinator_names;
        Alcotest.test_case "recon-TM name roundtrip" `Quick test_recon_tm_names;
        Alcotest.test_case "candidate dedup" `Quick test_candidate_dedup;
      ] );
    ("recon.dm", [ Alcotest.test_case "partial-update merge" `Quick test_dm_merge ]);
    ( "recon.scenario",
      [
        Alcotest.test_case "migration scenario, 50 seeds" `Slow
          test_migration_scenario;
        Alcotest.test_case "generation numbers increase" `Quick
          test_generation_numbers_increase;
      ] );
    ( "recon.checker-sensitivity",
      [
        Alcotest.test_case "skipped data copy caught" `Slow
          test_mutation_datacopy_caught;
        Alcotest.test_case "invalid descriptions rejected" `Quick
          test_invalid_rejected;
      ] );
    ("recon.properties", [ qcheck prop_recon_random_correct ]);
  ]

(* ---------- exhaustive exploration (tiny recon instance) ---------- *)

let test_recon_exhaustive () =
  (* 2 DMs; configuration moves from {d0} to {d1}; one logical write;
     one possible reconfiguration per spy.  Every abort-free schedule
     (spy firings at every possible point included) is verified. *)
  let tiny_item =
    Recon.Item.make ~name:"x" ~dms:[ "d0"; "d1" ] ~initial:(Value.Int 0)
      ~initial_config:
        (Config.make ~read_quorums:[ [ "d0" ] ] ~write_quorums:[ [ "d0" ] ])
      ~candidates:
        [ Config.make ~read_quorums:[ [ "d1" ] ] ~write_quorums:[ [ "d1" ] ] ]
  in
  let d =
    (* the logical write hangs directly off the root, so there is a
       single user transaction (the root) and a single spy *)
    Recon.Description.make ~items:[ tiny_item ] ~raw_objects:[]
      ~root_script:
        {
          Serial.User_txn.children =
            [
              Serial.User_txn.Access_child
                (Txn.Access
                   { obj = "x"; kind = Txn.Write; data = Value.Int 1; seq = 0 });
            ];
          ordered = true;
          eager = false;
          returns = Serial.User_txn.return_nil;
        }
      ~max_recons_per_txn:1
  in
  let s = Recon.Explore.check_description ~budget:4_000_000 d in
  (match s.Quorum.Explore.violation with
  | Some (_, e) -> Alcotest.failf "violation: %s" e
  | None -> ());
  Alcotest.(check bool)
    (Fmt.str "exhausted (schedules=%d prefixes=%d)" s.schedules s.prefixes)
    true s.exhausted;
  Alcotest.(check (pair int int)) "schedules, prefixes" (19232, 440831)
    (s.schedules, s.prefixes)

let exhaustive_suite =
  ( "recon.exhaustive",
    [ Alcotest.test_case "tiny instance fully verified" `Slow test_recon_exhaustive ] )

let suites = suites @ [ exhaustive_suite ]

(* ---------- coordinator unit tests (component level) ---------- *)

(* built per test, so a broken Config.majority fails a named test
   instead of the suite's initialisation *)
let coord_item () =
  Quorum.Item.make ~name:"cx" ~dms:[ "e0"; "e1" ] ~initial:(Value.Int 0)
    ~config:(Config.majority [ "e0"; "e1" ])

let tm_name : Txn.t =
  [ Txn.Seg "u"; Txn.Access { obj = "cx"; kind = Txn.Read; data = Value.Nil; seq = 0 } ]

let step_c c a =
  match Ioa.Component.step c a with
  | Some c -> c
  | None -> Alcotest.failf "coordinator rejected %a" Action.pp a

let test_query_coordinator_lifecycle () =
  let fam = Recon.Coordinator.family ~tm:tm_name ~item:(coord_item ()) () in
  let q = Recon.Coordinator.query_name ~tm:tm_name ~attempt:0 in
  let fam = step_c fam (Action.Create q) in
  (* it wants to read DMs *)
  let reqs = Ioa.Component.enabled fam in
  Alcotest.(check int) "read requests for both DMs" 2 (List.length reqs);
  (* feed a commit carrying a replica state: e0, vn 3, gen 1 *)
  let acc =
    match List.hd reqs with
    | Action.Request_create t -> t
    | _ -> Alcotest.fail "expected request"
  in
  let fam = step_c fam (Action.Request_create acc) in
  let state1 =
    Value.Recon_state
      {
        version = 3;
        data = Value.Int 30;
        generation = 1;
        config = Config.rowa [ "e0"; "e1" ];
      }
  in
  let fam = step_c fam (Action.Commit (acc, state1)) in
  (* gen-1 config is rowa: a single DM is a read quorum, so the query
     may now complete with the summary *)
  let commits =
    List.filter
      (function Action.Request_commit (t, _) -> Txn.equal t q | _ -> false)
      (Ioa.Component.enabled fam)
  in
  match commits with
  | [ Action.Request_commit (_, Value.Recon_state s) ] ->
      Alcotest.(check int) "summary version" 3 s.Value.version;
      Alcotest.(check int) "summary generation" 1 s.Value.generation
  | _ -> Alcotest.fail "expected a completable query"

let test_push_coordinator_lifecycle () =
  let fam = Recon.Coordinator.family ~tm:tm_name ~item:(coord_item ()) () in
  let payload = Value.Versioned (7, Value.Int 70) in
  let target = Config.majority [ "e0"; "e1" ] in
  let p = Recon.Coordinator.push_name ~tm:tm_name ~payload ~target ~slot:0 in
  let fam = step_c fam (Action.Create p) in
  let reqs = Ioa.Component.enabled fam in
  (* write accesses carrying exactly the payload *)
  Alcotest.(check int) "write requests for both DMs" 2 (List.length reqs);
  List.iter
    (fun a ->
      match a with
      | Action.Request_create t ->
          Alcotest.(check bool) "payload embedded" true
            (Txn.data_of t = Some payload)
      | _ -> Alcotest.fail "expected request")
    reqs;
  (* acknowledge both writes; then the push may commit with nil *)
  let fam =
    List.fold_left
      (fun fam a ->
        match a with
        | Action.Request_create t ->
            let fam = step_c fam (Action.Request_create t) in
            step_c fam (Action.Commit (t, Value.Nil))
        | _ -> fam)
      fam reqs
  in
  let commits =
    List.filter
      (function Action.Request_commit (t, _) -> Txn.equal t p | _ -> false)
      (Ioa.Component.enabled fam)
  in
  Alcotest.(check int) "push completable" 1 (List.length commits)

let coordinator_suite =
  ( "recon.coordinator",
    [
      Alcotest.test_case "query lifecycle" `Quick test_query_coordinator_lifecycle;
      Alcotest.test_case "push lifecycle" `Quick test_push_coordinator_lifecycle;
    ] )

let suites = suites @ [ coordinator_suite ]
