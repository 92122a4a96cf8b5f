(* Tests for the serial-system layer: the serial scheduler
   (Section 2.2), read-write objects (Section 2.3), and scripted user
   transactions. *)

open Ioa

let u name = Txn.Seg name
let ta : Txn.t = [ u "a" ]
let tb : Txn.t = [ u "b" ]
let ta1 : Txn.t = [ u "a"; u "a1" ]

(* ---------- serial scheduler ---------- *)

let apply_all st ops =
  List.fold_left
    (fun st a ->
      match Serial.Scheduler.transition st a with
      | Some st' -> st'
      | None -> Alcotest.failf "scheduler rejected %a" Action.pp a)
    st ops

let init = Serial.Scheduler.initial_state

let test_sched_creates_root () =
  (* initially only CREATE(T0) is enabled *)
  match Serial.Scheduler.enabled init with
  | [ Action.Create t ] ->
      Alcotest.(check bool) "creates root" true (Txn.is_root t)
  | other ->
      Alcotest.failf "expected [CREATE(T0)], got %d actions" (List.length other)

let test_sched_create_requires_request () =
  let st = apply_all init [ Action.Create Txn.root ] in
  Alcotest.(check bool) "unrequested create rejected" true
    (Serial.Scheduler.transition st (Action.Create ta) = None)

let test_sched_sibling_rule () =
  let st =
    apply_all init
      [
        Action.Create Txn.root;
        Action.Request_create ta;
        Action.Request_create tb;
        Action.Create ta;
      ]
  in
  (* tb cannot be created while sibling ta is created but not returned *)
  Alcotest.(check bool) "sibling rule blocks" true
    (Serial.Scheduler.transition st (Action.Create tb) = None);
  (* after ta commits, tb can be created *)
  let st =
    apply_all st
      [ Action.Request_commit (ta, Value.Nil); Action.Commit (ta, Value.Nil) ]
  in
  Alcotest.(check bool) "sibling rule unblocks" true
    (Serial.Scheduler.transition st (Action.Create tb) <> None)

let test_sched_commit_needs_children_returned () =
  let st =
    apply_all init
      [
        Action.Create Txn.root;
        Action.Request_create ta;
        Action.Create ta;
        Action.Request_create ta1;
        Action.Request_commit (ta, Value.Nil);
      ]
  in
  (* ta requested commit but its requested child ta1 has not returned *)
  Alcotest.(check bool) "commit blocked by child" true
    (Serial.Scheduler.transition st (Action.Commit (ta, Value.Nil)) = None);
  (* abort the uncreated child, then commit goes through *)
  let st = apply_all st [ Action.Abort ta1 ] in
  Alcotest.(check bool) "commit after child return" true
    (Serial.Scheduler.transition st (Action.Commit (ta, Value.Nil)) <> None)

let test_sched_abort_only_uncreated () =
  let st =
    apply_all init
      [ Action.Create Txn.root; Action.Request_create ta; Action.Create ta ]
  in
  Alcotest.(check bool) "created txn cannot be aborted" true
    (Serial.Scheduler.transition st (Action.Abort ta) = None)

let test_sched_no_double_commit () =
  let st =
    apply_all init
      [
        Action.Create Txn.root;
        Action.Request_create ta;
        Action.Create ta;
        Action.Request_commit (ta, Value.Nil);
        Action.Commit (ta, Value.Nil);
      ]
  in
  Alcotest.(check bool) "no second commit" true
    (Serial.Scheduler.transition st (Action.Commit (ta, Value.Nil)) = None)

let test_sched_commit_value_must_match () =
  let st =
    apply_all init
      [
        Action.Create Txn.root;
        Action.Request_create ta;
        Action.Create ta;
        Action.Request_commit (ta, Value.Int 5);
      ]
  in
  Alcotest.(check bool) "wrong value rejected" true
    (Serial.Scheduler.transition st (Action.Commit (ta, Value.Int 6)) = None);
  Alcotest.(check bool) "right value accepted" true
    (Serial.Scheduler.transition st (Action.Commit (ta, Value.Int 5)) <> None)

let test_sched_root_never_aborts () =
  Alcotest.(check bool) "root abort rejected" true
    (Serial.Scheduler.transition init (Action.Abort Txn.root) = None)

(* ---------- read-write objects ---------- *)

let racc n =
  Txn.child ta (Txn.Access { obj = "o"; kind = Txn.Read; data = Value.Nil; seq = n })

let wacc v n =
  Txn.child ta (Txn.Access { obj = "o"; kind = Txn.Write; data = v; seq = n })

let obj () = Serial.Rw_object.make ~name:"o" ~initial:(Value.Int 0) ()

let step c a =
  match Component.step c a with
  | Some c -> c
  | None -> Alcotest.failf "object rejected %a" Action.pp a

let test_rw_read_returns_data () =
  let c = step (obj ()) (Action.Create (racc 0)) in
  match Component.enabled c with
  | [ Action.Request_commit (t, Value.Int 0) ] ->
      Alcotest.(check bool) "same access" true (Txn.equal t (racc 0))
  | _ -> Alcotest.fail "expected read response with initial value"

let test_rw_write_then_read () =
  let c = obj () in
  let c = step c (Action.Create (wacc (Value.Int 9) 0)) in
  let c = step c (Action.Request_commit (wacc (Value.Int 9) 0, Value.Nil)) in
  let c = step c (Action.Create (racc 1)) in
  match Component.enabled c with
  | [ Action.Request_commit (_, Value.Int 9) ] -> ()
  | _ -> Alcotest.fail "read should see the written value"

let test_rw_read_wrong_value_rejected () =
  let c = step (obj ()) (Action.Create (racc 0)) in
  Alcotest.(check bool) "wrong value rejected" true
    (Component.step c (Action.Request_commit (racc 0, Value.Int 99)) = None)

let test_rw_commit_without_active_rejected () =
  Alcotest.(check bool) "no active access" true
    (Component.step (obj ()) (Action.Request_commit (racc 0, Value.Int 0)) = None)

let test_rw_write_returns_nil () =
  let c = step (obj ()) (Action.Create (wacc (Value.Int 5) 0)) in
  Alcotest.(check bool) "write returns non-nil rejected" true
    (Component.step c (Action.Request_commit (wacc (Value.Int 5) 0, Value.Int 5))
    = None)

let test_rw_data_after () =
  let sched =
    [
      Action.Create (wacc (Value.Int 7) 0);
      Action.Request_commit (wacc (Value.Int 7) 0, Value.Nil);
      Action.Create (wacc (Value.Int 8) 1);
      Action.Request_commit (wacc (Value.Int 8) 1, Value.Nil);
    ]
  in
  Alcotest.(check bool) "last write wins" true
    (Value.equal (Value.Int 8)
       (Serial.Rw_object.data_after ~name:"o" ~initial:(Value.Int 0) sched))

(* ---------- scripted user transactions ---------- *)

let simple_script =
  {
    Serial.User_txn.children =
      [
        Serial.User_txn.Access_child
          (Txn.Access { obj = "o"; kind = Txn.Read; data = Value.Nil; seq = 0 });
        Serial.User_txn.Access_child
          (Txn.Access { obj = "o"; kind = Txn.Write; data = Value.Int 1; seq = 1 });
      ];
    ordered = true;
    eager = false;
    returns = Serial.User_txn.return_all;
  }

let test_user_ordered_sequencing () =
  let c = Serial.User_txn.make ~self:ta simple_script in
  (* before CREATE: nothing enabled *)
  Alcotest.(check int) "asleep" 0 (List.length (Component.enabled c));
  let c = step c (Action.Create ta) in
  (* exactly the first child requestable *)
  (match Component.enabled c with
  | [ Action.Request_create t ] ->
      Alcotest.(check bool) "first child" true (Txn.kind_of t = Some Txn.Read)
  | other -> Alcotest.failf "expected 1 request, got %d" (List.length other));
  match Component.enabled c with
  | [ Action.Request_create child1 ] ->
      let c = step c (Action.Request_create child1) in
      (* second child blocked until first returns *)
      Alcotest.(check int) "second blocked" 0 (List.length (Component.enabled c));
      let c = step c (Action.Commit (child1, Value.Int 0)) in
      (match Component.enabled c with
      | [ Action.Request_create child2 ] ->
          let c = step c (Action.Request_create child2) in
          let c = step c (Action.Abort child2) in
          (* all children returned: request-commit with return_all *)
          (match Component.enabled c with
          | [ Action.Request_commit (t, Value.List [ Value.Int 0; Value.Nil ]) ]
            ->
              Alcotest.(check bool) "self" true (Txn.equal t ta)
          | _ -> Alcotest.fail "expected request-commit with outcome list")
      | _ -> Alcotest.fail "expected second child request")
  | _ -> Alcotest.fail "expected first child request"

let test_user_unordered_offers_all () =
  let script = { simple_script with Serial.User_txn.ordered = false } in
  let c = step (Serial.User_txn.make ~self:ta script) (Action.Create ta) in
  Alcotest.(check int) "both children offered" 2
    (List.length (Component.enabled c))

let test_user_no_commit_root () =
  let c =
    Serial.User_txn.make ~no_commit:true ~self:Txn.root
      { simple_script with Serial.User_txn.children = [] }
  in
  let c = step c (Action.Create Txn.root) in
  Alcotest.(check int) "root never requests commit" 0
    (List.length (Component.enabled c))

let test_make_tree_counts () =
  let nested =
    {
      Serial.User_txn.children =
        [
          Serial.User_txn.Sub ("s1", simple_script);
          Serial.User_txn.Sub ("s2", simple_script);
        ];
      ordered = false;
      eager = false;
      returns = Serial.User_txn.return_nil;
    }
  in
  Alcotest.(check int) "three automata" 3
    (List.length (Serial.User_txn.make_tree ~self:ta nested));
  Alcotest.(check int) "four access children" 4
    (List.length (Serial.User_txn.access_children ~self:ta nested))

(* ---------- end-to-end tiny serial system ---------- *)

let test_tiny_serial_system () =
  (* one user transaction writing then reading one raw object through
     the serial scheduler *)
  let script =
    {
      Serial.User_txn.children = [ Serial.User_txn.Sub ("t", simple_script) ];
      ordered = true;
      eager = false;
      returns = Serial.User_txn.return_nil;
    }
  in
  let components =
    (Serial.Scheduler.make ()
    :: Serial.User_txn.make_tree ~no_commit:true ~self:Txn.root script)
    @ [ Serial.Rw_object.make ~name:"o" ~initial:(Value.Int 0) () ]
  in
  let sys = System.compose components in
  let r =
    System.run ~max_steps:1000
      ~strategy:System.completion_biased
      ~rng:(Qc_util.Prng.create 17) sys
  in
  Alcotest.(check bool) "quiescent" true r.System.quiescent;
  Alcotest.(check bool) "well-formed" true
    (Result.is_ok
       (Wellformed.check
          ~is_access:(fun t -> Txn.obj_of t <> None)
          r.System.schedule))

let suites =
  [
    ( "serial.scheduler",
      [
        Alcotest.test_case "initially creates root" `Quick test_sched_creates_root;
        Alcotest.test_case "create requires request" `Quick
          test_sched_create_requires_request;
        Alcotest.test_case "sibling rule" `Quick test_sched_sibling_rule;
        Alcotest.test_case "commit needs children returned" `Quick
          test_sched_commit_needs_children_returned;
        Alcotest.test_case "abort only uncreated" `Quick
          test_sched_abort_only_uncreated;
        Alcotest.test_case "no double commit" `Quick test_sched_no_double_commit;
        Alcotest.test_case "commit value must match request" `Quick
          test_sched_commit_value_must_match;
        Alcotest.test_case "root never aborts" `Quick test_sched_root_never_aborts;
      ] );
    ( "serial.rw_object",
      [
        Alcotest.test_case "read returns data" `Quick test_rw_read_returns_data;
        Alcotest.test_case "write then read" `Quick test_rw_write_then_read;
        Alcotest.test_case "read with wrong value rejected" `Quick
          test_rw_read_wrong_value_rejected;
        Alcotest.test_case "commit without active rejected" `Quick
          test_rw_commit_without_active_rejected;
        Alcotest.test_case "write returns nil only" `Quick test_rw_write_returns_nil;
        Alcotest.test_case "data_after reconstruction" `Quick test_rw_data_after;
      ] );
    ( "serial.user_txn",
      [
        Alcotest.test_case "ordered sequencing" `Quick test_user_ordered_sequencing;
        Alcotest.test_case "unordered offers all" `Quick
          test_user_unordered_offers_all;
        Alcotest.test_case "root never commits" `Quick test_user_no_commit_root;
        Alcotest.test_case "make_tree counts" `Quick test_make_tree_counts;
      ] );
    ( "serial.system",
      [ Alcotest.test_case "tiny end-to-end run" `Quick test_tiny_serial_system ]
    );
  ]

(* ---------- eager transactions ---------- *)

let test_user_eager_commit_any_time () =
  let script = { simple_script with Serial.User_txn.eager = true } in
  let c = step (Serial.User_txn.make ~self:ta script) (Action.Create ta) in
  (* immediately after creation, both a child request AND the commit
     are on the menu *)
  let enabled = Component.enabled c in
  Alcotest.(check bool) "commit offered immediately" true
    (List.exists
       (function Action.Request_commit (t, _) -> Txn.equal t ta | _ -> false)
       enabled);
  (* committing closes the door on further child requests *)
  match
    List.find_opt
      (function Action.Request_commit _ -> true | _ -> false)
      enabled
  with
  | Some commit ->
      let c = step c commit in
      Alcotest.(check int) "nothing enabled after commit" 0
        (List.length (Component.enabled c))
  | None -> Alcotest.fail "expected a commit"

let test_eager_system_end_to_end () =
  (* eager transactions through the full serial system: the scheduler
     must still hold the COMMIT until requested children return *)
  let script =
    {
      Serial.User_txn.children = [ Serial.User_txn.Sub ("t", { simple_script with Serial.User_txn.eager = true }) ];
      ordered = true;
      eager = false;
      returns = Serial.User_txn.return_nil;
    }
  in
  let components =
    (Serial.Scheduler.make ()
    :: Serial.User_txn.make_tree ~no_commit:true ~self:Txn.root script)
    @ [ Serial.Rw_object.make ~name:"o" ~initial:(Value.Int 0) () ]
  in
  for seed = 1 to 20 do
    let r =
      System.run ~max_steps:1000
        ~strategy:System.completion_biased
        ~rng:(Qc_util.Prng.create seed)
        (System.compose components)
    in
    Alcotest.(check bool) "quiescent" true r.System.quiescent;
    Alcotest.(check bool) "well-formed" true
      (Result.is_ok
         (Wellformed.check
            ~is_access:(fun t -> Txn.obj_of t <> None)
            r.System.schedule))
  done

let eager_suite =
  ( "serial.eager",
    [
      Alcotest.test_case "eager commit offered any time" `Quick
        test_user_eager_commit_any_time;
      Alcotest.test_case "eager system end to end" `Quick
        test_eager_system_end_to_end;
    ] )

let suites = suites @ [ eager_suite ]

(* ---------- scheduler properties ---------- *)

(* drive random serial systems and validate that every scheduler-level
   decision yields whole-schedule well-formedness (the Lynch-Merritt
   "all serial schedules are well-formed" result, sampled) *)
let prop_serial_schedules_wellformed =
  QCheck.Test.make ~count:50 ~name:"serial schedules are well-formed"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Qc_util.Prng.create seed in
      (* a random two-level script over two raw objects *)
      let obj i = Fmt.str "o%d" (i mod 2) in
      let leaf idx =
        let kind = if Qc_util.Prng.bool rng then Txn.Read else Txn.Write in
        let data =
          match kind with
          | Txn.Read -> Value.Nil
          | Txn.Write -> Value.Int (Qc_util.Prng.int rng 100)
        in
        Serial.User_txn.Access_child
          (Txn.Access { obj = obj idx; kind; data; seq = idx })
      in
      let sub name n =
        Serial.User_txn.Sub
          ( name,
            {
              Serial.User_txn.children = List.init n leaf;
              ordered = Qc_util.Prng.bool rng;
              eager = Qc_util.Prng.float rng < 0.3;
              returns = Serial.User_txn.return_all;
            } )
      in
      let root_script =
        {
          Serial.User_txn.children =
            List.init
              (1 + Qc_util.Prng.int rng 3)
              (fun i -> sub (Fmt.str "s%d" i) (1 + Qc_util.Prng.int rng 3));
          ordered = Qc_util.Prng.bool rng;
          eager = false;
          returns = Serial.User_txn.return_nil;
        }
      in
      let components =
        (Serial.Scheduler.make ()
        :: Serial.User_txn.make_tree ~no_commit:true ~self:Txn.root root_script)
        @ [
            Serial.Rw_object.make ~name:"o0" ~initial:(Value.Int 0) ();
            Serial.Rw_object.make ~name:"o1" ~initial:(Value.Int 0) ();
          ]
      in
      let r =
        System.run ~max_steps:2000 ~rng:(Qc_util.Prng.create (seed lxor 77))
          (System.compose components)
      in
      Result.is_ok
        (Wellformed.check ~is_access:(fun t -> Txn.obj_of t <> None)
           r.System.schedule))

let property_suite =
  ( "serial.properties",
    [
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 0x5eed |])
        prop_serial_schedules_wellformed;
    ] )

let suites = suites @ [ property_suite ]
