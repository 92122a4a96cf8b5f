(* Tests for cross-shard transactions (lib/store/txn.ml and the
   replica's prepared-state machinery): replica-level prepare / vote /
   decide mechanics, end-to-end commit and conflict behaviour over the
   cluster, the 2PC-vs-Paxos-Commit coordinator-kill ablation, a
   qcheck serializability property under partitions, and golden
   digests for a pinned 3-seed transaction workload. *)

module Core = Sim.Core
module P = Store.Protocol
module Replica = Store.Replica
module Cluster = Store.Cluster
module Register = Store.Register

let tr_off = Obs.Trace.create ~capacity:0 ~enabled:false ()

(* A hand-built message's txid: the name, with an int assigned on its
   first use. *)
let tx =
  let ids = Hashtbl.create 8 in
  fun name ->
    let id =
      match Hashtbl.find_opt ids name with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.replace ids name id;
          id
    in
    { Qc_util.Txid.id; name }

let handle r msg =
  match Replica.handle_one r ~tr:tr_off msg with
  | Some rep -> rep
  | None -> Alcotest.fail "expected a synchronous reply"

(* ---------- replica prepare / vote / decide mechanics ---------- *)

let test_replica_prepare_vote_decide () =
  let r = Replica.create ~name:"r0" () in
  (* seed a current version *)
  (match handle r (P.Install_req { rid = 1; key = "k0"; vn = 3; value = 30; ctx = None }) with
  | P.Install_ack _ -> ()
  | _ -> Alcotest.fail "install ack");
  let prep rid txid =
    P.Txn_prepare
      {
        rid;
        txid = tx txid;
        writes = [ ("k0", 99) ];
        reads = [ "k1" ];
        acceptors = [ "r0" ];
        paxos = false;
      }
  in
  (* a yes-vote locks the footprint and snapshots versions *)
  (match handle r (prep 2 "c0#t0") with
  | P.Txn_vote { yes = true; kvs; _ } ->
      Alcotest.(check (list (triple string int int)))
        "snapshot carries footprint versions"
        [ ("k0", 3, 30); ("k1", 0, 0) ]
        kvs
  | _ -> Alcotest.fail "expected yes vote");
  Alcotest.(check (list string)) "in doubt" [ "c0#t0" ] (Replica.in_doubt r);
  Alcotest.(check (list (pair string string)))
    "locks held"
    [ ("k0", "c0#t0"); ("k1", "c0#t0") ]
    (Replica.locked_keys r);
  (* a duplicate prepare re-sends the identical vote *)
  (match handle r (prep 3 "c0#t0") with
  | P.Txn_vote { yes = true; kvs; _ } ->
      Alcotest.(check int) "same snapshot" 2 (List.length kvs)
  | _ -> Alcotest.fail "expected duplicate yes vote");
  (* a conflicting transaction is refused *)
  (match handle r (prep 4 "c1#t0") with
  | P.Txn_vote { yes = false; kvs = []; _ } -> ()
  | _ -> Alcotest.fail "expected no vote on conflict");
  (* commit installs at the decided version and releases the locks *)
  let decided = ref [] in
  Replica.set_on_decided r (fun ~txid ~commit ~writes:_ ->
      decided := (txid.Qc_util.Txid.name, commit) :: !decided);
  (match
     handle r
       (P.Txn_decide
          {
            rid = 5;
            txid = tx "c0#t0";
            decision = Register.decision ~commit:true ~writes:[ ("k0", 4, 99) ]
          })
   with
  | P.Txn_decide_ack { applied = true; _ } -> ()
  | _ -> Alcotest.fail "expected applied ack");
  Alcotest.(check (pair int int)) "installed" (4, 99) (Replica.lookup r "k0");
  Alcotest.(check (list string)) "resolved" [] (Replica.in_doubt r);
  Alcotest.(check (list (pair string string)))
    "unlocked" [] (Replica.locked_keys r);
  Alcotest.(check (list (pair string bool)))
    "decision hook fired once" [ ("c0#t0", true) ] !decided;
  (* a retransmitted decide is idempotent and a late prepare is
     answered with the decision *)
  (match
     handle r
       (P.Txn_decide
          {
            rid = 6;
            txid = tx "c0#t0";
            decision = Register.decision ~commit:true ~writes:[ ("k0", 4, 99) ]
          })
   with
  | P.Txn_decide_ack { applied = false; _ } -> ()
  | _ -> Alcotest.fail "expected unapplied ack on retransmission");
  (match handle r (prep 7 "c0#t0") with
  | P.Txn_decide { decision; _ } when Register.commit decision -> ()
  | _ -> Alcotest.fail "late prepare answered with decision");
  Alcotest.(check int) "hook fired exactly once" 1 (List.length !decided)

let test_replica_abort_releases () =
  let r = Replica.create ~name:"r0" () in
  (match
     handle r
       (P.Txn_prepare
          {
            rid = 1;
            txid = tx "c0#t1";
            writes = [ ("k2", 7) ];
            reads = [];
            acceptors = [ "r0" ];
            paxos = false;
          })
   with
  | P.Txn_vote { yes = true; _ } -> ()
  | _ -> Alcotest.fail "yes vote");
  (match
     handle r
       (P.Txn_decide
          { rid = 2; txid = tx "c0#t1"; decision = Register.aborted })
   with
  | P.Txn_decide_ack { applied = true; _ } -> ()
  | _ -> Alcotest.fail "abort ack");
  Alcotest.(check (pair int int)) "nothing installed" (0, 0)
    (Replica.lookup r "k2");
  Alcotest.(check (list (pair string string)))
    "unlocked" [] (Replica.locked_keys r)

(* One cell per key holds the version, the value and the lock: a
   read-only key that was never written can be locked, a conflicting
   prepare gets a no-vote and takes no lock, a decision releases only
   its own transaction's locks, and a key that was only ever locked
   holds no value — [bindings], what the store REPL's [dump] prints,
   never lists it. *)
let test_replica_key_cells () =
  let r = Replica.create ~name:"r0" () in
  Replica.apply r ~key:"k0" ~vn:2 ~value:20;
  let prepare rid txid writes reads =
    handle r
      (P.Txn_prepare
         {
           rid;
           txid = tx txid;
           writes;
           reads;
           acceptors = [ "r0" ];
           paxos = false;
         })
  in
  let decide rid txid commit writes =
    match
      handle r
        (P.Txn_decide
           { rid; txid = tx txid; decision = Register.decision ~commit ~writes })
    with
    | P.Txn_decide_ack { applied; _ } -> applied
    | _ -> Alcotest.fail "expected a decide ack"
  in
  let locks = Alcotest.(list (pair string string)) in
  let kvs = Alcotest.(list (triple string int int)) in
  (match prepare 1 "t1" [ ("k0", 5) ] [ "k9" ] with
  | P.Txn_vote { yes = true; kvs = got; _ } ->
      Alcotest.check kvs "the never-written key reads (0, 0)"
        [ ("k0", 2, 20); ("k9", 0, 0) ]
        got
  | _ -> Alcotest.fail "expected a yes vote");
  (match prepare 2 "t2" [ ("k1", 7) ] [ "k9" ] with
  | P.Txn_vote { yes = false; kvs = []; _ } -> ()
  | _ -> Alcotest.fail "expected a no vote on the locked read key");
  (match prepare 3 "t3" [ ("k2", 1) ] [] with
  | P.Txn_vote { yes = true; _ } -> ()
  | _ -> Alcotest.fail "expected a yes vote on a free key");
  Alcotest.check locks "the refused prepare took no lock"
    [ ("k0", "t1"); ("k2", "t3"); ("k9", "t1") ]
    (Replica.locked_keys r);
  Alcotest.(check (list string)) "in doubt" [ "t1"; "t3" ] (Replica.in_doubt r);
  Alcotest.(check (pair int int)) "lookup of a locked, unwritten key" (0, 0)
    (Replica.lookup r "k9");
  Alcotest.check kvs "a lock is not a value" [ ("k0", 2, 20) ]
    (Replica.bindings r);
  Alcotest.(check bool) "the refused txn has nothing to decide" false
    (decide 4 "t2" false []);
  Alcotest.check locks "its decision releases nobody's lock"
    [ ("k0", "t1"); ("k2", "t3"); ("k9", "t1") ]
    (Replica.locked_keys r);
  (* the decided write set spans shards: only this shard's key lands *)
  Alcotest.(check bool) "commit applied" true
    (decide 5 "t1" true [ ("k0", 3, 5); ("k7", 1, 70) ]);
  Alcotest.check locks "commit releases only t1's locks" [ ("k2", "t3") ]
    (Replica.locked_keys r);
  Alcotest.(check (list string)) "t1 resolved" [ "t3" ] (Replica.in_doubt r);
  Alcotest.(check (pair int int)) "installed" (3, 5) (Replica.lookup r "k0");
  Alcotest.(check (pair int int)) "another shard's write" (0, 0)
    (Replica.lookup r "k7");
  Alcotest.check kvs "dump after commit" [ ("k0", 3, 5) ] (Replica.bindings r);
  Alcotest.(check bool) "abort applied" true (decide 6 "t3" false []);
  Alcotest.check locks "abort releases t3's lock" [] (Replica.locked_keys r);
  Alcotest.(check (list string)) "nothing in doubt" [] (Replica.in_doubt r);
  Alcotest.(check (pair int int)) "abort installs nothing" (0, 0)
    (Replica.lookup r "k2");
  Alcotest.check kvs "dump after abort" [ ("k0", 3, 5) ] (Replica.bindings r);
  (* the released read key is free again *)
  match prepare 7 "t4" [ ("k9", 1) ] [] with
  | P.Txn_vote { yes = true; kvs = got; _ } ->
      Alcotest.check kvs "relocked after release" [ ("k9", 0, 0) ] got
  | _ -> Alcotest.fail "expected a yes vote once k9 is free"

(* Paxos acceptor logic on the decision register: promises are
   monotone, accepted values surface in phase 1, decided registers
   short-circuit. *)
let test_replica_acceptor_ballots () =
  let r = Replica.create ~name:"r0" () in
  (match handle r (P.Txn_p1a { rid = 1; txid = tx "t"; bal = 2 }) with
  | P.Txn_p1b { ok = true; accepted = None; _ } -> ()
  | _ -> Alcotest.fail "free register promises");
  (* a lower ballot is refused after the promise *)
  (match
     handle r
       (P.Txn_p2a
          { rid = 2; txid = tx "t"; bal = 1; commit = true; writes = [] })
   with
  | P.Txn_p2b { ok = false; _ } -> ()
  | _ -> Alcotest.fail "lower ballot refused");
  (* the promised ballot's 2a is accepted *)
  (match
     handle r
       (P.Txn_p2a
          {
            rid = 3;
            txid = tx "t";
            bal = 2;
            commit = true;
            writes = [ ("k", 1, 5) ];
          })
   with
  | P.Txn_p2b { ok = true; _ } -> ()
  | _ -> Alcotest.fail "promised ballot accepted");
  (* a later phase 1 reports the accepted value *)
  (match handle r (P.Txn_p1a { rid = 4; txid = tx "t"; bal = 7 }) with
  | P.Txn_p1b { ok = true; accepted = Some (2, true, [ ("k", 1, 5) ]); _ } -> ()
  | _ -> Alcotest.fail "accepted value reported")

(* ---------- the per-transaction record's semantics ---------- *)

let prepare ?(paxos = false) ?(acceptors = [ "r0" ]) ~rid txid =
  P.Txn_prepare
    {
      rid;
      txid = tx txid;
      writes = [ ("k0", 7) ];
      reads = [ "k1" ];
      acceptors;
      paxos;
    }

let decide ~rid txid =
  P.Txn_decide
    {
      rid;
      txid = tx txid;
      decision = Register.decision ~commit:true ~writes:[ ("k0", 1, 7) ];
    }

let check_idle name r =
  Alcotest.(check (list string)) (name ^ ": nothing in doubt") []
    (Replica.in_doubt r);
  Alcotest.(check (list (pair string string)))
    (name ^ ": nothing locked") [] (Replica.locked_keys r)

(* the decision [decide] carries *)
let committed_k0 d =
  Register.commit d && Register.writes d = [ ("k0", 1, 7) ]

(* A replica that never saw the prepare is still a full acceptor of
   the decision register, holds no lock for it, and learns the
   decision (hook included) without installing anything. *)
let test_acceptor_without_prepare () =
  let r = Replica.create ~name:"r0" () in
  let hook = ref [] in
  Replica.set_on_decided r (fun ~txid ~commit ~writes:_ ->
      hook := (txid.Qc_util.Txid.name, commit) :: !hook);
  (match handle r (P.Txn_p1a { rid = 1; txid = tx "t"; bal = 1 }) with
  | P.Txn_p1b { ok = true; accepted = None; _ } -> ()
  | _ -> Alcotest.fail "unprepared txid promises");
  (match
     handle r
       (P.Txn_p2a
          {
            rid = 2;
            txid = tx "t";
            bal = 1;
            commit = true;
            writes = [ ("k0", 1, 7) ];
          })
   with
  | P.Txn_p2b { ok = true; _ } -> ()
  | _ -> Alcotest.fail "unprepared txid accepts");
  check_idle "acceptor only" r;
  (match handle r (decide ~rid:3 "t") with
  | P.Txn_decide_ack { applied = false; _ } -> ()
  | _ -> Alcotest.fail "an unprepared decide is acked unapplied");
  Alcotest.(check (list (pair string bool))) "hook fired" [ ("t", true) ] !hook;
  Alcotest.(check (pair int int)) "nothing installed" (0, 0)
    (Replica.lookup r "k0");
  (match
     handle r
       (P.Txn_p2a
          { rid = 4; txid = tx "t"; bal = 9; commit = false; writes = [] })
   with
  | P.Txn_decide { decision; _ } when committed_k0 decision -> ()
  | _ -> Alcotest.fail "a decided register answers 2a with the decision");
  (match handle r (P.Txn_p1a { rid = 5; txid = tx "t"; bal = 9 }) with
  | P.Txn_decide { decision; _ } when committed_k0 decision -> ()
  | _ -> Alcotest.fail "a decided register answers 1a with the decision");
  check_idle "after decision" r

(* A decision that overtakes its prepare: the late prepare is answered
   with the decision and takes no lock. *)
let test_decide_before_prepare () =
  let r = Replica.create ~name:"r0" () in
  (match handle r (decide ~rid:1 "c0#t0") with
  | P.Txn_decide_ack { applied = false; _ } -> ()
  | _ -> Alcotest.fail "early decide acked unapplied");
  (match handle r (prepare ~paxos:true ~rid:2 "c0#t0") with
  | P.Txn_decide { rid = 2; txid = { name = "c0#t0"; _ }; decision }
    when committed_k0 decision ->
      ()
  | _ -> Alcotest.fail "late prepare answered with the decision");
  check_idle "late prepare" r;
  (* another transaction can lock the same keys straight away *)
  (match handle r (prepare ~rid:3 "c0#t1") with
  | P.Txn_vote { yes = true; _ } -> ()
  | _ -> Alcotest.fail "footprint free for the next transaction");
  (match
     handle r
       (P.Txn_decide
          { rid = 4; txid = tx "c0#t1"; decision = Register.aborted })
   with
  | P.Txn_decide_ack { applied = true; _ } -> ()
  | _ -> Alcotest.fail "abort resolves the prepared entry");
  check_idle "after abort" r

(* In Paxos-Commit mode a prepare arms a recovery timer; once the
   decision is in, the timer's firing must do nothing — no ballot, no
   message.  The undecided control run shows the timer does fire: all
   8 recovery rounds, each a phase 1a to both peers. *)
let test_recovery_timer_after_decision () =
  let run ~decided =
    let sim = Core.create ~seed:1 in
    let net = Sim.Net.create ~sim ~nodes:[ "r0"; "r1"; "r2" ] () in
    let r = Replica.create ~name:"r0" () in
    Replica.attach r ~net;
    (match
       handle r
         (prepare ~paxos:true ~acceptors:[ "r0"; "r1"; "r2" ] ~rid:1 "t")
     with
    | P.Txn_vote { yes = true; _ } -> ()
    | _ -> Alcotest.fail "yes vote");
    if decided then
      (match handle r (decide ~rid:2 "t") with
      | P.Txn_decide_ack { applied = true; _ } -> ()
      | _ -> Alcotest.fail "applied ack");
    Core.run sim;
    ((Sim.Net.counters net).Sim.Net.sent, r)
  in
  let sent, r = run ~decided:false in
  Alcotest.(check int) "undecided: recovery sends phase 1a to both peers" 16
    sent;
  Alcotest.(check (list string)) "undecided: still in doubt" [ "t" ]
    (Replica.in_doubt r);
  let sent, r = run ~decided:true in
  Alcotest.(check int) "decided: the timer is a no-op" 0 sent;
  check_idle "decided" r;
  Alcotest.(check (pair int int)) "decided: installed" (1, 7)
    (Replica.lookup r "k0")

(* Resolving a prepared entry cancels its recovery timer, so a decided
   transaction leaves nothing in the event queue; the in-doubt set
   stays sorted whatever the prepare order, and a repeated decision
   changes nothing. *)
let test_decision_cancels_recovery_timer () =
  let sim = Core.create ~seed:1 in
  let net = Sim.Net.create ~sim ~nodes:[ "r0"; "r1"; "r2" ] () in
  let r = Replica.create ~name:"r0" () in
  Replica.attach r ~net;
  let prep ?(paxos = true) rid txid key =
    match
      handle r
        (P.Txn_prepare
           {
             rid;
             txid = tx txid;
             writes = [ (key, rid) ];
             reads = [];
             acceptors = [ "r0"; "r1"; "r2" ];
             paxos;
           })
    with
    | P.Txn_vote { yes = true; _ } -> ()
    | _ -> Alcotest.fail "yes vote"
  in
  let dec rid txid key =
    ignore
      (handle r
         (P.Txn_decide
            {
              rid;
              txid = tx txid;
              decision = Register.decision ~commit:true ~writes:[ (key, 1, rid) ];
            }))
  in
  prep 1 "t2" "a";
  prep 2 "t0" "b";
  prep 3 "t1" "c";
  Alcotest.(check int) "one recovery timer per prepare" 3 (Core.pending sim);
  Alcotest.(check (list string)) "in doubt, sorted" [ "t0"; "t1"; "t2" ]
    (Replica.in_doubt r);
  dec 4 "t0" "b";
  dec 5 "t0" "b";
  Alcotest.(check int) "decided: its timer is gone" 2 (Core.pending sim);
  Alcotest.(check (list string)) "t0 resolved" [ "t1"; "t2" ]
    (Replica.in_doubt r);
  dec 6 "t2" "a";
  dec 7 "t1" "c";
  prep ~paxos:false 8 "t3" "d";
  Alcotest.(check int) "two-phase commit arms no timer" 0 (Core.pending sim);
  dec 9 "t3" "d";
  Core.run sim;
  Alcotest.(check int) "no event ran" 0 (Core.executed_events sim);
  check_idle "all decided" r

(* End to end: once a Paxos Commit transaction is decided and its
   messages delivered, no timer is left — the run ends long before the
   recovery delay (150) or the transaction deadline (400). *)
let test_decided_txn_leaves_no_event () =
  let sim = Core.create ~seed:3 in
  let groups = Cluster.group_names ~n_shards:3 ~n_replicas:3 in
  let names = Array.to_list groups |> List.concat_map Array.to_list in
  let net = Sim.Net.create ~sim ~nodes:(names @ [ "c0" ]) () in
  let replicas =
    List.map
      (fun name ->
        let r = Replica.create ~name () in
        Replica.attach r ~net;
        r)
      names
  in
  let router =
    Store.Router.create ~name:"c0" ~sim ~net ~groups
      ~strategies:(Array.make 3 (Store.Strategy.majority 3))
      ~scheme:`Range ~n_keys:30 ()
  in
  Store.Router.attach router;
  let coord = Store.Txn.create ~name:"c0" ~sim ~router ~mode:`Paxos () in
  let outcome = ref None in
  ignore
    (Store.Txn.execute coord
       ~writes:[ ("k0", 1); ("k15", 2); ("k29", 3) ]
       ~on_done:(fun ~committed ~reads:_ ~writes:_ ~latency:_ ->
         outcome := Some committed)
       ()
      : string);
  Core.run sim;
  Alcotest.(check (option bool)) "committed" (Some true) !outcome;
  List.iter (fun r -> check_idle r.Replica.name r) replicas;
  Alcotest.(check int) "nothing pending" 0 (Core.pending sim);
  Alcotest.(check bool)
    (Fmt.str "the run ended at t = %g, before any timer" (Core.now sim))
    true
    (Core.now sim < 150.0)

(* One full recovery round led by a prepared replica, step by step:
   phase 1a to the other acceptors in acceptor order, a duplicate 1b
   counted once, 2a after a majority of 1b proposing the
   highest-ballot value reported (here an Abort accepted at ballot 5,
   over the leader's own ballot-0 Commit and a Commit at ballot 2),
   the decision broadcast after a majority of 2b, and the decision
   hook fired once.  The four peers are recorders on a
   constant-latency network, so deliveries arrive in send order.  The
   first recovery round starts at 225 (150 x 1.5 for acceptor index
   2) and a second would start at 675, so the run stops in between. *)
let test_recovery_round () =
  let acceptors = [ "r0"; "r1"; "r2"; "r3"; "r4" ] in
  let sim = Core.create ~seed:1 in
  let net =
    Sim.Net.create ~sim ~nodes:acceptors
      ~latency:(fun _ ~src:_ ~dst:_ -> 1.0)
      ()
  in
  let r = Replica.create ~name:"r2" () in
  Replica.attach r ~net;
  let log = ref [] in
  List.iter
    (fun peer ->
      if peer <> "r2" then
        Sim.Net.register net ~node:peer (fun ~src msg ->
            let frame =
              match msg with
              | P.Txn_p1a { txid; bal; _ } -> Fmt.str "1a %s %d" txid.name bal
              | P.Txn_p2a { txid; bal; commit; _ } ->
                  Fmt.str "2a %s %d %b" txid.name bal commit
              | P.Txn_decide { txid; decision; _ } ->
                  Fmt.str "decide %s %b" txid.name (Register.commit decision)
              | _ -> "other"
            in
            log := Fmt.str "%s->%s %s" src peer frame :: !log))
    acceptors;
  let take () =
    let l = List.rev !log in
    log := [];
    l
  in
  let hook = ref [] in
  Replica.set_on_decided r (fun ~txid ~commit ~writes ->
      hook := (txid.Qc_util.Txid.name, commit, writes) :: !hook);
  let ws = [ ("k0", 1, 7) ] in
  (match handle r (prepare ~paxos:true ~acceptors ~rid:1 "t") with
  | P.Txn_vote { yes = true; _ } -> ()
  | _ -> Alcotest.fail "yes vote");
  (match
     handle r
       (P.Txn_p2a
          { rid = 2; txid = tx "t"; bal = 0; commit = true; writes = ws })
   with
  | P.Txn_p2b { ok = true; _ } -> ()
  | _ -> Alcotest.fail "the coordinator's 2a is accepted");
  Core.run ~until:300.0 sim;
  (* ballot = attempt 1 * (5 + 1) + acceptor index 2 + 1 *)
  Alcotest.(check (list string))
    "1a to the other acceptors, in acceptor order"
    [ "r2->r0 1a t 9"; "r2->r1 1a t 9"; "r2->r3 1a t 9"; "r2->r4 1a t 9" ]
    (take ());
  let from src msg =
    Replica.serve r ~src ~tr:tr_off ~reply:(fun _ -> ()) msg;
    Core.run ~until:(Core.now sim +. 2.0) sim
  in
  let p1b accepted =
    P.Txn_p1b { rid = 0; txid = tx "t"; bal = 9; ok = true; accepted }
  in
  from "r0" (p1b (Some (5, false, [])));
  from "r0" (p1b (Some (5, false, [])));
  Alcotest.(check (list string)) "a duplicate 1b does not count twice" []
    (take ());
  from "r1" (p1b (Some (2, true, ws)));
  Alcotest.(check (list string))
    "2a after a majority of 1b, proposing the highest-ballot value"
    [
      "r2->r0 2a t 9 false";
      "r2->r1 2a t 9 false";
      "r2->r3 2a t 9 false";
      "r2->r4 2a t 9 false";
    ]
    (take ());
  let p2b = P.Txn_p2b { rid = 0; txid = tx "t"; bal = 9; ok = true } in
  from "r3" p2b;
  from "r3" p2b;
  Alcotest.(check (list string)) "a duplicate 2b does not count twice" []
    (take ());
  Alcotest.(check int) "no decision before a majority of 2b" 0
    (List.length !hook);
  from "r4" p2b;
  Alcotest.(check (list string))
    "decision broadcast after a majority of 2b"
    [
      "r2->r0 decide t false";
      "r2->r1 decide t false";
      "r2->r3 decide t false";
      "r2->r4 decide t false";
    ]
    (take ());
  from "r0" p2b;
  from "r1"
    (P.Txn_decide { rid = 0; txid = tx "t"; decision = Register.aborted });
  Alcotest.(check (list string)) "a late 2b or decision changes nothing" []
    (take ());
  Alcotest.(check (list (triple string bool (list (triple string int int)))))
    "the decision hook fired once" [ ("t", false, []) ] !hook;
  check_idle "after recovery" r;
  Alcotest.(check (pair int int)) "the abort installs nothing" (0, 0)
    (Replica.lookup r "k0")

(* A decided txid is answered from its decision alone.  For a
   committed and an aborted txid, each prepared here and then decided,
   every Txn frame that can still arrive — a retransmitted prepare,
   phase 1a and 2a at higher ballots, the decision again and its
   opposite, and the leader-side 1b, 2b, vote and decide-ack — gets
   the reply pinned below, the one a replica keeping a full record per
   txid gave.  None of them fires the decision hook again, takes a
   lock, arms a recovery timer or moves an installed value, and the
   replica's transaction table keeps its size: no live record comes
   back. *)
let show_writes ws =
  String.concat "," (List.map (fun (k, vn, v) -> Fmt.str "%s:%d:%d" k vn v) ws)

let show_reply = function
  | None -> "-"
  | Some (P.Txn_decide { rid; txid; decision }) ->
      Fmt.str "decide %d %s %b [%s]" rid txid.name (Register.commit decision)
        (show_writes (Register.writes decision))
  | Some (P.Txn_decide_ack { rid; txid; applied }) ->
      Fmt.str "ack %d %s %b" rid txid.name applied
  | Some (P.Txn_vote { rid; txid; yes; _ }) ->
      Fmt.str "vote %d %s %b" rid txid.name yes
  | Some (P.Txn_p1b { rid; txid; ok; _ }) ->
      Fmt.str "p1b %d %s %b" rid txid.name ok
  | Some (P.Txn_p2b { rid; txid; ok; _ }) ->
      Fmt.str "p2b %d %s %b" rid txid.name ok
  | Some _ -> "other"

let test_decided_txid_replies () =
  let acceptors = [ "r0"; "r1"; "r2" ] in
  let sim = Core.create ~seed:1 in
  let net = Sim.Net.create ~sim ~nodes:acceptors () in
  let r = Replica.create ~name:"r0" () in
  Replica.attach r ~net;
  let hook = ref [] in
  Replica.set_on_decided r (fun ~txid ~commit ~writes:_ ->
      hook := (txid.Qc_util.Txid.name, commit) :: !hook);
  let prep rid txid key =
    P.Txn_prepare
      {
        rid;
        txid = tx txid;
        writes = [ (key, rid) ];
        reads = [];
        acceptors;
        paxos = true;
      }
  in
  let ws key = [ (key, 1, 10) ] in
  let dec rid txid ~commit key =
    P.Txn_decide
      {
        rid;
        txid = tx txid;
        decision =
          Register.decision ~commit ~writes:(if commit then ws key else []);
      }
  in
  let send m = show_reply (Replica.handle_one r ~tr:tr_off m) in
  Alcotest.(check (list string))
    "prepare, then decide"
    [
      "vote 1 tc true";
      "vote 2 ta true";
      "ack 3 tc true";
      "ack 4 ta true";
    ]
    (List.map send
       [
         prep 1 "tc" "a";
         prep 2 "ta" "b";
         dec 3 "tc" ~commit:true "a";
         dec 4 "ta" ~commit:false "b";
       ]);
  let idle = (Replica.in_doubt r, Replica.locked_keys r) in
  let values () = (Replica.lookup r "a", Replica.lookup r "b") in
  let installed = values () in
  let table_words () = Obj.reachable_words (Obj.repr r.Replica.txns) in
  let words = table_words () in
  let frames txid key =
    let id = tx txid in
    [
      prep 10 txid key;
      P.Txn_p1a { rid = 11; txid = id; bal = 5 };
      P.Txn_p2a { rid = 12; txid = id; bal = 7; commit = true; writes = ws key };
      dec 13 txid ~commit:true key;
      dec 14 txid ~commit:false key;
      P.Txn_p1b { rid = 15; txid = id; bal = 5; ok = true; accepted = None };
      P.Txn_p2b { rid = 16; txid = id; bal = 7; ok = true };
      P.Txn_vote { rid = 17; txid = id; yes = true; kvs = [] };
      P.Txn_decide_ack { rid = 18; txid = id; applied = true };
    ]
  in
  Alcotest.(check (list string))
    "every later frame is answered from the decision"
    [
      "decide 10 tc true [a:1:10]";
      "decide 11 tc true [a:1:10]";
      "decide 12 tc true [a:1:10]";
      "ack 13 tc false";
      "ack 14 tc false";
      "-";
      "-";
      "-";
      "-";
      "decide 10 ta false []";
      "decide 11 ta false []";
      "decide 12 ta false []";
      "ack 13 ta false";
      "ack 14 ta false";
      "-";
      "-";
      "-";
      "-";
    ]
    (List.map send (frames "tc" "a" @ frames "ta" "b"));
  Alcotest.(check (list (pair string bool)))
    "the hook fired once per txid, at the first decision"
    [ ("ta", false); ("tc", true) ]
    !hook;
  Alcotest.(check bool) "in_doubt and locked_keys unchanged" true
    (idle = (Replica.in_doubt r, Replica.locked_keys r));
  Alcotest.(check (list string)) "nothing in doubt" [] (Replica.in_doubt r);
  Alcotest.(check bool) "installed values unchanged" true
    (installed = values ());
  Alcotest.(check int) "no recovery timer armed" 0 (Core.pending sim);
  Alcotest.(check int) "the transaction table keeps its size" words
    (table_words ())

(* ---------- end-to-end over the cluster ---------- *)

let txn_params ~mode ~seed ?(script = []) ?(n_clients = 3) ?(retries = 2) () =
  {
    Cluster.default_params with
    n_replicas = 3;
    n_clients;
    n_shards = 3;
    seed;
    script;
    workload =
      { Store.Workload.default_spec with n_keys = 24; think_time = 4.0 };
    txns =
      Some
        {
          Cluster.default_txn_spec with
          commit_mode = mode;
          txns_per_client = 12;
          txn_retries = retries;
        };
  }

let test_txn_cluster_smoke () =
  List.iter
    (fun mode ->
      let r = Cluster.run (txn_params ~mode ~seed:7 ()) in
      Alcotest.(check bool)
        (Fmt.str "%s: commits happened" (Store.Txn.mode_label mode))
        true (r.Cluster.ok_txns > 0);
      Alcotest.(check (list string))
        (Fmt.str "%s: audit clean" (Store.Txn.mode_label mode))
        [] r.Cluster.audit_violations;
      Alcotest.(check (list string))
        (Fmt.str "%s: nothing blocked" (Store.Txn.mode_label mode))
        [] r.Cluster.blocked_txns;
      Alcotest.(check bool)
        (Fmt.str "%s: decided covers acked" (Store.Txn.mode_label mode))
        true
        (r.Cluster.decided_txns >= r.Cluster.ok_txns))
    [ `Two_phase; `Paxos ]

(* the pinned ablation: a coordinator killed inside the commit window
   leaves 2PC with in-doubt participants forever, while Paxos Commit
   resolves them and the audit stays clean *)
let kill_script =
  [
    Harness.Script.At (30.0, Harness.Script.Crash "c0");
    Harness.Script.At (55.0, Harness.Script.Crash "c1");
    Harness.Script.At (700.0, Harness.Script.Recover "c0");
    Harness.Script.At (700.0, Harness.Script.Recover "c1");
    Harness.Script.At (701.0, Harness.Script.Heal);
  ]

let count_blocked mode seeds =
  List.fold_left
    (fun (blocked, dirty) seed ->
      let r =
        Cluster.run
          (txn_params ~mode ~seed ~script:kill_script ~n_clients:3 ())
      in
      ( blocked + List.length r.Cluster.blocked_txns,
        dirty + List.length r.Cluster.audit_violations ))
    (0, 0) seeds

let test_coordinator_kill_ablation () =
  let seeds = [ 11; 12; 13; 14; 15; 16 ] in
  let blocked_2pc, dirty_2pc = count_blocked `Two_phase seeds in
  let blocked_paxos, dirty_paxos = count_blocked `Paxos seeds in
  Alcotest.(check bool)
    "2PC blocks under coordinator kills" true (blocked_2pc > 0);
  Alcotest.(check int) "Paxos Commit leaves nothing in doubt" 0 blocked_paxos;
  Alcotest.(check int) "2PC audit stays clean (ambiguity-aware)" 0 dirty_2pc;
  Alcotest.(check int) "Paxos audit stays clean" 0 dirty_paxos

(* The Paxos kill-script seeds whose prepared replicas run recovery
   rounds, pinned, with the number of rounds each runs; and for both
   commit modes, tracing on leaves the digest unchanged.  Seed 24 is
   the first that runs two rounds. *)
let recovery_digests =
  [
    (12, "39cbc74ae85ee597e753bd58b054430a", 1);
    (14, "e891e6560070160afeef44a4705e1fcd", 1);
    (15, "c65ddbf3a629cdeb5be4b3a41875365c", 1);
    (16, "2e481f451e6a4b3c73a586c0317d6f26", 1);
    (24, "180a825722968c960b005d29c14aa6ef", 2);
  ]

let test_recovery_digests () =
  List.iter
    (fun (seed, expect, rounds) ->
      List.iter
        (fun mode ->
          let label = Fmt.str "seed %d %s" seed (Store.Txn.mode_label mode) in
          let p = txn_params ~mode ~seed ~script:kill_script ~n_clients:3 () in
          let off = Cluster.run p in
          let on = Cluster.run { p with Cluster.trace_capacity = 1 lsl 20 } in
          Alcotest.(check string)
            (label ^ ": tracing on = off")
            (Cluster.digest off) (Cluster.digest on);
          Alcotest.(check int) (label ^ ": ring not overwritten") 0
            (Obs.Trace.overwritten on.Cluster.trace);
          if mode = `Paxos then begin
            Alcotest.(check string) (label ^ " pinned") expect
              (Cluster.digest off);
            let recovers =
              List.length
                (List.filter
                   (fun (e : Obs.Trace.event) -> e.name = "txn.recover")
                   (Obs.Trace.events on.Cluster.trace))
            in
            Alcotest.(check int) (label ^ ": recovery rounds") rounds recovers
          end)
        [ `Two_phase; `Paxos ])
    recovery_digests

(* One traced Paxos run under the kill script, pinned byte for byte:
   its [txn.*] instants (begin, prepare, decide, recover, commit,
   abort) carry the txid as rendered for traces, so the pin holds the
   rendered names — and the recovery rounds that name them — fixed. *)
let traced_kill_run =
  ("5b9dfe1d7dae0a5280f2a0f0f40f7c68", 1147192)

let test_traced_kill_run_pinned () =
  let p = txn_params ~mode:`Paxos ~seed:12 ~script:kill_script () in
  let r = Cluster.run { p with Cluster.trace_capacity = 1 lsl 20 } in
  let s = Obs.Export.jsonl r.Cluster.trace in
  let md5, len = traced_kill_run in
  Alcotest.(check (pair string int))
    "seed 12 jsonl trace (md5, length) pinned" (md5, len)
    (Digest.to_hex (Digest.string s), String.length s);
  Alcotest.(check bool)
    "the run traces a recovery round" true
    (List.exists
       (fun (e : Obs.Trace.event) -> e.name = "txn.recover")
       (Obs.Trace.events r.Cluster.trace))

(* ---------- serializability under partitions (qcheck) ---------- *)

let prop_txn_serializable_under_partitions =
  QCheck.Test.make ~count:12
    ~name:"concurrent cross-shard txns under partitions serialize"
    QCheck.(pair (int_bound 9999) (bool))
    (fun (seed, paxos) ->
      let mode = if paxos then `Paxos else `Two_phase in
      let p =
        {
          (txn_params ~mode ~seed ()) with
          partitions = Some 60.0;
          loss = 0.02;
        }
      in
      let r = Cluster.run p in
      if r.Cluster.audit_violations <> [] then
        QCheck.Test.fail_reportf "seed %d (%s): %a" seed
          (Store.Txn.mode_label mode)
          Fmt.(list ~sep:(any "; ") string)
          r.Cluster.audit_violations;
      true)

(* under a healing script, Paxos-Commit runs must also regain
   liveness: some transaction completes successfully after the heal *)
let test_txn_liveness_after_heal () =
  let p = txn_params ~mode:`Paxos ~seed:21 ~script:kill_script () in
  let r = Cluster.run p in
  match
    Harness.Check.liveness_after_heal ~script:kill_script
      ~completions:r.Cluster.completions
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------- golden digests (pinned 3-seed txn workload) ---------- *)

(* The digest pins the entire simulation outcome of the transaction
   workload — commit counts, latencies, net counters, the blocked set.
   Regenerate by printing [Cluster.digest] for these seeds if a
   deliberate behaviour change lands. *)
let golden_digests =
  [
    (101, "35f45632e62379fe469e1d85414d65d9");
    (102, "4c3c5d15d002b6fff6624df87ac84651");
    (103, "87173aedaa92a6678f91a1751b5ef5ab");
  ]

let test_txn_digest_golden () =
  List.iter
    (fun (seed, expect) ->
      let digest = Cluster.digest (Cluster.run (txn_params ~mode:`Paxos ~seed ())) in
      let again = Cluster.digest (Cluster.run (txn_params ~mode:`Paxos ~seed ())) in
      Alcotest.(check string)
        (Fmt.str "seed %d reproducible" seed)
        digest again;
      if expect <> "" then
        Alcotest.(check string) (Fmt.str "seed %d pinned" seed) expect digest)
    golden_digests

(* ---------- the canonical footprint ---------- *)

(* The replica's [Cell.footprint] is the only maker of the lists
   [Cell.lock_all] takes, so the deadlock-freedom of the prepare's two-phase locking
   rests on its order: on any write and read sets, duplicates
   included, the yes-vote lists exactly the keys [List.sort_uniq]
   gives, in its order. *)
let prop_footprint_is_sort_uniq =
  let key = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 2)) in
  let gen =
    QCheck.Gen.(pair (list_size (0 -- 4) (pair key small_nat)) (list_size (0 -- 4) key))
  in
  let print =
    QCheck.Print.(pair (list (pair string int)) (list string))
  in
  QCheck.Test.make ~count:500 ~name:"prepare footprint = List.sort_uniq"
    (QCheck.make ~print gen) (fun (writes, reads) ->
      let r = Replica.create ~name:"r0" () in
      match
        Replica.handle_one r ~tr:tr_off
          (P.Txn_prepare
             {
               rid = 1;
               txid = tx "f";
               writes;
               reads;
               acceptors = [ "r0" ];
               paxos = false;
             })
      with
      | Some (P.Txn_vote { yes = true; kvs; _ }) ->
          List.map (fun (k, _, _) -> k) kvs
          = List.sort_uniq String.compare (List.map fst writes @ reads)
      | _ -> false)

(* ---------- allocation budgets ---------- *)

(* Minor-heap words per message served, counted with [Gc.minor_words]
   as [util.prng]'s words per draw are: the mean over [n] requests to
   one replica, attached to a network so a Paxos prepare arms its
   recovery timer, each served through [Replica.serve] with a reply
   function that allocates nothing.  A count covers the replica's own
   work and the reply it builds; a fresh txid's open register and its
   table cell (9 words) are part of a prepare's, and a decide rebinds
   that cell to the decision it carries.  The counts repeat exactly.
   The others sit at their budgets, so one more tuple or closure per
   message fails them; the prepares, at 46.4 and 66.5 words, sit
   under their budgets by about ten words, the budgets being those of
   a replica that kept a record per txid (52.4 and 72.5 words). *)
let ignore_reply (_ : P.msg) = ()

let serve_words ?(setup = fun _ _ -> ()) msg =
  let n = 256 in
  let sim = Core.create ~seed:1 in
  let net = Sim.Net.create ~sim ~nodes:[ "r0"; "r1"; "r2" ] () in
  let r = Replica.create ~name:"r0" () in
  Replica.attach r ~net;
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    setup r i;
    let m = msg i in
    let before = Gc.minor_words () in
    Replica.serve r ~tr:tr_off ~reply:ignore_reply m;
    total := !total +. (Gc.minor_words () -. before)
  done;
  !total /. float_of_int n

let alloc_txid i = { Qc_util.Txid.id = i; name = Fmt.str "c0#t%d" i }

(* a Paxos prepare writing the first [keys] of c, b, a, unsorted *)
let alloc_prepare ~keys i =
  P.Txn_prepare
    {
      rid = i;
      txid = alloc_txid i;
      writes = List.filteri (fun j _ -> j < keys) [ ("c", i); ("b", i); ("a", i) ];
      reads = [];
      acceptors = [ "r0"; "r1"; "r2" ];
      paxos = true;
    }

(* before round [i]: abort round [i - 1]'s transaction, freeing its
   locks *)
let abort_previous r i =
  if i > 0 then
    Replica.serve r ~tr:tr_off ~reply:ignore_reply
      (P.Txn_decide
         { rid = i; txid = alloc_txid (i - 1); decision = Register.aborted })

(* before round [i]: prepare round [i]'s transaction *)
let prepare_first r i =
  Replica.serve r ~tr:tr_off ~reply:ignore_reply
    (alloc_prepare ~keys:1 i)

let test_serve_words () =
  let budget name ~words ~budget =
    Alcotest.(check bool)
      (Fmt.str "%s: %.2f words, budget %.0f" name words budget)
      true (words <= budget)
  in
  let ws i = [ ("c", 1, i) ] in
  budget "Txn_prepare, 1 key"
    ~words:(serve_words ~setup:abort_previous (alloc_prepare ~keys:1))
    ~budget:56.0;
  budget "Txn_prepare, 3 keys"
    ~words:(serve_words ~setup:abort_previous (alloc_prepare ~keys:3))
    ~budget:76.0;
  budget "Txn_p2a"
    ~words:
      (serve_words ~setup:prepare_first (fun i ->
           P.Txn_p2a
             { rid = i; txid = alloc_txid i; bal = 0; commit = true; writes = ws i }))
    ~budget:5.0;
  budget "Txn_decide"
    ~words:
      (serve_words ~setup:prepare_first (fun i ->
           P.Txn_decide
             {
               rid = i;
               txid = alloc_txid i;
               decision = Register.decision ~commit:true ~writes:(ws i);
             }))
    ~budget:4.0;
  budget "Query_req"
    ~words:(serve_words (fun i -> P.Query_req { rid = i; key = "a"; ctx = None }))
    ~budget:5.0

(* What a replica keeps per decided txid: [Obj.reachable_words] of
   its transaction table at the end of a seeded Paxos Commit run, less
   the empty table's, over the txids it learned a decision for.  Two
   coordinators run 40 transactions each over three shards, three
   keys a transaction, and collide, so both outcomes are in the mix.
   The count repeats exactly: 29.8 words, the table cell and the
   shared decision with its write set.  A replica that kept a record,
   a register and a txid per decided transaction, as this one once
   did, kept 42.2 words per txid here.  The budget sits just above
   the count, so a record per decided txid coming back fails it. *)
let decided_budget = 31.0

let test_decided_retention () =
  let sim = Core.create ~seed:7 in
  let groups = Cluster.group_names ~n_shards:3 ~n_replicas:3 in
  let names = Array.to_list groups |> List.concat_map Array.to_list in
  let coords = [ "c0"; "c1" ] in
  let net = Sim.Net.create ~sim ~nodes:(names @ coords) () in
  let replicas =
    List.map
      (fun name ->
        let r = Replica.create ~name () in
        Replica.attach r ~net;
        r)
      names
  in
  let r = List.hd replicas in
  let table_words () = Obj.reachable_words (Obj.repr r.Replica.txns) in
  let empty = table_words () in
  let decided = ref 0 and committed = ref 0 in
  Replica.set_on_decided r (fun ~txid:_ ~commit ~writes:_ ->
      incr decided;
      if commit then incr committed);
  List.iteri
    (fun ci name ->
      let router =
        Store.Router.create ~name ~sim ~net ~groups
          ~strategies:(Array.make 3 (Store.Strategy.majority 3))
          ~scheme:`Range ~n_keys:30 ()
      in
      Store.Router.attach router;
      let coord = Store.Txn.create ~name ~sim ~router ~mode:`Paxos () in
      let rec next n =
        if n < 40 then
          let keys =
            [ n mod 10; 10 + ((n * 3) + ci) mod 10; 20 + ((n * 7) mod 10) ]
          in
          ignore
            (Store.Txn.execute coord
               ~writes:(List.map (fun k -> (Fmt.str "k%d" k, n)) keys)
               ~on_done:(fun ~committed:_ ~reads:_ ~writes:_ ~latency:_ ->
                 Core.schedule sim ~delay:1.0 (fun () -> next (n + 1)))
               ()
              : string)
      in
      next 0)
    coords;
  Core.run sim;
  List.iter (fun r -> check_idle r.Replica.name r) replicas;
  Alcotest.(check bool)
    (Fmt.str "both outcomes decided (%d of %d committed)" !committed !decided)
    true
    (!committed > 0 && !committed < !decided);
  let per_txid =
    float_of_int (table_words () - empty) /. float_of_int !decided
  in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per decided txid, budget %.0f" per_txid
       decided_budget)
    true
    (per_txid <= decided_budget)

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "store.txn",
      [
        Alcotest.test_case "replica prepare/vote/decide" `Quick
          test_replica_prepare_vote_decide;
        Alcotest.test_case "abort releases locks" `Quick
          test_replica_abort_releases;
        Alcotest.test_case "one cell per key: version, value, lock" `Quick
          test_replica_key_cells;
        Alcotest.test_case "acceptor ballot discipline" `Quick
          test_replica_acceptor_ballots;
        Alcotest.test_case "acceptor for an unprepared txid" `Quick
          test_acceptor_without_prepare;
        Alcotest.test_case "decide before prepare" `Quick
          test_decide_before_prepare;
        Alcotest.test_case "recovery timer after the decision" `Quick
          test_recovery_timer_after_decision;
        Alcotest.test_case "the decision cancels the recovery timer" `Quick
          test_decision_cancels_recovery_timer;
        Alcotest.test_case "a decided transaction leaves no event" `Quick
          test_decided_txn_leaves_no_event;
        Alcotest.test_case "a full recovery round" `Quick test_recovery_round;
        Alcotest.test_case "a decided txid answers from its decision" `Quick
          test_decided_txid_replies;
        qcheck prop_footprint_is_sort_uniq;
        Alcotest.test_case "words per message served" `Quick test_serve_words;
        Alcotest.test_case "words kept per decided txid" `Quick
          test_decided_retention;
        Alcotest.test_case "cluster txn smoke (both modes)" `Slow
          test_txn_cluster_smoke;
        Alcotest.test_case "coordinator-kill ablation: 2PC blocks, Paxos not"
          `Slow test_coordinator_kill_ablation;
        Alcotest.test_case "recovery digests pinned, tracing-invariant" `Slow
          test_recovery_digests;
        Alcotest.test_case "traced kill-script run pinned" `Slow
          test_traced_kill_run_pinned;
        qcheck prop_txn_serializable_under_partitions;
        Alcotest.test_case "liveness after heal (paxos)" `Slow
          test_txn_liveness_after_heal;
        Alcotest.test_case "golden txn digests" `Slow test_txn_digest_golden;
      ] );
  ]
