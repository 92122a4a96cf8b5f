(* Tests for the virtual-partition extension (E14): views, the
   view-change protocol, partition behavior, and consistency across
   view changes. *)

module Core = Sim.Core
module Net = Sim.Net

(* ---------- views ---------- *)

let test_primary_rule () =
  let v m = { Vp.View.id = 1; members = m } in
  Alcotest.(check bool) "3 of 5 primary" true
    (Vp.View.primary ~n_total:5 (v [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "2 of 5 not primary" false
    (Vp.View.primary ~n_total:5 (v [ "a"; "b" ]));
  Alcotest.(check bool) "2 of 4 not primary (ties lose)" false
    (Vp.View.primary ~n_total:4 (v [ "a"; "b" ]))

(* ---------- small harness ---------- *)

let replica_names = List.init 5 (fun i -> Fmt.str "r%d" i)

let with_cluster ~seed f =
  let sim = Core.create ~seed in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ [ "c0"; "mgr" ])
      ~latency:(Net.lognormal_latency ~mu:0.5 ~sigma:0.3)
      ()
  in
  let view0 = Vp.View.initial ~replicas:replica_names in
  let replicas =
    List.map
      (fun name -> Vp.Replica.create ~name ~initial_view:view0)
      replica_names
  in
  List.iter (fun r -> Vp.Replica.attach r ~net) replicas;
  let mgr =
    Vp.Manager.create ~name:"mgr" ~sim ~net ~all_replicas:replica_names ()
  in
  let client = Vp.Client.create ~name:"c0" ~sim ~net ~view:view0 ~seed () in
  Vp.Client.attach client;
  f sim net mgr client

let test_read_write_in_initial_view () =
  with_cluster ~seed:1 (fun sim _net _mgr client ->
      let got = ref (-1) in
      Vp.Client.write client ~key:"k" ~value:42
        ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
          Alcotest.(check bool) "write ok" true ok;
          Vp.Client.read client ~key:"k"
            ~on_done:(fun ~ok ~vn:_ ~value ~latency:_ ->
              Alcotest.(check bool) "read ok" true ok;
              got := value));
      Core.run sim;
      Alcotest.(check int) "read sees write" 42 !got)

let test_minority_view_refused () =
  with_cluster ~seed:2 (fun sim _net mgr _client ->
      let refused = ref false in
      Vp.Manager.change_view mgr ~members:[ "r0"; "r1" ]
        ~on_done:(fun ~ok _ -> refused := not ok);
      Core.run sim;
      Alcotest.(check bool) "minority refused" true !refused)

let test_view_change_carries_state () =
  with_cluster ~seed:3 (fun sim net mgr client ->
      let final = ref (-1) in
      Vp.Client.write client ~key:"k" ~value:7
        ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
          Alcotest.(check bool) "write ok" true ok;
          (* cut r3, r4 off and change view to the majority side *)
          List.iter
            (fun a ->
              List.iter (fun b -> Net.cut_link net a b) [ "r3"; "r4" ])
            [ "r0"; "r1"; "r2"; "c0"; "mgr" ];
          Vp.Manager.change_view mgr ~members:[ "r0"; "r1"; "r2" ]
            ~on_done:(fun ~ok view ->
              Alcotest.(check bool) "view change ok" true ok;
              Vp.Client.set_view client view;
              Vp.Client.read client ~key:"k"
                ~on_done:(fun ~ok ~vn:_ ~value ~latency:_ ->
                  Alcotest.(check bool) "read ok in new view" true ok;
                  final := value)));
      Core.run sim;
      Alcotest.(check int) "state carried into new view" 7 !final)

let test_stale_view_nacked () =
  with_cluster ~seed:4 (fun sim _net mgr client ->
      (* change the view but do NOT tell the client *)
      let read_failed = ref false in
      Vp.Manager.change_view mgr ~members:replica_names ~on_done:(fun ~ok _ ->
          Alcotest.(check bool) "view change ok" true ok;
          Vp.Client.read client ~key:"k"
            ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
              read_failed := not ok));
      Core.run sim;
      Alcotest.(check bool) "stale-view read fails" true !read_failed)

(* A replica that has sent its state for a view change serves no
   older view: a write completing there after the state was collected
   would be missing from the merged state the new view installs
   elsewhere.  Without the fence, a write finishing inside the healing
   view change of E14 left r3/r4 a version behind (stale reads at 45
   of seeds 1-300). *)
let test_state_request_fences_old_view () =
  let sim = Core.create ~seed:5 in
  let net =
    Net.create ~sim ~nodes:[ "r0"; "x" ]
      ~latency:(Net.uniform_latency ~lo:1.0 ~hi:1.0)
      ()
  in
  let view0 = Vp.View.initial ~replicas:[ "r0" ] in
  let r0 = Vp.Replica.create ~name:"r0" ~initial_view:view0 in
  Vp.Replica.attach r0 ~net;
  let replies = ref [] in
  Net.register net ~node:"x" (fun ~src:_ m -> replies := m :: !replies);
  let send m = Net.send net ~src:"x" ~dst:"r0" m in
  send (Vp.Protocol.Read_req { rid = 1; view = 0; key = "k" });
  Core.run sim;
  send (Vp.Protocol.State_req { rid = 2; view_id = 1 });
  Core.run sim;
  send (Vp.Protocol.Write_req { rid = 3; view = 0; key = "k"; vn = 1; value = 9 });
  Core.run sim;
  let nacked rid =
    List.exists
      (function Vp.Protocol.Nack { rid = r; _ } -> r = rid | _ -> false)
      !replies
  in
  Alcotest.(check bool) "served before the view change" false (nacked 1);
  Alcotest.(check bool) "old-view write NACKed after the state request" true
    (nacked 3);
  Alcotest.(check int) "write not applied" 0 (fst (Vp.Replica.lookup r0 "k"))

(* ---------- the experiment shapes ---------- *)

let test_experiment_shape () =
  let c = Vp.Experiments.compare () in
  Alcotest.(check int) "no stale reads" 0 c.Vp.Experiments.stale_reads;
  Alcotest.(check bool) "minority view refused" true c.minority_view_refused;
  let rate name =
    match
      List.find_opt (fun (r : Vp.Experiments.phase_row) -> r.phase = name)
        c.phases
    with
    | Some r -> float_of_int r.ok /. float_of_int (max 1 (r.ok + r.failed))
    | None -> nan
  in
  Alcotest.(check bool) "healthy near-perfect" true (rate "A-healthy" > 0.98);
  Alcotest.(check bool) "partition hurts before the view change" true
    (rate "B-partitioned" < 0.9);
  Alcotest.(check bool) "primary view restores availability" true
    (rate "C-primary-view" > 0.85);
  Alcotest.(check bool) "healed view near-perfect" true (rate "D-healed" > 0.95);
  (* the read-one fast path: VP healthy reads at least as fast as
     static majority reads *)
  Alcotest.(check bool) "read-one at least as fast as majority" true
    (c.vp_read_mean <= c.majority_read_mean +. 0.5)

let test_experiment_multi_seed () =
  List.iter
    (fun seed ->
      let c = Vp.Experiments.compare ~seed () in
      Alcotest.(check int)
        (Fmt.str "seed %d: no stale reads" seed)
        0 c.Vp.Experiments.stale_reads)
    [ 41; 42; 43; 44; 45 ]

(* Regression for the determinism lint: [Replica.state] is a canonical
   snapshot — hash-bucket order must never leak, so any insertion
   order yields the same key-sorted list. *)
let test_state_insertion_order () =
  let view = Vp.View.initial ~replicas:[ "r0" ] in
  let bindings = List.init 40 (fun i -> (Fmt.str "k%02d" i, (i, 3 * i))) in
  let build order =
    let r = Vp.Replica.create ~name:"r0" ~initial_view:view in
    List.iter (fun (k, v) -> Hashtbl.replace r.Vp.Replica.data k v) order;
    Vp.Replica.state r
  in
  let rng = Qc_util.Prng.create 7 in
  let reference = build bindings in
  Alcotest.(check bool) "snapshot key-sorted" true
    (List.map fst reference = List.sort String.compare (List.map fst reference));
  for trial = 1 to 5 do
    let shuffled = build (Qc_util.Prng.shuffle rng bindings) in
    Alcotest.(check bool)
      (Fmt.str "shuffled insertion %d: same snapshot" trial)
      true (shuffled = reference)
  done

let suites =
  [
    ("vp.view", [ Alcotest.test_case "primary rule" `Quick test_primary_rule ]);
    ( "vp.protocol",
      [
        Alcotest.test_case "read/write in initial view" `Quick
          test_read_write_in_initial_view;
        Alcotest.test_case "minority view refused" `Quick
          test_minority_view_refused;
        Alcotest.test_case "view change carries state" `Quick
          test_view_change_carries_state;
        Alcotest.test_case "stale view NACKed" `Quick test_stale_view_nacked;
        Alcotest.test_case "state request fences the old view" `Quick
          test_state_request_fences_old_view;
        Alcotest.test_case "state snapshot insertion-order free" `Quick
          test_state_insertion_order;
      ] );
    ( "vp.experiment",
      [
        Alcotest.test_case "partition timeline shape (E14)" `Slow
          test_experiment_shape;
        Alcotest.test_case "no stale reads across seeds" `Slow
          test_experiment_multi_seed;
      ] );
  ]
