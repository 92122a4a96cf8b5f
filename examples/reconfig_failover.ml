(* Reconfiguration end to end, at both levels of the repository.

   Part 1 (formal, Section 4): a logical item whose configuration
   initially lives on a single DM is reconfigured — transparently to
   the user transaction, by a spy-triggered reconfigure-TM — onto a
   two-DM configuration, while the user transaction writes and reads.
   Every run is checked against the Section 4 invariants and the
   simulation onto the non-replicated system A.

   Part 2 (systems, Q4): the simulated replicated store loses two of
   five replicas; write availability collapses under read-one/write-all
   and is restored by reconfiguring onto a majority of the survivors.

   Run with:  dune exec examples/reconfig_failover.exe *)

open Ioa
module Config = Quorum.Config

let () =
  Fmt.pr "=== Part 1: formal reconfiguration (paper Section 4) ===@.";
  let item =
    Recon.Item.make ~name:"x" ~dms:[ "d0"; "d1"; "d2" ] ~initial:(Value.Int 0)
      ~initial_config:
        (Config.make ~read_quorums:[ [ "d0" ] ] ~write_quorums:[ [ "d0" ] ])
      ~candidates:
        [ Config.make ~read_quorums:[ [ "d1" ] ] ~write_quorums:[ [ "d1"; "d2" ] ] ]
  in
  let script =
    {
      Serial.User_txn.children =
        [
          Serial.User_txn.Sub
            ( "worker",
              {
                Serial.User_txn.children =
                  [
                    Serial.User_txn.Access_child
                      (Txn.Access
                         { obj = "x"; kind = Txn.Write; data = Value.Int 99; seq = 0 });
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
  let d =
    Recon.Description.make ~items:[ item ] ~raw_objects:[] ~root_script:script
      ~max_recons_per_txn:2
  in
  let total_recons = ref 0 in
  for seed = 1 to 10 do
    let run = Recon.Harness.run ~abort_rate:0.0 ~seed d in
    let recons = Recon.Harness.count_recons run.System.schedule in
    total_recons := !total_recons + recons;
    match Recon.Harness.check_all d run.System.schedule with
    | Ok () ->
        Fmt.pr
          "seed %2d: %4d ops, %d reconfiguration(s); invariants + simulation \
           OK@."
          seed
          (List.length run.System.schedule)
          recons
    | Error e -> Fmt.pr "seed %2d: FAILED %s@." seed e
  done;
  Fmt.pr "reconfigurations exercised across seeds: %d@." !total_recons;

  Fmt.pr "@.=== Part 2: reconfiguration in the simulated store (Q4) ===@.";
  Store.Experiments.print (Store.Experiments.reconfig_experiment ());
  Fmt.pr
    "@.shape: healthy ~1.0; after two permanent replica failures \
     read-one/write-all writes fail; majority-of-survivors restores ~1.0.@."
