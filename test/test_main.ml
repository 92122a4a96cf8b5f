let () =
  Alcotest.run "quorum_nested"
    (Test_util.suites @ Test_ioa.suites @ Test_serial.suites
   @ Test_quorum.suites @ Test_recon.suites @ Test_cc.suites
   @ Test_sim.suites @ Test_store.suites @ Test_adt.suites @ Test_vp.suites
   @ Test_obs.suites @ Test_rpc.suites @ Test_shard.suites
   @ Test_pipeline.suites @ Test_attr.suites @ Test_lint.suites
   @ Test_harness.suites @ Test_audit.suites @ Test_txn.suites
   @ Test_tune.suites)
