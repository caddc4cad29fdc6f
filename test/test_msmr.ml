let () =
  Alcotest.run "msmr"
    [
      ("platform", Test_platform.suite);
      ("wire", Test_wire.suite);
      ("consensus", Test_consensus.suite);
      ("runtime", Test_runtime.suite);
      ("tcp", Test_tcp.suite);
      ("sim", Test_sim.suite);
      ("baseline", Test_baseline.suite);
      ("kv", Test_kv.suite);
      ("storage", Test_storage.suite);
      ("obs", Test_obs.suite);
    ]
