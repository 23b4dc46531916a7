let () =
  Alcotest.run "ordo"
    [
      ("util", Test_util.suite);
      ("heap", Test_heap.suite);
      ("equeue", Test_equeue.suite);
      ("sharers", Test_sharers.suite);
      ("pool", Test_pool.suite);
      ("clock", Test_clock.suite);
      ("engine", Test_engine.suite);
      ("runtime", Test_runtime.suite);
      ("sched", Test_sched.suite);
      ("ordo-core", Test_ordo_core.suite);
      ("rlu", Test_rlu.suite);
      ("oplog", Test_oplog.suite);
      ("stm", Test_stm.suite);
      ("db", Test_db.suite);
      ("trace", Test_trace.suite);
      ("hazard", Test_hazard.suite);
      ("shapes", Test_shapes.suite);
      ("analyze", Test_analyze.suite);
      ("lint", Test_lint.suite);
      ("cluster", Test_cluster.suite);
      ("service", Test_service.suite);
      ("mcheck", Test_mcheck.suite);
      ("cli", Test_cli.suite);
    ]
