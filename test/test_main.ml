let () =
  Alcotest.run "mrsc"
    [
      ("numeric", Test_numeric.suite);
      ("lu", Test_lu.suite);
      ("exact", Test_exact.suite);
      ("crn", Test_crn.suite);
      ("equiv", Test_equiv.suite);
      ("slice", Test_slice.suite);
      ("ode", Test_ode.suite);
      ("ssa", Test_ssa.suite);
      ("ensemble", Test_ensemble.suite);
      ("sweep", Test_sweep.suite);
      ("analysis", Test_analysis.suite);
      ("ri_modules", Test_ri_modules.suite);
      ("dual_rail", Test_dual_rail.suite);
      ("molclock", Test_molclock.suite);
      ("core", Test_core.suite);
      ("sfg", Test_sfg.suite);
      ("async", Test_async.suite);
      ("dsd", Test_dsd.suite);
      ("stochastic", Test_stochastic.suite);
      ("hybrid", Test_hybrid.suite);
      ("networks", Test_networks.suite);
      ("service", Test_service.suite);
      ("snapshot", Test_snapshot.suite);
      ("fault", Test_fault.suite);
      ("ring", Test_ring.suite);
      ("gateway", Test_gateway.suite);
      ("engines", Test_engines.suite);
      ("certificate", Test_certificate.suite);
      ("chassis", Test_chassis.suite);
    ]
