(* Test aggregator: one alcotest binary over every library's suites.
   `dune runtest` runs the quick set; slow (whole-suite / whole-harness)
   cases are included too since the full run stays under a minute. *)

let () =
  Alcotest.run "vs"
    (Test_support.suites @ Test_jsfront.suites @ Test_runtime.suites @ Test_bytecode.suites
   @ Test_interp.suites @ Test_mir.suites @ Test_opt.suites @ Test_backend.suites
   @ Test_lower.suites @ Test_eval.suites @ Test_engine.suites @ Test_workloads.suites
   @ Test_fuzz.suites @ Test_harness.suites @ Test_analysis.suites @ Test_absint.suites
   @ Test_telemetry.suites @ Test_policy.suites @ Test_faults.suites @ Test_parallel.suites
   @ Test_profile.suites @ Test_serve.suites @ Test_bg.suites @ Test_metrics.suites
   @ Test_frontend.suites)
