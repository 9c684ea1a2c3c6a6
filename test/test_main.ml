let () =
  Alcotest.run "xqp"
    (Test_xml.suite @ Test_storage.suite @ Test_algebra.suite @ Test_xpath.suite
   @ Test_physical.suite @ Test_planner.suite @ Test_xquery.suite @ Test_workload.suite
   @ Test_analysis.suite
   @ Test_coverage.suite @ Test_obs.suite @ Test_domains.suite @ Test_serve.suite
   @ Test_corpus.suite @ Test_open.suite @ Test_reply.suite @ Test_harness.suite)
