(* Test driver: every library has a suite; `dune runtest` runs them all.

   GRAPPLE_FAULT_PLAN (same syntax as `grapple check --fault-plan`) installs
   a deterministic fault plan for the whole run, so CI can re-run the
   pipeline suite under injected storage faults and assert that every test
   still passes with identical warnings. *)

let () =
  (match Sys.getenv_opt "GRAPPLE_FAULT_PLAN" with
  | Some spec when String.trim spec <> "" ->
      Engine.Faults.install (Engine.Faults.parse spec)
  | _ -> ());
  Alcotest.run "grapple"
    [ ("smt", Suite_smt.suite);
      ("jir", Suite_jir.suite);
      ("encoding", Suite_encoding.suite);
      ("symexec", Suite_symexec.suite);
      ("grammar", Suite_grammar.suite);
      ("obs", Suite_obs.suite);
      ("lru", Suite_lru.suite);
      ("engine", Suite_engine.suite);
      ("storage", Suite_storage.suite);
      ("fsm", Suite_fsm.suite);
      ("graphgen", Suite_graphgen.suite);
      ("analysis", Suite_analysis.suite);
      ("interproc", Suite_interproc.suite);
      ("pipeline", Suite_pipeline.suite);
      ("faults", Suite_faults.suite);
      ("shard", Suite_shard.suite);
      ("workload", Suite_workload.suite);
      ("spec", Suite_spec.suite);
      ("baseline", Suite_baseline.suite);
      ("pointsto", Suite_pointsto.suite);
      ("soundness", Suite_soundness.suite) ]
