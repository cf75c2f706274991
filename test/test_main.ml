(* Test runner: aggregates every suite. Suites live in their own modules,
   one per library module group. *)

let () =
  Alcotest.run "r2c"
    (Test_rng.suite @ Test_stats.suite @ Test_mem.suite @ Test_heap.suite
   @ Test_insn.suite @ Test_cpu.suite @ Test_ir.suite @ Test_compiler.suite
   @ Test_core.suite @ Test_attacks.suite @ Test_properties.suite
   @ Test_workloads.suite @ Test_defenses.suite @ Test_runtime.suite @ Test_harness.suite
   @ Test_extensions.suite @ Test_emit.suite @ Test_text.suite @ Test_analysis.suite @ Test_linker.suite @ Test_table.suite
   @ Test_audit.suite @ Test_unwind.suite @ Test_obs.suite @ Test_fuzz.suite
   @ Test_perf.suite @ Test_parallel.suite @ Test_fleet.suite
   @ Test_dataflow.suite @ Test_replay.suite @ Test_rerand.suite @ Test_jit.suite @ Test_inject.suite)
