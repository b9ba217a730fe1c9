(* Every metric the ledger reports, with its unit; the end-to-end ones carry
   the direction in which they get worse and the bound by which a change
   may worsen their median before it counts as a regression.  BENCHMARK.json
   lists the same metrics; the test suite holds the two equal. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (* end-to-end only: share of the baseline median *)
}

let e2e name unit_ better bound = { name; unit_; better; bound }

(* Medians over the untraced repetitions of a run.  The time bounds follow
   the run-to-run spread measured on a shared 2-vCPU machine: there, the
   same computation runs up to ~30% slower for minutes at a time while
   other tenants load the host (user CPU time drifts with wall time, and
   steal time stays near zero), and no repetition inside one run removes
   that.  Spreads of ten runs reached 0.20, so times get 0.25.  Peak RSS
   varies only with the seed (declaration order shifts heap growth), by at
   most ~4%, so it gets 0.10. *)
let end_to_end =
  [ e2e "wall_s" "s" Lower 0.25;
    (* parse + Pipeline.prepare: everything before the first checking
       instance can start *)
    e2e "setup_s" "s" Lower 0.25;
    e2e "check_s" "s" Lower 0.25;
    e2e "kloc_per_s" "kLoC/s" Higher 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.10 ]

let layer name unit_ better = { name; unit_; better; bound = 0. }

(* Medians over the traced repetitions of a run, plus the kernel timings.
   Spans shard workers record are lost (their processes exit without
   writing a trace), so on a shard workload the span-derived engine times
   cover the coordinator only; the phase-2/3 totals come from the
   pipeline's own timers, which the workers ship back. *)
let per_layer =
  [ (* jir: the frontend *)
    layer "jir.parse_s" "s" Lower;
    layer "jir.parse_mb_per_s" "MB/s" Higher;
    layer "phase0.unroll_s" "s" Lower;
    layer "phase0.callgraph_s" "s" Lower;
    (* symexec / graphgen *)
    layer "phase0.icfet_s" "s" Lower;
    layer "phase0.clones_s" "s" Lower;
    layer "phase0.alias_graph_s" "s" Lower;
    layer "graph.alias_edges" "count" Lower;
    layer "graph.alias_edges_sliced" "count" Higher;
    layer "phase2.compute_s" "s" Lower;
    (* analysis: the three triage tiers *)
    layer "phase0.escape_prefilter_s" "s" Lower;
    layer "phase0.summary_prefilter_s" "s" Lower;
    layer "phase0.alias_prefilter_s" "s" Lower;
    layer "phase0.alias_slice_s" "s" Lower;
    layer "triage.tracked_allocs" "count" Lower;
    layer "triage.pruned" "count" Higher;
    layer "triage.prune_rate" "ratio" Higher;
    (* engine *)
    layer "phase1.alias_closure_s" "s" Lower;
    layer "engine.pair_self_s" "s" Lower;
    layer "engine.join_s" "s" Lower;
    layer "engine.edges_considered" "count" Lower;
    layer "engine.derive_yield" "ratio" Higher;
    layer "engine.edges_per_s" "1/s" Higher;
    layer "engine.load_s" "s" Lower;
    layer "engine.flush_s" "s" Lower;
    layer "engine.checkpoint_s" "s" Lower;
    layer "engine.io_s" "s" Lower;
    layer "engine.bytes_read_per_edge" "B" Lower;
    layer "engine.bytes_written_per_edge" "B" Lower;
    layer "engine.pairs_processed" "count" Lower;
    layer "engine.partitions" "count" Lower;
    layer "engine.pair_loads_per_partition" "ratio" Lower;
    layer "engine.retries" "count" Lower;
    layer "engine.corrupt_reads" "count" Lower;
    (* smt / encoding *)
    layer "engine.decode_s" "s" Lower;
    layer "engine.solve_s" "s" Lower;
    layer "engine.constraints_solved" "count" Lower;
    layer "engine.cache_hit_rate" "ratio" Higher;
    layer "smt.batches" "count" Lower;
    (* core: pipeline and scheduler *)
    layer "pipeline.prepare_s" "s" Lower;
    layer "pipeline.check_s" "s" Lower;
    layer "scheduler.instances" "count" Lower;
    layer "scheduler.instance_max_s" "s" Lower;
    layer "scheduler.imbalance" "ratio" Lower;
    layer "supervisor.spawns" "count" Lower;
    layer "supervisor.redispatches" "count" Lower;
    layer "supervisor.stale_frames" "count" Lower;
    (* checkers *)
    layer "phase3.check_s" "s" Lower;
    layer "checker.exception_walk_s" "s" Lower;
    (* the trace itself, and the benchmark's own input generation *)
    layer "trace.unattributed_pct" "%" Lower;
    layer "trace.overhead_pct" "%" Lower;
    layer "bench.gen_s" "s" Lower ]

(* Seconds one benchmark run measures. *)
let run_seconds = 25
