(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) against the four synthetic subjects, plus the ablations
   called out in DESIGN.md and one Bechamel micro-benchmark per table.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table2  -- a single experiment
     dune exec bench/main.exe -- fast    -- skip the slowest comparisons

   Named experiments run in the order they are named; with none named,
   all run in the order of the table at the end of this file.  A sweep
   whose configurations report different warnings makes the harness exit
   1 once that experiment finishes.

   Absolute numbers are not expected to match the paper (the subjects are
   scaled-down synthetic codebases); the *shapes* are: who finds what, the
   false-positive rate, cache hit rates, the cost breakdown, and the naive
   string-constraint engine needing far more partitions/iterations.        *)

module Pipeline = Grapple.Pipeline
module Generator = Workload.Generator
module Scoring = Workload.Scoring
module Icfet = Symexec.Icfet
module E = Pathenc.Encoding

let root_workdir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "grapple-bench-%d" (Unix.getpid ()))

(* Every engine's workdir lies under the root, so removing it at exit
   leaves nothing behind.  Shard workers leave by [Unix._exit], which runs
   no [at_exit] handler. *)
let () =
  at_exit (fun () ->
      if Sys.file_exists root_workdir then
        try Engine.remove_tree root_workdir
        with Sys_error _ | Unix.Unix_error _ -> ())

(* A workdir of its own for every engine the harness creates. *)
let fresh_workdir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat root_workdir (Printf.sprintf "run-%d" !n)

let line = String.make 78 '-'

let header title paper =
  Printf.printf "\n%s\n%s\n(paper: %s)\n%s\n" line title paper line

let hms seconds =
  let s = int_of_float seconds in
  if s >= 3600 then
    Printf.sprintf "%02dh%02dm%02ds" (s / 3600) (s mod 3600 / 60) (s mod 60)
  else if s >= 60 then Printf.sprintf "%02dm%02ds" (s / 60) (s mod 60)
  else Printf.sprintf "%.1fs" seconds

let name (s : Generator.subject) = s.Generator.profile.Generator.name

(* The smallest subject alone under [fast], else all four. *)
let subjects ~fast =
  let all = Generator.all_subjects () in
  if fast then [ List.hd all ] else all

(* ------------------------------------------------------------------ *)
(* The harness: [run] executes one pipeline configuration, and          *)
(* [differential] sweeps several and compares their reports.            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  results : (string * Grapple.Report.t list) list;
  stats : Pipeline.stats;
  prepare_s : float;  (* phases 0/1 *)
  check_s : float;  (* phases 2/3 *)
}

let wall o = o.prepare_s +. o.check_s

let warns o = List.fold_left (fun n (_, rs) -> n + List.length rs) 0 o.results

let config_of ~workdir tune =
  tune
    { (Pipeline.default_config ~workdir) with
      Pipeline.library_throwers = Checkers.Specs.library_throwers }

(* Prepare subject [s] for [checkers] under the default config as [tune]
   overrides it, and check it, all with the fault plan [plan] installed. *)
let run ?(checkers = Checkers.all ()) ?plan (s : Generator.subject) tune =
  let workdir = fresh_workdir () in
  let config =
    { (config_of ~workdir tune) with
      Pipeline.prefilter_properties = Checkers.fsms checkers }
  in
  Option.iter (fun p -> Engine.Faults.install (Engine.Faults.parse p)) plan;
  Fun.protect ~finally:Engine.Faults.clear (fun () ->
      let t0 = Unix.gettimeofday () in
      let prepared = Pipeline.prepare ~config ~workdir s.Generator.program in
      let t1 = Unix.gettimeofday () in
      let results, props, _ = Checkers.run_all_scheduled prepared checkers in
      let t2 = Unix.gettimeofday () in
      { results;
        stats = Pipeline.stats prepared props;
        prepare_s = t1 -. t0;
        check_s = t2 -. t1 })

(* One configuration of a sweep: a row label, a config override and an
   optional fault plan. *)
type cell = {
  label : string;
  tune : Pipeline.config -> Pipeline.config;
  plan : string option;
}

(* The off/on cells of a triage-tier toggle. *)
let toggle set =
  [ { label = "off"; tune = set false; plan = None };
    { label = "on"; tune = set true; plan = None } ]

let render_results results =
  results
  |> List.concat_map (fun (name, rs) ->
         List.map (fun r -> name ^ " " ^ Grapple.Report.to_json r) rs)
  |> String.concat "\n"

(* Set by a sweep whose cells report different warnings; the harness
   exits 1 once the experiment that set it finishes. *)
let diverged = ref false

(* Run every cell on every subject and print one row per pair, in order:
   [columns subject cell outcome ~base] renders the row up to its last
   column, "same", which says whether the cell's rendered reports are
   byte-identical to those of the subject's first cell, [base].  Returns
   the outcomes in row order. *)
let differential ?checkers subjects cells columns =
  List.concat_map
    (fun s ->
      let outcomes =
        List.map (fun c -> (c, run ?checkers ?plan:c.plan s c.tune)) cells
      in
      let base = snd (List.hd outcomes) in
      let reports = render_results base.results in
      List.map
        (fun (c, o) ->
          let same = render_results o.results = reports in
          if not same then diverged := true;
          Printf.printf "%s %6s\n%!" (columns s c o ~base)
            (if same then "yes" else "NO!");
          o)
        outcomes)
    subjects

(* Ground-truth TP/FP/FN of [results], summed over its checkers. *)
let score (subject : Generator.subject) results =
  List.fold_left
    (fun (tp, fp, fn) (checker, reports) ->
      let s =
        Scoring.score ~allow_empty:true ~checker
          ~expected:subject.Generator.expected ~reports ()
      in
      (tp + s.Scoring.tp, fp + s.Scoring.fp, fn + s.Scoring.fn))
    (0, 0, 0) results

let edges_per_s (s : Pipeline.stats) =
  if s.Pipeline.compute_s > 0. then
    float_of_int s.Pipeline.edges_added /. s.Pipeline.compute_s
  else 0.

(* ------------------------------------------------------------------ *)
(* Shared subject runs: one pipeline execution feeds Tables 1-3 + Fig 9. *)
(* ------------------------------------------------------------------ *)

(* The summary pre-filter is off here, as when BENCH_c80089d.json was
   recorded: CI compares edges/s against it. *)
let no_summary c = { c with Pipeline.summary_prefilter = false }

let shared_runs =
  lazy
    (Printf.printf
       "running the four subjects (shared by tables 1-3, fig 9)...\n%!";
     List.map
       (fun s ->
         let o = run s no_summary in
         Printf.printf "  %-12s done in %.1fs\n%!" (name s) (wall o);
         (s, o))
       (Generator.all_subjects ()))

(* ------------------------------------------------------------------ *)
(* Table 1: subject characteristics.                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: characteristics of subject programs"
    "ZooKeeper 206K / Hadoop 568K / HDFS 546K / HBase 1.37M LoC";
  Printf.printf "%-12s %8s %9s %9s  %s\n" "Subject" "LoC" "#Methods"
    "#Planted" "Description";
  List.iter
    (fun (s : Generator.subject) ->
      Printf.printf "%-12s %8d %9d %9d  %s\n" (name s) s.Generator.loc
        s.Generator.n_methods
        (List.length s.Generator.expected)
        s.Generator.profile.Generator.description)
    (Generator.all_subjects ());
  print_endline
    "\nshape check: hbase is the largest subject, zookeeper the smallest."

(* ------------------------------------------------------------------ *)
(* Table 2: bugs reported per checker, scored against ground truth.     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2: warnings per checker (TP / FP; FN = missed injections)"
    "376 warnings total, 17 false positives (4.7% FP rate)";
  Printf.printf "%-12s" "Subject";
  List.iter (fun c -> Printf.printf " | %-10s" c)
    [ "io"; "lock"; "except."; "socket" ];
  Printf.printf " | %-10s\n" "total";
  let grand_tp = ref 0 and grand_fp = ref 0 and grand_fn = ref 0 in
  List.iter
    (fun (s, o) ->
      Printf.printf "%-12s" (name s);
      List.iter
        (fun result ->
          let tp, fp, _ = score s [ result ] in
          Printf.printf " | TP%2d FP%2d" tp fp)
        o.results;
      let tp, fp, fn = score s o.results in
      grand_tp := !grand_tp + tp;
      grand_fp := !grand_fp + fp;
      grand_fn := !grand_fn + fn;
      Printf.printf " | TP%2d FP%2d\n" tp fp)
    (Lazy.force shared_runs);
  let fp_rate =
    if !grand_tp + !grand_fp = 0 then 0.
    else 100. *. float_of_int !grand_fp /. float_of_int (!grand_tp + !grand_fp)
  in
  Printf.printf
    "\ntotals: TP=%d FP=%d FN=%d  (FP rate %.1f%%; paper: 4.7%%)\n" !grand_tp
    !grand_fp !grand_fn fp_rate;
  print_endline
    "shape check: exception handling dominates, lock bugs are rare (one, in\n\
     hdfs), every injected bug is found, false positives are rare.\n\
     (planted null bugs are scored by the extension checker, below)";
  (* extension: the null-dereference checker, which tracks every [= null]
     pseudo-allocation, so it runs apart from the paper's four *)
  header "Extension: null-dereference checker"
    "not a paper column; evidence the system takes new FSM properties (S1.2)";
  Printf.printf "%-12s %4s %4s %4s\n" "Subject" "TP" "FP" "FN";
  List.iter
    (fun subject ->
      let o =
        run ~checkers:[ Checkers.resolve "null" ] subject no_summary
      in
      let tp, fp, fn = score subject o.results in
      Printf.printf "%-12s %4d %4d %4d\n" (name subject) tp fp fn)
    (Generator.all_subjects ())

(* ------------------------------------------------------------------ *)
(* Table 3: performance statistics.                                     *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: graph sizes and running times"
    "#V, #E before/after, preprocessing/computation/total time";
  Printf.printf "%-12s %9s %9s %9s %9s %9s %9s\n" "Subject" "#V(K)" "#EB(K)"
    "#EA(K)" "PT" "CT" "TT";
  List.iter
    (fun (subject, o) ->
      let s = o.stats in
      Printf.printf "%-12s %9.1f %9.1f %9.1f %9s %9s %9s\n" (name subject)
        (float_of_int s.Pipeline.n_vertices /. 1000.)
        (float_of_int s.Pipeline.n_edges_before /. 1000.)
        (float_of_int s.Pipeline.n_edges_after /. 1000.)
        (hms s.Pipeline.preprocess_s)
        (hms s.Pipeline.compute_s) (hms (wall o)))
    (Lazy.force shared_runs);
  print_endline
    "\nshape check: computation adds a large fraction of transitive edges\n\
     (#EA > #EB) and computation time dominates preprocessing."

(* ------------------------------------------------------------------ *)
(* Figure 9: cost breakdown.                                            *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header "Figure 9: performance breakdown (percent of total)"
    "I/O 1-4%, constraint lookup <1%, SMT solving 33-90%, edge comp. 9-63%";
  Printf.printf "%-12s %8s %12s %12s %12s\n" "Subject" "I/O" "Constraint"
    "SMT" "EdgeComp";
  List.iter
    (fun (s, o) ->
      let pct component =
        match List.assoc_opt component o.stats.Pipeline.breakdown with
        | Some p -> p
        | None -> 0.
      in
      Printf.printf "%-12s %7.1f%% %11.1f%% %11.1f%% %11.1f%%\n" (name s)
        (pct "I/O") (pct "Constraint lookup") (pct "SMT solving")
        (pct "Edge computation"))
    (Lazy.force shared_runs);
  print_endline
    "\nshape check: SMT solving and edge computation dominate; constraint\n\
     encoding/decoding is cheap thanks to the interval representation."

(* ------------------------------------------------------------------ *)
(* Table 4: constraint-cache effectiveness.                             *)
(* ------------------------------------------------------------------ *)

let table4 ~fast () =
  header "Table 4: effectiveness of constraint memoization"
    "hit rates 60-78%, caching saves 64-87% of solving time";
  Printf.printf "%-12s %10s %10s %7s %9s %9s %8s\n" "Subject" "#Lookups"
    "#Hits" "Rate" "TOC(s)" "TWC(s)" "Saving";
  List.iter
    (fun subject ->
      let stats cache_enabled =
        let cache c =
          { c with
            Pipeline.summary_prefilter = false;
            engine = { c.Pipeline.engine with Engine.cache_enabled } }
        in
        (run subject cache).stats
      in
      let with_cache = stats true in
      let without_cache = stats false in
      let rate =
        if with_cache.Pipeline.cache_lookups = 0 then 0.
        else
          100.
          *. float_of_int with_cache.Pipeline.cache_hits
          /. float_of_int with_cache.Pipeline.cache_lookups
      in
      let toc = without_cache.Pipeline.solve_s in
      let twc = with_cache.Pipeline.solve_s in
      let saving = if toc > 0. then 100. *. (1. -. (twc /. toc)) else 0. in
      Printf.printf "%-12s %10d %10d %6.1f%% %9.2f %9.2f %7.1f%%\n"
        (name subject) with_cache.Pipeline.cache_lookups
        with_cache.Pipeline.cache_hits rate toc twc saving)
    (subjects ~fast);
  print_endline
    "\nshape check: most lookups hit the cache (edges in the same scope share\n\
     paths) and caching saves the majority of constraint-solving time."

(* ------------------------------------------------------------------ *)
(* Table 5: vs. the string-constraint engine.                           *)
(* ------------------------------------------------------------------ *)

module SEngine = Baseline.String_engine.Make (Cfl.Pointer_grammar)
module AEngine = Engine.Make (Cfl.Pointer_grammar)

(* alias-phase comparison under the same memory budget, expressed as ~40
   bytes per interval-encoded edge *)
let table5_budget_edges = 30_000

let alias_graph_of (subject : Generator.subject) =
  let program = Jir.Unroll.unroll_program ~bound:2 subject.Generator.program in
  let icfet = Icfet.build program in
  let cg = Jir.Callgraph.build program in
  let clones = Graphgen.Clone_tree.build icfet cg in
  let ag = Graphgen.Alias_graph.build icfet clones in
  (icfet, ag)

type closure = { parts : int; pairs : int; solved : int; closure_s : float }

(* Phase 1 alone: the alias closure of [alias_graph_of]'s graph, spilling
   partitions of at most [budget] edges to disk. *)
let alias_closure ~budget (icfet, ag) =
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.max_edges_per_partition = budget }
  in
  let g =
    AEngine.create ~config ~decode:(Icfet.constraint_of icfet) ~workdir ()
  in
  Graphgen.Alias_graph.iter_edges ag (fun e ->
      AEngine.add_seed g ~src:e.Graphgen.Alias_graph.src
        ~dst:e.Graphgen.Alias_graph.dst ~label:e.Graphgen.Alias_graph.label
        ~enc:e.Graphgen.Alias_graph.enc);
  let t0 = Unix.gettimeofday () in
  AEngine.run g;
  let closure_s = Unix.gettimeofday () -. t0 in
  let m = AEngine.metrics g in
  let c =
    { parts = AEngine.n_partitions g;
      pairs = Engine.Metrics.count m.Engine.Metrics.pairs_processed;
      solved = Engine.Metrics.count m.Engine.Metrics.constraints_solved;
      closure_s }
  in
  AEngine.cleanup g;
  c

let table5 ~fast () =
  header "Table 5: Grapple vs. naive string-constraint engine (alias phase)"
    "naive needs ~10x partitions, more iterations, times out on the largest";
  Printf.printf "%-12s | %25s | %25s\n" "" "Grapple" "naive (strings)";
  Printf.printf "%-12s | %5s %5s %7s %5s | %5s %5s %7s %5s\n" "Subject" "#part"
    "#iter" "#const" "time" "#part" "#iter" "#const" "time";
  List.iter
    (fun subject ->
      let icfet, ag = alias_graph_of subject in
      let g = alias_closure ~budget:table5_budget_edges (icfet, ag) in
      (* naive engine: same budget in bytes *)
      let sw = fresh_workdir () in
      let scfg =
        { (Baseline.String_engine.default_config ~workdir:sw) with
          Baseline.String_engine.max_bytes_per_partition =
            table5_budget_edges * 40 }
      in
      let s = SEngine.create ~config:scfg ~workdir:sw () in
      Graphgen.Alias_graph.iter_edges ag (fun e ->
          SEngine.add_seed s ~src:e.Graphgen.Alias_graph.src
            ~dst:e.Graphgen.Alias_graph.dst ~label:e.Graphgen.Alias_graph.label
            ~cstr:
              (Smt.Formula.to_string
                 (Icfet.constraint_of icfet e.Graphgen.Alias_graph.enc)));
      let t0 = Unix.gettimeofday () in
      SEngine.run s;
      let s_time = Unix.gettimeofday () -. t0 in
      let sm = SEngine.stats s in
      Printf.printf "%-12s | %5d %5d %7d %5s | %5d %5d %7d %5s\n"
        (name subject) g.parts g.pairs g.solved (hms g.closure_s)
        sm.Baseline.String_engine.n_partitions
        sm.Baseline.String_engine.iterations
        sm.Baseline.String_engine.constraints_solved (hms s_time);
      SEngine.cleanup s)
    (subjects ~fast);
  print_endline
    "\nshape check: under the same memory budget the string engine needs more\n\
     partitions and iterations and pays parse-before-solve on every\n\
     constraint check."

(* ------------------------------------------------------------------ *)
(* §5.3: the traditional in-memory implementation runs out of memory.   *)
(* ------------------------------------------------------------------ *)

let oom () =
  header "Comparison (§5.3): traditional in-memory worklist implementation"
    "ran out of memory on every subject";
  (* apples-to-apples: both implementations get the same memory.  The
     engine's residency is bounded by two loaded partitions; the worklist
     must hold the whole graph plus explicit constraint objects.  The paper
     makes the same comparison at 16 GB scale. *)
  let partition_budget_edges = 2_000 in
  let bytes_per_edge = 150 in
  let shared_budget = 2 * partition_budget_edges * bytes_per_edge in
  Printf.printf "shared memory budget: %d KB (two engine partitions)\n\n"
    (shared_budget / 1024);
  Printf.printf "%-12s %22s | %32s\n" "" "Grapple engine" "in-memory worklist";
  Printf.printf "%-12s %10s %11s | %14s %12s %9s\n" "Subject" "outcome"
    "#partitions" "outcome" "peak bytes" "time";
  List.iter
    (fun subject ->
      let icfet, ag = alias_graph_of subject in
      (* the engine under the same budget: spills to disk and completes *)
      let g = alias_closure ~budget:partition_budget_edges (icfet, ag) in
      let r =
        Baseline.Worklist.run
          ~config:
            { Baseline.Worklist.memory_budget_bytes = shared_budget;
              max_seconds = 120. }
          icfet ag
      in
      Printf.printf "%-12s %10s %11d | %14s %12d %9s\n" (name subject)
        "completed" g.parts
        (match r.Baseline.Worklist.outcome with
        | Baseline.Worklist.Completed -> "completed"
        | Baseline.Worklist.Ran_out_of_memory -> "OUT OF MEMORY")
        r.Baseline.Worklist.peak_bytes
        (hms r.Baseline.Worklist.elapsed_s))
    (Generator.all_subjects ());
  print_endline
    "\nshape check: with the memory that suffices for Grapple's two-partition\n\
     residency, the in-memory implementation (whole graph + explicit\n\
     constraint objects) exhausts its budget on every subject while the\n\
     out-of-core engine completes by spilling partitions to disk."

(* ------------------------------------------------------------------ *)
(* Summary pre-filter side-by-side: the interprocedural summary       *)
(* triage on vs. off.  It must prune instances with zero change in    *)
(* reported warnings (TP and FP identical).                           *)
(* ------------------------------------------------------------------ *)

let summaries () =
  header "Summary pre-filter: interprocedural typestate triage (on vs off)"
    "sound pipeline triage ablation";
  Printf.printf "%-10s %4s %8s %9s %6s %6s %6s %6s %8s %6s\n" "subject"
    "sf" "|V|" "#EA" "#sum" "TP" "FP" "warns" "time" "same";
  differential (Generator.all_subjects ())
    (toggle (fun on c -> { c with Pipeline.summary_prefilter = on }))
    (fun subject cell o ~base:_ ->
      let s = o.stats in
      let tp, fp, _ = score subject o.results in
      Printf.sprintf "%-10s %4s %8d %9d %6d %6d %6d %6d %8s"
        (name subject) cell.label s.Pipeline.n_vertices
        s.Pipeline.n_edges_after s.Pipeline.n_summary_pruned tp fp (warns o)
        (hms (wall o)))
  |> ignore;
  print_endline
    "\nshape check: the summary stage prunes instances (#sum > 0) with\n\
     identical warnings and TP/FP."

(* ------------------------------------------------------------------ *)
(* Points-to side-by-side: the Andersen analysis and the              *)
(* closure-graph slicer it feeds, on vs. off.  The slicer must drop   *)
(* alias edges before phase 1 with zero change in reported warnings;  *)
(* the pointsto lints must catch planted heap-flow bugs.              *)
(* ------------------------------------------------------------------ *)

let alias () =
  header "Points-to slicer: Andersen analysis (on vs off)"
    "closure-graph slicing ablation";
  Printf.printf "%-10s %4s %9s %9s %6s %8s %6s %8s %6s\n" "subject" "ap"
    "|E|pre" "|E|after" "#sum" "sliced" "warns" "time" "same";
  differential (Generator.all_subjects ())
    (toggle (fun on c -> { c with Pipeline.alias_prefilter = on }))
    (fun subject cell o ~base:_ ->
      let s = o.stats in
      Printf.sprintf "%-10s %4s %9d %9d %6d %8d %6d %8s" (name subject)
        cell.label s.Pipeline.n_edges_presliced s.Pipeline.n_edges_after
        s.Pipeline.n_summary_pruned s.Pipeline.n_edges_sliced (warns o)
        (hms (wall o)))
  |> ignore;
  print_endline
    "\nshape check: the slicer drops alias edges before phase 1\n\
     (sliced > 0), with identical warnings.";
  (* the pointsto lint surface, scored against the planted heap-flow bugs
     the intraprocedural linter cannot see *)
  header "Whole-program lints (grapple lint --interproc, pointsto)"
    "heap-flow findings beyond the intraprocedural linter";
  Printf.printf "%-12s %18s %18s\n" "subject" "pointsto TP/FP/FN"
    "intraproc TP";
  List.iter
    (fun (subject : Generator.subject) ->
      let program = subject.Generator.program in
      let score_lints diags =
        Scoring.score_lints ~allow_empty:true ~checker:"pointsto"
          ~expected:subject.Generator.expected diags
      in
      let pt = Analysis.Pointsto.analyze program in
      let ls = score_lints (Analysis.Pointsto.diags pt) in
      let intra = score_lints (Analysis.Lint.check_program program) in
      Printf.printf "%-12s %11d/%2d/%2d %18d\n" (name subject) ls.Scoring.ltp
        ls.Scoring.lfp ls.Scoring.lfn intra.Scoring.ltp)
    (Generator.all_subjects ());
  print_endline
    "\nshape check: every planted heap-flow bug is found by the pointsto\n\
     lints (TP >= 1 where planted, FN = 0) and by none of the\n\
     intraprocedural ones (intraproc TP = 0)."

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md): unroll bound, partition budget, and path      *)
(* sensitivity.                                                         *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: loop unroll bound k (minizk)" "design choice, §3.1";
  Printf.printf "%3s %8s %8s %8s %8s\n" "k" "TP" "FN" "#EA(K)" "time";
  let subject = Generator.mini_zookeeper () in
  List.iter
    (fun k ->
      let o =
        run subject (fun c ->
            { c with Pipeline.unroll_bound = k; summary_prefilter = false })
      in
      let tp, _, fn = score subject o.results in
      Printf.printf "%3d %8d %8d %8.1f %8s\n" k tp fn
        (float_of_int o.stats.Pipeline.n_edges_after /. 1000.)
        (hms (wall o)))
    [ 1; 2; 3 ];
  header "Ablation: partition memory budget (minizk, alias phase)"
    "out-of-core mechanics, §4.3";
  Printf.printf "%10s %8s %8s %8s\n" "budget" "#part" "#iter" "time";
  let graph = alias_graph_of subject in
  List.iter
    (fun budget ->
      let g = alias_closure ~budget graph in
      Printf.printf "%10d %8d %8d %8s\n" budget g.parts g.pairs
        (hms g.closure_s))
    [ 1_000; 5_000; 50_000 ];
  print_endline
    "\nshape check: smaller budgets mean more partitions and more iterations\n\
     for the same final result (the out-of-core trade).";
  header "Ablation: path sensitivity off (Graspan-style closure)"
    "the motivation of the whole paper: without path sensitivity the checker\n\
     over-approximates and reports bugs on infeasible paths (S2)";
  Printf.printf "%-12s %-18s %6s %6s %6s\n" "Subject" "mode" "TP" "FP" "FN";
  List.iter
    (fun subject ->
      List.iter
        (fun feasibility_enabled ->
          (* typestate checkers only: the exception walk does its own
             feasibility checking independent of the engine flag *)
          let o =
            run
              ~checkers:(List.map Checkers.resolve [ "io"; "lock"; "socket" ])
              subject
              (fun c ->
                { c with
                  Pipeline.summary_prefilter = false;
                  engine =
                    { c.Pipeline.engine with Engine.feasibility_enabled } })
          in
          let tp, fp, fn = score subject o.results in
          Printf.printf "%-12s %-18s %6d %6d %6d\n" (name subject)
            (if feasibility_enabled then "path-sensitive" else "insensitive")
            tp fp fn)
        [ true; false ])
    [ Generator.mini_zookeeper (); Generator.mini_hdfs () ];
  print_endline
    "\nshape check: turning path sensitivity off keeps the true positives but\n\
     adds false positives on the planted infeasible-path decoys -- the\n\
     Graspan-vs-Grapple precision gap the paper is built on."

(* ------------------------------------------------------------------ *)
(* Fault injection (robustness extension): the full pipeline under      *)
(* seeded storage-fault rates.  Warnings must be identical to the       *)
(* fault-free run at every rate -- recovery is retries + checkpoint     *)
(* resume, never silent data loss -- and the overhead column is the     *)
(* price paid for that redundant work.                                  *)
(* ------------------------------------------------------------------ *)

let faults () =
  header "Fault injection: recovery overhead at increasing fault rates"
    "robustness extension, not a paper experiment";
  Printf.printf "%-10s %6s %8s %9s %8s %8s %7s %6s\n" "subject" "rate" "time"
    "overhead" "#inject" "#retry" "#incon" "same";
  (* at the default budget every engine runs one partition and writes it
     twice, so a plan has almost no storage operations to fail; the ledger's
     out-of-core budget gives it hundreds *)
  let tune c =
    { c with
      Pipeline.summary_prefilter = false;
      engine =
        { c.Pipeline.engine with Engine.max_edges_per_partition = 4_000 } }
  in
  differential (Generator.all_subjects ())
    (List.map
       (fun rate ->
         { label = Printf.sprintf "%.0f%%" (100. *. rate);
           tune;
           plan =
             (if rate > 0. then Some (Printf.sprintf "seed=11,rate=%g" rate)
              else None) })
       [ 0.; 0.01; 0.05; 0.10 ])
    (fun subject cell o ~base ->
      let s = o.stats in
      let overhead =
        if wall base > 0. then 100. *. ((wall o /. wall base) -. 1.) else 0.
      in
      Printf.sprintf "%-10s %6s %8s %8.1f%% %8d %8d %7d" (name subject)
        cell.label (hms (wall o)) overhead s.Pipeline.n_faults_injected
        s.Pipeline.n_retried s.Pipeline.n_inconclusive)
  |> ignore;
  print_endline
    "\nshape check: warnings are identical at every fault rate (same = yes,\n\
     #incon = 0); overhead grows with the rate and is dominated by the\n\
     re-execution the op-level retries and checkpoint resumes perform."

(* ------------------------------------------------------------------ *)
(* Shard processes: the supervised multi-process runtime (robustness    *)
(* extension).  Phase-2/3 instances run in forked, crash-isolated       *)
(* worker processes; warnings must be identical to the in-process run   *)
(* at every process count, with and without an injected fault plan,     *)
(* and with a worker SIGKILLed mid-run (re-dispatch).                   *)
(* ------------------------------------------------------------------ *)

let shards ~fast () =
  header "Shard processes: crash-isolated multi-process scheduler"
    "robustness extension, not a paper experiment";
  Printf.printf "%-10s %-6s %7s %8s %9s %7s %6s %7s %5s %6s\n" "subject"
    "plan" "procs" "time" "warnings" "#inject" "spawns" "redisp" "kills"
    "same";
  (* the last cell of each plan adds [kill-worker=2], which SIGKILLs the
     worker of the 2nd dispatch: the instance is re-dispatched and the
     output must not change.  Every cell runs at the [faults] budget, so
     the 5% plan has partition writes and renames to fail *)
  let tune shard_procs c =
    { c with
      Pipeline.summary_prefilter = false;
      shard_procs;
      engine =
        { c.Pipeline.engine with Engine.max_edges_per_partition = 4_000 } }
  in
  let cells =
    List.concat_map
      (fun (tag, plan) ->
        let killing =
          Some (String.concat "," (Option.to_list plan @ [ "kill-worker=2" ]))
        in
        List.map
          (fun (procs_label, shard_procs, plan) ->
            { label = Printf.sprintf "%-6s %7s" tag procs_label;
              tune = tune shard_procs;
              plan })
          [ ("inproc", 0, plan); ("1", 1, plan); ("2", 2, plan);
            ("4", 4, plan); ("2+kill", 2, killing) ])
      [ ("none", None); ("5%", Some "seed=11,rate=0.05") ]
  in
  differential ~checkers:(Checkers.all_with_null ()) (subjects ~fast) cells
    (fun subject cell o ~base:_ ->
      let count c =
        Obs.Registry.value (Obs.Registry.counter o.stats.Pipeline.registry c)
      in
      Printf.sprintf "%-10s %s %8s %9d %7d %6d %7d %5d" (name subject)
        cell.label (hms o.check_s) (warns o) o.stats.Pipeline.n_faults_injected
        (count "supervisor.spawns")
        (count "supervisor.redispatches")
        (count "supervisor.kills"))
  |> ignore;
  print_endline
    "\nshape check: warnings identical at every process count, under the\n\
     fault plan (#inject > 0, the same at every count), and with a worker\n\
     killed mid-run (same = yes everywhere; the kill row shows kills > 0\n\
     and redisp > 0 with unchanged output).  One process per dispatch:\n\
     spawns = instances + redisp."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table/figure.              *)
(* ------------------------------------------------------------------ *)

let micro () =
  header
    "Micro-benchmarks (Bechamel): the dominant kernel of each table, the \
     engine's partition load, the JIR frontend and the dataflow graph's \
     construction"
    "n/a -- engineering sanity checks";
  let open Bechamel in
  (* table 1 kernel: subject generation *)
  let t1 =
    Test.make ~name:"table1/generate-subject"
      (Staged.stage (fun () ->
           ignore
             (Generator.generate
                { Generator.name = "bench"; description = ""; seed = 1;
                  layers = 2; classes_per_layer = 1; methods_per_class = 2;
                  patterns_per_method = 1; calls_per_method = 1;
                  bugs = [ ("io", 1) ]; lint_bugs = [];
                  loops_per_subject = 0 })))
  in
  (* table 2 kernel: FSM typestate run *)
  let fsm = Checkers.fsm "io" in
  let t2 =
    Test.make ~name:"table2/fsm-sequence-check"
      (Staged.stage (fun () ->
           ignore
             (Fsm.check_sequence fsm [ "write"; "write"; "close"; "write" ])))
  in
  (* table 3 kernel: SMT solving of a path-like conjunction *)
  let x = Smt.Linexpr.var (Smt.Symbol.intern "bx") in
  let y = Smt.Linexpr.var (Smt.Symbol.intern "by") in
  let path_constraint =
    Smt.Formula.conj
      [ Smt.Formula.ge x (Smt.Linexpr.const 0);
        Smt.Formula.eq y (Smt.Linexpr.sub x (Smt.Linexpr.const 1));
        Smt.Formula.gt y (Smt.Linexpr.const 0);
        Smt.Formula.le x (Smt.Linexpr.const 100) ]
  in
  let t3 =
    Test.make ~name:"table3/smt-solve"
      (Staged.stage (fun () -> ignore (Smt.Solver.check path_constraint)))
  in
  (* table 4 kernel: LRU hit, keyed like the engine's cache by canonical
     encoding wire bytes *)
  let cache = Engine.Lru.create 1024 in
  let key = E.to_bytes [ E.Interval { meth = 0; first = 0; last = 6 } ] in
  Engine.Lru.add cache key true;
  let t4 =
    Test.make ~name:"table4/lru-lookup"
      (Staged.stage (fun () -> ignore (Engine.Lru.find cache key)))
  in
  (* table 5 kernel: string constraint parse, the naive engine's extra cost *)
  let cstr = "((bx <= 0 & 1 - by <= 0) & (bx - by = 0 | bx <= 0))" in
  let t5 =
    Test.make ~name:"table5/string-parse"
      (Staged.stage (fun () -> ignore (Baseline.Formula_parser.parse cstr)))
  in
  (* fig 9 kernel: encoding compose + normalize *)
  let e1 =
    [ E.Interval { meth = 0; first = 0; last = 2 }; E.Call 3;
      E.Interval { meth = 1; first = 0; last = 0 } ]
  in
  let e2 =
    [ E.Interval { meth = 1; first = 0; last = 5 }; E.Ret 3;
      E.Interval { meth = 0; first = 2; last = 6 } ]
  in
  let f9 =
    Test.make ~name:"fig9/encoding-compose"
      (Staged.stage (fun () -> ignore (E.compose_normalized e1 e2)))
  in
  (* engine kernel: read one 50K-edge partition file, written once here,
     and build its key table — the work of every partition load *)
  let dir = fresh_workdir () in
  Engine.ensure_dir dir;
  let path = Filename.concat dir "micro.edges" in
  let () =
    let buf = Engine.Edgebuf.create ~capacity:50_000 () in
    let rng = Random.State.make [| 7 |] in
    for i = 0 to 49_999 do
      Engine.Edgebuf.push_edge buf ~src:(i / 4) ~dst:(i * 7 mod 12_500)
        ~label:(Random.State.int rng 6)
        [ E.Interval
            { meth = Random.State.int rng 50; first = 0;
              last = Random.State.int rng 20 } ]
    done;
    ignore (Engine.Storage.write_flat ~path buf : int)
  in
  let load =
    Test.make ~name:"engine/partition-load"
      (Staged.stage (fun () ->
           let buf = (Engine.Storage.read_flat ~path).Engine.Storage.buf in
           let keys = Engine.Keys.create (Engine.Edgebuf.n buf) in
           ignore (Engine.Keys.build keys buf : bool)))
  in
  (* the block codec alone, on the same file: [read_flat] without the key
     build, and [write_flat] of the buffer it returns *)
  let parse =
    Test.make ~name:"engine/codec-parse"
      (Staged.stage (fun () ->
           ignore
             (Engine.Storage.read_flat ~path : Engine.Storage.flat_outcome)))
  in
  let written = (Engine.Storage.read_flat ~path).Engine.Storage.buf in
  let write_path = Filename.concat dir "micro-write.edges" in
  let write =
    Test.make ~name:"engine/codec-write"
      (Staged.stage (fun () ->
           ignore (Engine.Storage.write_flat ~path:write_path written : int)))
  in
  (* frontend kernel: lex, parse and resolve a small megaload subject's
     text, printed once here *)
  let jir_text =
    Jir.Pp.program_to_string
      (Generator.mega_100k ~units:24 ()).Generator.program
  in
  let jir =
    Test.make ~name:"jir/parse"
      (Staged.stage (fun () ->
           ignore (Jir.Resolve.parse_exn ~file:"mega.jir" jir_text)))
  in
  (* phase-2 kernel: [Dataflow_graph.build] for [io] on minihdfs,
     prepared once here, into a fresh seed buffer per run *)
  let io = Checkers.fsm "io" in
  let prepared =
    let workdir = fresh_workdir () in
    let config =
      config_of ~workdir (fun c ->
          { c with Pipeline.prefilter_properties = [ io ] })
    in
    Pipeline.prepare ~config ~workdir (Generator.mini_hdfs ()).Generator.program
  in
  let dataflow =
    Test.make ~name:"graphgen/dataflow-build"
      (Staged.stage (fun () ->
           ignore
             (Graphgen.Dataflow_graph.build ~seeds:(Engine.Edgebuf.create ())
                prepared.Pipeline.icfet prepared.Pipeline.clones
                prepared.Pipeline.alias_graph prepared.Pipeline.flows io
               : Graphgen.Dataflow_graph.t)))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  (* Every kernel gets at least 100 runs, so that its estimate resolves a
     10% change: the sub-millisecond kernels within a 0.5 s quota, the five
     that take milliseconds within 3 s.  The quota also pays for the GC
     compaction before each sample, which dominates the fast kernels'. *)
  let raw = Hashtbl.create 16 in
  List.iter
    (fun (quota, tests) ->
      let cfg =
        Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second quota) ()
      in
      Hashtbl.iter (Hashtbl.replace raw)
        (Benchmark.all cfg instances (Test.make_grouped ~name:"grapple" tests)))
    [ (0.5, [ t1; t2; t3; t4; t5; f9 ]);
      (3., [ load; parse; write; jir; dataflow ]) ];
  Pipeline.cleanup prepared [];
  let runs name =
    Array.fold_left
      (fun n m -> n +. Measurement_raw.run m)
      0. (Hashtbl.find raw name).Benchmark.lr
  in
  List.iter
    (fun instance ->
      let tbl = Analyze.all ols instance raw in
      let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) tbl [] in
      List.iter
        (fun (name, o) ->
          match Analyze.OLS.estimates o with
          | Some [ est ] ->
              Printf.printf "%-34s %14.1f ns/run %8.0f runs\n" name est
                (runs name)
          | _ -> Printf.printf "%-34s (no estimate)\n" name)
        (List.sort compare rows))
    instances

(* ------------------------------------------------------------------ *)
(* Baseline snapshot: a machine-readable performance record per commit.  *)
(* ------------------------------------------------------------------ *)

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | ic ->
      let rev = try String.trim (input_line ic) with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      if status = Unix.WEXITED 0 && rev <> "" then rev else "dev"
  | exception _ -> "dev"

(* Set the top-level [key] of this commit's BENCH_<rev>.json to [json],
   keeping every other key.  Only this function writes the file: one key
   per group of lines, each group starting with a line ["  \"key\": ..."]
   and continued by lines indented at least as deep, so the groups of an
   existing file are found without parsing its JSON. *)
let record key json =
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let lines =
    if Sys.file_exists path then
      String.split_on_char '\n'
        (In_channel.with_open_bin path In_channel.input_all)
    else []
  in
  let groups =
    List.fold_left
      (fun acc l ->
        match acc with
        | _ when String.starts_with ~prefix:"  \"" l -> l :: acc
        | g :: rest when String.starts_with ~prefix:"  " l ->
            (g ^ "\n" ^ l) :: rest
        | _ -> acc)
      [] lines
    |> List.rev_map (fun g ->
           if String.ends_with ~suffix:"," g then
             String.sub g 0 (String.length g - 1)
           else g)
  in
  let key_of g = String.sub g 3 (String.index_from g 3 '"' - 3) in
  let groups =
    if groups = [] then [ Printf.sprintf "  \"rev\": %S" rev ] else groups
  in
  let mine = Printf.sprintf "  %S: %s" key json in
  let groups =
    if List.exists (fun g -> key_of g = key) groups then
      List.map (fun g -> if key_of g = key then mine else g) groups
    else groups @ [ mine ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" groups));
  Printf.printf "recorded %s in %s\n" key path

(* Per-subject wall time, Figure-9 breakdown percentages, cache hit rate,
   and closure throughput (edges added per second of compute).  Comparing
   two such files across commits is the intended regression check. *)
let baseline () =
  header "Baseline: performance snapshot for this commit"
    "regression tracking, not a paper figure";
  let subject_json (subject, o) =
    let s = o.stats in
    let hit_rate =
      if s.Pipeline.cache_lookups = 0 then 0.
      else
        float_of_int s.Pipeline.cache_hits
        /. float_of_int s.Pipeline.cache_lookups
    in
    let breakdown =
      String.concat ","
        (List.map
           (fun (component, pct) -> Printf.sprintf "%S:%.2f" component pct)
           s.Pipeline.breakdown)
    in
    Printf.sprintf
      {|    {"subject":%S,"wall_s":%.3f,"preprocess_s":%.3f,"compute_s":%.3f,"edges_added":%d,"edges_per_s":%.1f,"cache_hit_rate":%.4f,"bytes_read":%d,"bytes_written":%d,"n_edges_presliced":%d,"n_edges_sliced":%d,"breakdown_pct":{%s}}|}
      (name subject) (wall o) s.Pipeline.preprocess_s s.Pipeline.compute_s
      s.Pipeline.edges_added (edges_per_s s) hit_rate s.Pipeline.bytes_read
      s.Pipeline.bytes_written s.Pipeline.n_edges_presliced
      s.Pipeline.n_edges_sliced breakdown
  in
  let runs = Lazy.force shared_runs in
  List.iter
    (fun (subject, o) ->
      Printf.printf "  %-12s wall=%s edges/s=%.0f\n" (name subject)
        (hms (wall o)) (edges_per_s o.stats))
    runs;
  record "subjects"
    (Printf.sprintf "[\n%s\n  ]"
       (String.concat ",\n" (List.map subject_json runs)))

(* ------------------------------------------------------------------ *)
(* DSL checkers: the four spec-defined properties against their         *)
(* dedicated seed-fixed subjects -- per-checker wall time, graph size,  *)
(* pruning, and ground-truth score.  The final row runs the paper's     *)
(* plain exception walk on the try-with-resources subject and scores it *)
(* against the exc_twr ground truth: its FP column is exactly the       *)
(* residual false-positive class the handler-aware walk kills.          *)
(* ------------------------------------------------------------------ *)

let dsl_checkers () =
  header "DSL checkers: spec-defined properties vs ground truth"
    "property DSL extension, not a paper experiment";
  Printf.printf "%-11s %-10s %9s %5s %6s %4s %4s %4s %8s\n" "checker"
    "subject" "|E|after" "#spr" "warns" "TP" "FP" "FN" "time";
  let row label (subject : Generator.subject) (c : Checkers.t) ~score_as =
    let o = run ~checkers:[ c ] subject Fun.id in
    let reports =
      List.concat_map snd o.results
      |> List.map (fun (r : Grapple.Report.t) ->
             { r with Grapple.Report.checker = score_as })
    in
    let s =
      Scoring.score ~checker:score_as ~expected:subject.Generator.expected
        ~reports ()
    in
    Printf.printf "%-11s %-10s %9d %5d %6d %4d %4d %4d %8s\n" label
      (name subject) o.stats.Pipeline.n_edges_after
      o.stats.Pipeline.n_summary_pruned
      (List.length reports) s.Scoring.tp s.Scoring.fp s.Scoring.fn
      (hms (wall o))
  in
  row "lock_order" (Generator.mini_locks ())
    (Checkers.resolve "lock_order") ~score_as:"lock_order";
  row "taint" (Generator.mini_taint ()) (Checkers.resolve "taint")
    ~score_as:"taint";
  row "close" (Generator.mini_close ()) (Checkers.resolve "close")
    ~score_as:"close";
  row "exc_twr" (Generator.mini_twr ()) (Checkers.resolve "exc_twr")
    ~score_as:"exc_twr";
  row "exception*" (Generator.mini_twr ()) (Checkers.resolve "exception")
    ~score_as:"exc_twr";
  Printf.printf
    "(exception* = plain walk scored against the exc_twr ground truth)\n"

(* ------------------------------------------------------------------ *)
(* Megaload: the 100K+-LoC workload tier (ISSUE 9).  One generated      *)
(* mega subject through the full pipeline in-process and at             *)
(* shard-procs {1,4}; asserts the three warning reports are             *)
(* byte-identical and records edges/s, peak RSS, and the triage-tier    *)
(* prune rates into BENCH_<rev>.json.                                   *)
(* ------------------------------------------------------------------ *)

let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go acc =
      match input_line ic with
      | line ->
          let acc =
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              match
                String.split_on_char ' ' line |> List.filter (( <> ) "")
              with
              | _ :: v :: _ -> Option.value ~default:acc (int_of_string_opt v)
              | _ -> acc
            else acc
          in
          go acc
      | exception End_of_file ->
          close_in ic;
          acc
    in
    go 0
  with _ -> 0

let megaload ~fast () =
  header "Megaload: the 100K+-LoC workload tier"
    "checking 1M-LoC codebases on one desktop (SS1, SS5)";
  let units =
    match
      Option.bind (Sys.getenv_opt "GRAPPLE_MEGALOAD_UNITS") int_of_string_opt
    with
    | Some u when u > 0 -> u
    | _ -> if fast then 60 else 400
  in
  Printf.printf "generating mega100k (%d units)...\n%!" units;
  let t0 = Unix.gettimeofday () in
  let subject = Generator.mega_100k ~units () in
  let gen_s = Unix.gettimeofday () -. t0 in
  Printf.printf "  %d LoC, %d methods, %d planted bugs (generated in %s)\n%!"
    subject.Generator.loc subject.Generator.n_methods
    (List.length subject.Generator.expected)
    (hms gen_s);
  let cells =
    List.map
      (fun (label, shard_procs) ->
        { label;
          tune = (fun c -> { c with Pipeline.shard_procs });
          plan = None })
      [ ("in-process", 0); ("shard-procs=1", 1); ("shard-procs=4", 4) ]
  in
  match
    differential [ subject ] cells (fun _ cell o ~base:_ ->
        Printf.sprintf "  %-14s wall=%-8s warnings=%d" cell.label
          (hms (wall o)) (warns o))
  with
  | [ inproc; shard1; shard4 ] ->
      let identical = not !diverged in
      Printf.printf
        "  warnings byte-identical in-process and at shard-procs {1,4}: %s\n"
        (if identical then "yes" else "NO — DIVERGENCE");
      let stats = inproc.stats in
      let rss = peak_rss_kb () in
      Printf.printf
        "  edges/s=%.0f peak_rss=%dMB summary_pruned=%d\n"
        (edges_per_s stats) (rss / 1024) stats.Pipeline.n_summary_pruned;
      record "megaload"
        (Printf.sprintf
           {|{"units":%d,"loc":%d,"n_methods":%d,"gen_s":%.3f,"wall_s_inproc":%.3f,"wall_s_shard1":%.3f,"wall_s_shard4":%.3f,"edges_added":%d,"edges_per_s":%.1f,"peak_rss_kb":%d,"n_summary_pruned":%d,"n_edges_presliced":%d,"n_edges_sliced":%d,"byte_identical":%b}|}
           units subject.Generator.loc subject.Generator.n_methods gen_s
           (wall inproc) (wall shard1) (wall shard4)
           stats.Pipeline.edges_added (edges_per_s stats) rss
           stats.Pipeline.n_summary_pruned stats.Pipeline.n_edges_presliced
           stats.Pipeline.n_edges_sliced identical)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Driver.                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args =
    Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--")
  in
  let fast = List.mem "fast" args in
  let names = List.filter (fun a -> a <> "fast") args in
  Engine.ensure_dir root_workdir;
  let experiments =
    [ ("table1", table1);
      ("table2", table2);
      ("table3", table3);
      ("fig9", fig9);
      ("table4", table4 ~fast);
      ("table5", table5 ~fast);
      ("oom", oom);
      ("ablation", ablation);
      ("summaries", summaries);
      ("alias", alias);
      ("faults", faults);
      ("shards", shards ~fast);
      ("megaload", megaload ~fast);
      ("micro", micro);
      ("checkers", dsl_checkers);
      ("baseline", baseline) ]
  in
  let chosen =
    if names = [] then experiments
    else
      List.map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> (n, f)
          | None ->
              Printf.eprintf "unknown experiment %s\n" n;
              exit 2)
        names
  in
  Printf.printf "grapple benchmark harness -- %d experiment(s)\n"
    (List.length chosen);
  List.iter
    (fun (n, f) ->
      f ();
      if !diverged then begin
        Printf.printf "\n%s: warnings diverged across its configurations\n" n;
        exit 1
      end)
    chosen;
  Printf.printf "\n%s\nall experiments done.\n" line
