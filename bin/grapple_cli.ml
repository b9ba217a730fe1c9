(* Command-line front door: check a JIR source file with the built-in
   property checkers.

     grapple check file.jir --checkers io,lock,exception,socket
     grapple cfet file.jir            (dump the per-method CFETs)
     grapple graph file.jir           (alias-graph statistics)
     grapple closure edges.txt        (standalone grammar-guided closure
                                       over a Graspan-style edge list)    *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  match
    Obs.Trace.with_span ~cat:"jir" "jir.parse" (fun () ->
        Jir.Resolve.parse_exn ~file:(Filename.basename path) (read_file path))
  with
  | p -> p
  | exception Jir.Resolve.Resolve_error errs ->
      List.iter (fun e -> prerr_endline (Jir.Resolve.error_to_string e)) errs;
      exit 2
  | exception Jir.Parser.Parse_error (msg, line) ->
      Printf.eprintf "%s:%d: parse error: %s\n" path line msg;
      exit 2
  | exception Jir.Lexer.Lex_error (msg, line) ->
      Printf.eprintf "%s:%d: lexical error: %s\n" path line msg;
      exit 2

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Run [f] in a throwaway temp workdir, removed once [f] returns.  A run
   that does not return keeps it: an interrupted check exits 130 from
   inside [f] and names the directory for --resume. *)
let with_workdir ~prefix f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let r = f dir in
  remove_tree dir;
  r

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JIR source file")

let checkers_arg =
  Arg.(value & opt (some string) None
       & info [ "checkers" ] ~docv:"LIST"
           ~doc:"comma-separated checker names (built-in, or loaded with \
                 $(b,--spec)), or `all' for the paper's checkers with null \
                 plus every loaded one.  Default: the paper's four \
                 checkers, or the loaded spec's properties when \
                 $(b,--spec) is given")

let spec_arg =
  Arg.(value & opt_all file []
       & info [ "spec" ] ~docv:"FILE"
           ~doc:"load typestate properties from a .gspec file (repeatable); \
                 the loaded checkers run by default and take precedence \
                 over same-named built-ins")

let unroll_arg =
  Arg.(value & opt int 2 & info [ "unroll" ] ~docv:"K" ~doc:"loop unroll bound")

let paths_arg =
  Arg.(value & flag & info [ "paths" ] ~doc:"print the recovered path of each warning")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"write a Chrome trace_event JSON timeline of the run to \
                 FILE (load it in Perfetto or chrome://tracing).  Tracing \
                 only observes the run: warnings and statistics are \
                 byte-identical with and without it")

let metrics_json_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"write the run's full metric registry (counters, timers, \
                 histograms) as JSON to FILE")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"print one JSON report per line (machine-readable)")

(* Checkers loaded from --spec files; a positioned diagnostic exits 2. *)
let load_specs files =
  List.concat_map
    (fun path ->
      match Spec.compile_file path with
      | cs -> List.map Checkers.of_spec cs
      | exception Spec.Spec_error (pos, msg) ->
          prerr_endline (Spec.error_to_string (pos, msg));
          exit 2)
    files

let checker_of_name ~loaded s =
  match Checkers.resolve ~loaded s with
  | c -> c
  | exception Invalid_argument msg ->
      prerr_endline msg;
      exit 2

let checker_names ~loaded spec =
  let names = List.map (fun (c : Checkers.t) -> c.Checkers.name) in
  match spec with
  | None -> if loaded <> [] then names loaded else names (Checkers.all ())
  | Some spec ->
      if String.trim spec = "all" then
        (* loaded checkers shadow same-named built-ins, so drop duplicates
           (first occurrence wins: the report keeps the built-in order) *)
        let all = names (Checkers.all_with_null ()) @ names loaded in
        List.fold_left
          (fun acc n -> if List.mem n acc then acc else n :: acc)
          [] all
        |> List.rev
      else String.split_on_char ',' spec

let no_summary_prefilter_arg =
  Arg.(value & flag
       & info [ "no-summary-prefilter" ]
           ~doc:"disable the interprocedural summary pre-filter; allocations \
                 it would prove unreportable still go through the engine")

let no_alias_prefilter_arg =
  Arg.(value & flag
       & info [ "no-alias-prefilter" ]
           ~doc:"disable the whole-program points-to analysis and the \
                 closure-graph slicer it feeds: no alias edges are sliced.  \
                 The warning report is byte-identical either way")

let workdir_arg =
  Arg.(value & opt (some string) None
       & info [ "workdir" ] ~docv:"DIR"
           ~doc:"working directory for partition files and checkpoint \
                 manifests (default: a fresh temporary directory); keep it \
                 to make a later $(b,--resume) possible")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"DIR"
           ~doc:"resume an interrupted run from DIR's checkpoint manifests, \
                 recomputing only unfinished work; the report is \
                 byte-identical to an uninterrupted run")

let instance_budget_arg =
  Arg.(value & opt float 0.
       & info [ "instance-budget" ] ~docv:"SECONDS"
           ~doc:"wall-clock budget per checking instance and attempt; 0 = \
                 unlimited.  An instance that exhausts it is retried from \
                 its last checkpoint and eventually degraded to an \
                 `inconclusive' report instead of aborting the run")

let edge_budget_arg =
  Arg.(value & opt int 0
       & info [ "edge-budget" ] ~docv:"N"
           ~doc:"transitive-edge budget per checking instance; 0 = \
                 unlimited.  Same retry-then-degrade behaviour as \
                 $(b,--instance-budget)")

let max_retries_arg =
  Arg.(value & opt int 3
       & info [ "max-retries" ] ~docv:"N"
           ~doc:"restarts per checking instance (and retries per storage \
                 operation) before giving up on it")

let fault_plan_arg =
  Arg.(value & opt (some string) None
       & info [ "fault-plan" ] ~docv:"SPEC"
           ~doc:"install a deterministic storage fault plan, e.g. \
                 `seed=7,rate=0.05' or `fail-write=3,crash-checkpoint=2' \
                 (testing the resilience layer; also read from the \
                 GRAPPLE_FAULT_PLAN environment variable)")

let workers_arg =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~docv:"N"
           ~doc:"worker domains for the phase-2/3 checking instances \
                 (default: the GRAPPLE_WORKERS environment variable, else \
                 the machine's recommended domain count).  The report is \
                 byte-identical at every worker count, and a run \
                 interrupted at any count can be $(b,--resume)d at any \
                 other")

let shard_procs_arg =
  Arg.(value & opt (some int) None
       & info [ "shard-procs" ] ~docv:"N"
           ~doc:"run the phase-2/3 checking instances in N supervised \
                 worker $(i,processes) instead of in-process domains \
                 (default: the GRAPPLE_SHARD_PROCS environment variable, \
                 else 0 = in-process).  A worker that crashes, hangs, or \
                 overruns its deadline is killed and its instance \
                 re-dispatched from its checkpoint manifest; the warning \
                 report is byte-identical at every process count")

let heartbeat_ms_arg =
  Arg.(value & opt float 100.
       & info [ "heartbeat-ms" ] ~docv:"MS"
           ~doc:"shard-worker heartbeat period in milliseconds; a worker \
                 silent for too many periods is presumed hung and replaced")

let max_redispatch_arg =
  Arg.(value & opt int 3
       & info [ "max-redispatch" ] ~docv:"N"
           ~doc:"re-dispatches of a checking instance whose shard worker \
                 died before the instance is degraded to an `inconclusive' \
                 report")

let shard_deadline_arg =
  Arg.(value & opt float 0.
       & info [ "shard-deadline" ] ~docv:"SECONDS"
           ~doc:"wall deadline per instance dispatch in shard mode; a \
                 worker that overruns it is killed and the instance \
                 re-dispatched (0 = none)")

let shard_kill_nth_arg =
  Arg.(value & opt int 0
       & info [ "shard-kill-nth" ] ~docv:"N"
           ~doc:"fault injection: SIGKILL the worker receiving the Nth \
                 instance assignment of the run (0 = off); exercises the \
                 re-dispatch path deterministically")

let smt_budget_arg =
  Arg.(value & opt int 0
       & info [ "smt-budget" ] ~docv:"N"
           ~doc:"DPLL(T) round budget per solver call; 0 = the default \
                 (10000).  Exhaustion stays sound: the path is assumed \
                 feasible, counted in the smt-budget-hits stat")

let check_cmd =
  let run file checkers specs unroll paths trace_out metrics_out json
      no_summary_prefilter no_alias_prefilter workdir_opt resume_opt
      instance_budget edge_budget max_retries fault_plan smt_budget workers_opt
      shard_procs_opt heartbeat_ms max_redispatch
      shard_deadline shard_kill_nth =
    let shard_procs =
      match shard_procs_opt with
      | Some n -> max 0 n
      | None -> (
          match
            Option.bind (Sys.getenv_opt "GRAPPLE_SHARD_PROCS") int_of_string_opt
          with
          | Some n -> max 0 n
          | None -> 0)
    in
    (* SIGINT/SIGTERM request a cooperative interrupt: the engine raises at
       its next checkpoint boundary, where the manifest is already durable,
       so an interrupted run is always --resume-able *)
    let on_signal = Sys.Signal_handle (fun _ -> Engine.Interrupt.request ()) in
    (try Sys.set_signal Sys.sigint on_signal with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm on_signal with Invalid_argument _ -> ());
    let workers =
      match workers_opt with
      | Some w -> max 1 w
      | None -> (
          match
            Option.bind (Sys.getenv_opt "GRAPPLE_WORKERS") int_of_string_opt
          with
          | Some w -> max 1 w
          | None -> max 1 (Domain.recommended_domain_count ()))
    in
    (match
       match fault_plan with
       | Some _ -> fault_plan
       | None -> Sys.getenv_opt "GRAPPLE_FAULT_PLAN"
     with
    | Some spec when String.trim spec <> "" ->
        Engine.Faults.install (Engine.Faults.parse spec)
    | _ -> ());
    Smt.Solver.set_budget smt_budget;
    (match trace_out with
    | Some path -> Obs.Trace.start ~path
    | None -> ());
    Fun.protect ~finally:Obs.Trace.stop @@ fun () ->
    let program = load file in
    if program.Jir.Ast.entries = [] then
      prerr_endline
        "warning: no `entry Class.method;` declaration -- nothing will be \
         analyzed";
    let loaded = load_specs specs in
    let names = checker_names ~loaded checkers in
    let cs = List.map (checker_of_name ~loaded) names in
    let explicit_dir =
      match resume_opt with Some d -> Some d | None -> workdir_opt
    in
    let in_workdir f =
      match explicit_dir with
      | Some dir ->
          Engine.ensure_dir dir;
          f dir
      | None -> with_workdir ~prefix:"grapple" f
    in
    (* Sweep orphaned *.tmp files (a writer interrupted mid-atomic-write)
       from the workdir and every engine subdirectory, so nothing stale
       shadows the durable state a later --resume restores. *)
    let sweep_temps workdir =
      let swept = ref (Engine.Storage.sweep_stale_temps ~dir:workdir) in
      let sweep d = swept := !swept + Engine.Storage.sweep_stale_temps ~dir:d in
      sweep (Filename.concat workdir "alias");
      if Sys.file_exists workdir && Sys.is_directory workdir then
        Array.iter
          (fun f ->
            if String.length f > 3 && String.sub f 0 3 = "df-" then
              sweep (Filename.concat workdir f))
          (Sys.readdir workdir);
      !swept
    in
    in_workdir (fun workdir ->
        try
        let config =
          let base = Grapple.Pipeline.default_config ~workdir in
          { base with
            Grapple.Pipeline.unroll_bound = unroll;
            engine = { base.Grapple.Pipeline.engine with Engine.max_retries };
            library_throwers = Checkers.Specs.library_throwers;
            track_null = Checkers.tracks_null cs;
            prefilter_properties = Checkers.fsms cs;
            summary_prefilter = not no_summary_prefilter;
            alias_prefilter = not no_alias_prefilter;
            max_retries;
            instance_budget_s = instance_budget;
            instance_edge_budget = edge_budget;
            resume = resume_opt <> None;
            workers;
            shard_procs;
            heartbeat_ms;
            max_redispatch;
            shard_deadline_s = shard_deadline;
            shard_kill_nth }
        in
        let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
        let results, props, schedule = Checkers.run_all_scheduled prepared cs in
        (* per-worker schedule summary: stderr only, so stdout stays
           byte-identical across worker counts *)
        if workers > 1 || shard_procs > 0 then
          List.iter
            (fun (s : Grapple.Pipeline.schedule_entry) ->
              Printf.eprintf
                "worker %d: instance %s est=%d wall=%.3fs\n"
                s.Grapple.Pipeline.s_worker s.Grapple.Pipeline.s_instance
                s.Grapple.Pipeline.s_estimate s.Grapple.Pipeline.s_wall_s)
            schedule;
        let total = ref 0 in
        List.iter
          (fun (name, reports) ->
            if json then
              List.iter
                (fun r -> print_endline (Grapple.Report.to_json r))
                reports
            else begin
              Printf.printf "== checker %s: %d warning(s)\n" name
                (List.length reports);
              List.iter
                (fun r ->
                  if paths then
                    Fmt.pr "  %a@." Grapple.Report.pp_with_trace r
                  else Printf.printf "  %s\n" (Grapple.Report.to_string r))
                reports
            end;
            total := !total + List.length reports)
          results;
        let stats = Grapple.Pipeline.stats prepared props in
        (match metrics_out with
        | Some path ->
            let oc = open_out path in
            output_string oc
              (Obs.Registry.to_json stats.Grapple.Pipeline.registry);
            output_char oc '\n';
            close_out oc
        | None -> ());
        if json then
          (* machine-readable run stats, one line, after the reports *)
          Printf.printf
            {|{"tool":"stats","warnings":%d,"n_retried":%d,"n_recovered":%d,"n_inconclusive":%d,"n_smt_budget_hits":%d,"n_faults_injected":%d,"n_corrupt_recovered":%d,"cache_enabled":%b,"bytes_read":%d,"bytes_written":%d,"n_edges_presliced":%d,"n_edges_sliced":%d}|}
            !total stats.Grapple.Pipeline.n_retried
            stats.Grapple.Pipeline.n_recovered
            stats.Grapple.Pipeline.n_inconclusive
            stats.Grapple.Pipeline.n_smt_budget_hits
            stats.Grapple.Pipeline.n_faults_injected
            stats.Grapple.Pipeline.n_corrupt_recovered
            stats.Grapple.Pipeline.cache_enabled
            stats.Grapple.Pipeline.bytes_read
            stats.Grapple.Pipeline.bytes_written
            stats.Grapple.Pipeline.n_edges_presliced
            stats.Grapple.Pipeline.n_edges_sliced
          |> print_newline;
        let summary = if json then Printf.eprintf else Printf.printf in
        let cache_cell =
          (* "off" for a disabled cache instead of a misleading 0/0 *)
          if not stats.Grapple.Pipeline.cache_enabled then "off"
          else
            Printf.sprintf "%d/%d" stats.Grapple.Pipeline.cache_hits
              stats.Grapple.Pipeline.cache_lookups
        in
        summary
          "\n%d warning(s); |V|=%d |E|before=%d |E|after=%d partitions=%d \
           iterations=%d constraints=%d cache=%s summary-pruned=%d \
           sliced=%d retried=%d \
           recovered=%d inconclusive=%d smt-budget-hits=%d \
           faults-injected=%d\n"
          !total stats.Grapple.Pipeline.n_vertices
          stats.Grapple.Pipeline.n_edges_before
          stats.Grapple.Pipeline.n_edges_after
          stats.Grapple.Pipeline.n_partitions
          stats.Grapple.Pipeline.n_iterations
          stats.Grapple.Pipeline.n_constraints_solved
          cache_cell
          stats.Grapple.Pipeline.n_summary_pruned
          stats.Grapple.Pipeline.n_edges_sliced
          stats.Grapple.Pipeline.n_retried stats.Grapple.Pipeline.n_recovered
          stats.Grapple.Pipeline.n_inconclusive
          stats.Grapple.Pipeline.n_smt_budget_hits
          stats.Grapple.Pipeline.n_faults_injected
        with Engine.Interrupted ->
          (* interrupted between checkpoints: the manifests on disk are
             durable and consistent — clean up orphaned temp files and tell
             the user how to continue *)
          let swept = sweep_temps workdir in
          Printf.eprintf
            "interrupted: checkpoint manifests are durable (%d stale temp \
             file(s) swept); continue with\n  grapple check %s --resume %s\n%!"
            swept file workdir;
          exit 130)
  in
  Cmd.v (Cmd.info "check" ~doc:"run property checkers on a JIR file")
    Term.(const run $ file_arg $ checkers_arg $ spec_arg $ unroll_arg $ paths_arg
          $ trace_out_arg $ metrics_json_arg $ json_arg
          $ no_summary_prefilter_arg $ no_alias_prefilter_arg $ workdir_arg
          $ resume_arg
          $ instance_budget_arg $ edge_budget_arg $ max_retries_arg
          $ fault_plan_arg $ smt_budget_arg $ workers_arg
          $ shard_procs_arg $ heartbeat_ms_arg
          $ max_redispatch_arg $ shard_deadline_arg $ shard_kill_nth_arg)

let interproc_arg =
  Arg.(value & flag
       & info [ "interproc" ]
           ~doc:"also run the whole-program lints: the summary-based ones \
                 (interproc-null, interproc-leak) and the points-to-based \
                 ones (pointsto-never-read, pointsto-confused-sink)")

let lint_cmd =
  let run file json interproc =
    let program = load file in
    (* per-pass latency: every analysis pass reports its wall time into a
       histogram (one per pass name) so repeated passes — the intraproc
       lints run once per method — accumulate count and total seconds *)
    let reg = Obs.Registry.create () in
    let pass_names = ref [] in
    let on_pass name secs =
      if not (List.mem name !pass_names) then
        pass_names := name :: !pass_names;
      Obs.Registry.observe (Obs.Registry.histogram reg ("lint.pass." ^ name))
        secs
    in
    let timed name f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      on_pass name (Unix.gettimeofday () -. t0);
      r
    in
    let diags = Analysis.Lint.check_program ~on_pass program in
    let diags =
      if interproc then
        let pt =
          timed "pointsto-solve" (fun () -> Analysis.Pointsto.analyze program)
        in
        diags
        @ Analysis.Summaries.interproc_diags ~on_pass
            ~fsms:(Checkers.fsms (Checkers.all_with_null ())) program
        @ timed "pointsto-lints" (fun () -> Analysis.Pointsto.diags pt)
      else diags
    in
    List.iter
      (fun d ->
        if json then print_endline (Analysis.Lint.to_json d)
        else print_endline (Analysis.Lint.to_string d))
      diags;
    if json then begin
      (* one machine-readable timing document after the diagnostics *)
      let parts =
        List.sort compare !pass_names
        |> List.map (fun n ->
               let h = Obs.Registry.histogram reg ("lint.pass." ^ n) in
               Printf.sprintf {|{"pass":"%s","count":%d,"seconds":%.6f}|} n
                 (Obs.Registry.hist_count h)
                 (Obs.Registry.hist_sum h))
      in
      Printf.printf {|{"tool":"lint-timing","passes":[%s]}|}
        (String.concat "," parts);
      print_newline ()
    end
    else Printf.printf "%d lint diagnostic(s)\n" (List.length diags);
    if diags <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"run the dataflow lint analyses (use-before-init, null-deref, \
             dead-branch, unreachable; with --interproc also the \
             summary- and points-to-based whole-program lints) on a JIR \
             file")
    Term.(const run $ file_arg $ json_arg $ interproc_arg)

let cfet_cmd =
  let run file unroll =
    let program = load file in
    let program = Jir.Unroll.unroll_program ~bound:unroll program in
    let icfet = Symexec.Icfet.build program in
    Array.iter
      (fun (c : Symexec.Cfet.t) ->
        Fmt.pr "=== %s (%d nodes, depth %d)@.%a@.@."
          (Jir.Ast.meth_id c.Symexec.Cfet.meth)
          c.Symexec.Cfet.node_count c.Symexec.Cfet.depth Symexec.Cfet.pp c)
      icfet.Symexec.Icfet.cfets
  in
  Cmd.v (Cmd.info "cfet" ~doc:"dump per-method CFETs")
    Term.(const run $ file_arg $ unroll_arg)

let graph_cmd =
  let run file unroll =
    let program = load file in
    let program = Jir.Unroll.unroll_program ~bound:unroll program in
    let icfet = Symexec.Icfet.build program in
    let cg = Jir.Callgraph.build program in
    let clones = Graphgen.Clone_tree.build icfet cg in
    let ag = Graphgen.Alias_graph.build icfet clones in
    Printf.printf
      "methods=%d icfet-nodes=%d call-edges=%d clones=%d vertices=%d edges=%d\n"
      (Symexec.Icfet.n_methods icfet)
      (Symexec.Icfet.total_nodes icfet)
      (Symexec.Icfet.n_call_edges icfet)
      (Graphgen.Clone_tree.n_instances clones)
      (Graphgen.Alias_graph.n_vertices ag)
      (Graphgen.Alias_graph.n_edges ag)
  in
  Cmd.v (Cmd.info "graph" ~doc:"alias-graph statistics")
    Term.(const run $ file_arg $ unroll_arg)

(* Standalone closure over a Graspan-style edge list: one edge per line,
   "src dst label" with label in {new, assign, store[F], load[F]}.  Runs the
   pointer-analysis grammar without path constraints and prints the derived
   flowsTo and alias facts — the engine as a reusable building block. *)
let closure_cmd =
  let module AE = Engine.Make (Cfl.Pointer_grammar) in
  let parse_label l =
    if l = "new" then Cfl.Pointer_grammar.New
    else if l = "assign" then Cfl.Pointer_grammar.Assign
    else
      let field prefix =
        let n = String.length prefix in
        if String.length l > n + 1
           && String.sub l 0 n = prefix
           && l.[n] = '['
           && l.[String.length l - 1] = ']'
        then
          Some
            (Smt.Symbol.intern
               (String.sub l (n + 1) (String.length l - n - 2)))
        else None
      in
      match (field "store", field "load") with
      | Some f, _ -> Cfl.Pointer_grammar.Store f
      | _, Some f -> Cfl.Pointer_grammar.Load f
      | None, None ->
          Printf.eprintf
            "unknown edge label %S (expected new, assign, store[F], load[F])\n"
            l;
          exit 2
  in
  let run file =
    with_workdir ~prefix:"grapple-closure" @@ fun workdir ->
    let t =
      AE.create ~decode:(fun _ -> Smt.Formula.True) ~workdir ()
    in
    let ic = open_in file in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ src; dst; label ] ->
               AE.add_seed t ~src:(int_of_string src) ~dst:(int_of_string dst)
                 ~label:(parse_label label) ~enc:[]
           | _ -> failwith ("malformed edge line: " ^ line)
       done
     with End_of_file -> close_in ic);
    AE.run t;
    AE.iter_result_edges t (fun e ->
        Printf.printf "%d %d %s\n" e.AE.src e.AE.dst
          (Cfl.Pointer_grammar.to_string e.AE.label))
  in
  Cmd.v
    (Cmd.info "closure"
       ~doc:"grammar-guided transitive closure over an edge-list file")
    Term.(const run $ file_arg)

(* Emit a synthetic workload subject as JIR source, so CI and bench scripts
   can run the pipeline on a generated program without linking the workload
   library themselves. *)
let gen_cmd =
  let profile_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROFILE"
             ~doc:"subject profile name (e.g. minizk, minihdfs, minitaint)")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"write the generated JIR to FILE (default: stdout)")
  in
  let run profile out =
    (* thunks: the megaload profiles are expensive, so nothing is
       generated until the requested name is known *)
    let mega_units default =
      match
        Option.bind (Sys.getenv_opt "GRAPPLE_MEGALOAD_UNITS") int_of_string_opt
      with
      | Some u when u > 0 -> u
      | _ -> default
    in
    let profiles : (string * (unit -> Workload.Generator.subject)) list =
      [ ("minizk", Workload.Generator.mini_zookeeper);
        ("minihadoop", Workload.Generator.mini_hadoop);
        ("minihdfs", Workload.Generator.mini_hdfs);
        ("minihbase", Workload.Generator.mini_hbase);
        ("minilocks", Workload.Generator.mini_locks);
        ("minitaint", Workload.Generator.mini_taint);
        ("miniclose", Workload.Generator.mini_close);
        ("minitwr", Workload.Generator.mini_twr);
        ("mega100k",
         fun () -> Workload.Generator.mega_100k ~units:(mega_units 400) ());
        ("mega1m",
         fun () -> Workload.Generator.mega_1m ~units:(mega_units 2400) ()) ]
    in
    match List.assoc_opt profile profiles with
    | None ->
        Printf.eprintf "unknown profile %S (available: %s)\n" profile
          (String.concat ", " (List.map fst profiles));
        exit 2
    | Some mk -> (
        let s = mk () in
        let text = Jir.Pp.program_to_string s.Workload.Generator.program in
        match out with
        | None -> print_string text
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"emit a synthetic benchmark subject (JIR source) by profile name")
    Term.(const run $ profile_arg $ out_arg)

(* The adversarial soundness fuzzer (ISSUE 9): random generated subjects
   through the full pipeline vs. the concrete reference interpreter. *)
let fuzz_cmd =
  let iters_arg =
    Arg.(value & opt int 50
         & info [ "iters" ] ~docv:"N" ~doc:"fuzz iterations (one generated \
                  subject each)")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"base seed; every generated subject, input choice, and \
                   shrink step derives from it, so a run is reproducible")
  in
  let runs_arg =
    Arg.(value & opt int 6
         & info [ "runs" ] ~docv:"N"
             ~doc:"concrete interpreter runs (distinct input seeds) per \
                   subject")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus-dir" ] ~docv:"DIR"
             ~doc:"write minimized counterexamples to DIR (default: no \
                   corpus output)")
  in
  let weaken_arg =
    Arg.(value
         & opt (some (enum [ ("summary", Grapple.Pipeline.Summary) ])) None
         & info [ "weaken-tier" ] ~docv:"TIER"
             ~doc:"TESTING ONLY: deliberately break the summary triage tier \
                   ($(b,summary)) so the harness itself can be validated — \
                   a weakened run must fail")
  in
  let run iters seed runs corpus_dir weaken workers_opt shard_procs_opt
      fault_plan =
    let workers = match workers_opt with Some w when w > 0 -> w | _ -> 1 in
    let shard_procs =
      match shard_procs_opt with Some n when n >= 0 -> n | _ -> 0
    in
    (* soundness must also hold while storage faults are being injected
       and recovered: same flag syntax as `check --fault-plan` *)
    (match fault_plan with
    | Some spec -> Engine.Faults.install (Engine.Faults.parse spec)
    | None -> ());
    let cfg =
      { Refinterp.Fuzz.default_config with
        Refinterp.Fuzz.iters;
        seed;
        workers;
        shard_procs;
        weaken_tier = weaken;
        runs_per_program = runs;
        corpus_dir;
        log = (fun m -> Printf.eprintf "fuzz: %s\n%!" m) }
    in
    let res = Refinterp.Fuzz.run cfg in
    Printf.printf
      "fuzz: %d iterations, %d interpreter runs, %d concrete violations \
       checked, %d reports checked, %d soundness failure(s)\n"
      res.Refinterp.Fuzz.iterations res.Refinterp.Fuzz.interp_runs
      res.Refinterp.Fuzz.violations_seen res.Refinterp.Fuzz.reports_seen
      (List.length res.Refinterp.Fuzz.failures);
    List.iter
      (fun (f : Refinterp.Fuzz.failure) ->
        Printf.printf "FAIL iter=%d seed=%d checker=%s: %s%s\n" f.Refinterp.Fuzz.f_iter
          f.Refinterp.Fuzz.f_seed f.Refinterp.Fuzz.f_checker
          f.Refinterp.Fuzz.f_summary
          (match f.Refinterp.Fuzz.f_corpus_file with
          | Some p -> " (minimized: " ^ p ^ ")"
          | None -> ""))
      res.Refinterp.Fuzz.failures;
    if res.Refinterp.Fuzz.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"adversarial soundness fuzzing: generated subjects through the \
             static pipeline vs. a concrete reference interpreter")
    Term.(const run $ iters_arg $ seed_arg $ runs_arg $ corpus_arg
          $ weaken_arg $ workers_arg $ shard_procs_arg $ fault_plan_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "grapple" ~doc:"static finite-state property checking")
          [ check_cmd; lint_cmd; cfet_cmd; graph_cmd; closure_cmd; gen_cmd;
            fuzz_cmd ]))
