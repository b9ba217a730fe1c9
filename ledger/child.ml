(* One measured repetition, run in a fresh child process of the benchmark
   executable so that it starts cold like a user's `grapple check`, has a
   peak RSS of its own, and can fork shard workers before any domain
   exists.  The program sees only the JIR text, through its public entry
   points: parse, Pipeline.prepare, Checkers.run_all_scheduled,
   Pipeline.stats.  The traced variant brackets those calls with bench
   spans, records the program's own spans, and reads the trace back. *)

module Pipeline = Grapple.Pipeline

external children_maxrss_kb : unit -> int = "ledger_children_maxrss_kb"

(* This process's peak RSS since exec, in kB.  Its own ru_maxrss would not
   do: Linux carries the spawning process's high-water mark across exec. *)
let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
  |> Option.value ~default:0

type t = {
  wall_s : float;   (* parse + prepare + check + stats *)
  setup_s : float;  (* parse + prepare *)
  check_s : float;
  rss_kb : int;     (* the larger of this process and its shard workers *)
  results : (string * Grapple.Report.t list) list;
  digest : string;  (* of every report, rendered as JSON, checker by checker *)
  inconclusive : int;
  layers : (string * float) list;  (* per-layer metrics; traced runs only *)
}

let digest_of results =
  results
  |> List.concat_map (fun (name, rs) ->
         List.map (fun r -> name ^ " " ^ Grapple.Report.to_json r ^ "\n") rs)
  |> String.concat "" |> Digest.string |> Digest.to_hex

let ratio a b = if b = 0. then 0. else a /. b

(* The per-layer numbers of one traced run.  [spans] are the self times
   read back from the trace; the rest comes from the pipeline's stats and
   timers, which also cover work done in shard workers. *)
let layers ~(spans : (string, Spans.total) Hashtbl.t) ~bytes ~wall_s ~parse_s
    ~prepare_s ~check_s ~phase1_compute_s ~(prepared : Pipeline.prepared)
    ~(stats : Pipeline.stats) ~(schedule : Pipeline.schedule_entry list) =
  let self name =
    match Hashtbl.find_opt spans name with Some t -> t.Spans.self_s | None -> 0.
  in
  let dur name =
    match Hashtbl.find_opt spans name with Some t -> t.Spans.dur_s | None -> 0.
  in
  let reg = stats.Pipeline.registry in
  let counter name =
    float_of_int (Obs.Registry.value (Obs.Registry.counter reg name))
  in
  let gauge name = Obs.Registry.gauge_value (Obs.Registry.gauge reg name) in
  let tracked =
    List.length
      (Pipeline.tracked_alloc_sids prepared.Pipeline.program
         prepared.Pipeline.config.Pipeline.prefilter_properties
         ~excluded:(Hashtbl.create 0))
  in
  let pruned =
    stats.Pipeline.n_prefiltered + stats.Pipeline.n_summary_pruned
    + stats.Pipeline.n_alias_pruned
  in
  let edges_added = float_of_int stats.Pipeline.edges_added in
  let walls =
    List.map (fun (s : Pipeline.schedule_entry) -> s.Pipeline.s_wall_s) schedule
  in
  let max_wall = List.fold_left Float.max 0. walls in
  let mean_wall =
    ratio (List.fold_left ( +. ) 0. walls) (float_of_int (List.length walls))
  in
  (* the join timer runs around decode and solve *)
  let join_s =
    gauge "engine.join_s" -. gauge "engine.decode_s" -. gauge "engine.solve_s"
    |> Float.max 0.
  in
  (* time inside the measured calls that no program span covers: the self
     time of the prepare/check brackets, and whatever lies outside the
     four brackets; parse and stats have no inner spans, so their brackets
     are their layers *)
  let brackets =
    [ "bench.parse"; "bench.prepare"; "bench.check"; "bench.stats" ]
  in
  let outside =
    wall_s -. List.fold_left (fun a n -> a +. dur n) 0. brackets
  in
  let unattributed =
    self "bench.prepare" +. self "bench.check" +. Float.max 0. outside
  in
  let partitions = float_of_int stats.Pipeline.n_partitions in
  let pairs = counter "engine.pairs_processed" in
  let considered = counter "engine.edges_considered" in
  let per_edge bytes = ratio (float_of_int bytes) edges_added in
  [ ("jir.parse_s", parse_s);
    ("jir.parse_mb_per_s", ratio (float_of_int bytes /. 1e6) parse_s);
    ("phase0.unroll_s", self "phase0.unroll");
    ("phase0.callgraph_s", self "phase0.callgraph");
    ("phase0.icfet_s", self "phase0.icfet");
    ("phase0.clones_s", self "phase0.clones");
    ("phase0.alias_graph_s", self "phase0.alias_graph");
    ("graph.alias_edges", float_of_int stats.Pipeline.n_edges_presliced);
    ("graph.alias_edges_sliced", float_of_int stats.Pipeline.n_edges_sliced);
    ("phase2.compute_s", stats.Pipeline.compute_s -. phase1_compute_s);
    ("phase0.escape_prefilter_s", self "phase0.escape_prefilter");
    ("phase0.summary_prefilter_s", self "phase0.summary_prefilter");
    ("phase0.alias_prefilter_s", self "phase0.alias_prefilter");
    ("phase0.alias_slice_s", self "phase0.alias_slice");
    ("triage.tracked_allocs", float_of_int tracked);
    ("triage.pruned", float_of_int pruned);
    ("triage.prune_rate", ratio (float_of_int pruned) (float_of_int tracked));
    ("phase1.alias_closure_s", self "phase1.alias_closure");
    ("engine.pair_self_s", self "engine.pair");
    ("engine.join_s", join_s);
    ("engine.edges_considered", considered);
    ("engine.derive_yield", ratio edges_added considered);
    ("engine.edges_per_s", ratio edges_added stats.Pipeline.compute_s);
    ("engine.load_s", self "engine.load");
    ("engine.flush_s", self "engine.flush");
    ("engine.checkpoint_s", self "engine.checkpoint");
    ("engine.io_s", gauge "engine.io_s");
    ("engine.bytes_read_per_edge", per_edge stats.Pipeline.bytes_read);
    ("engine.bytes_written_per_edge", per_edge stats.Pipeline.bytes_written);
    ("engine.pairs_processed", pairs);
    ("engine.partitions", partitions);
    ("engine.pair_loads_per_partition", ratio pairs partitions);
    ("engine.retries", counter "engine.retries");
    ("engine.corrupt_reads", counter "engine.corrupt_reads");
    ("engine.decode_s", gauge "engine.decode_s");
    ("engine.solve_s", gauge "engine.solve_s");
    ("engine.constraints_solved", counter "engine.constraints_solved");
    ( "engine.cache_hit_rate",
      ratio
        (float_of_int stats.Pipeline.cache_hits)
        (float_of_int stats.Pipeline.cache_lookups) );
    ( "smt.batches",
      float_of_int
        (Obs.Registry.hist_count
           (Obs.Registry.histogram ~bounds:Engine.Metrics.batch_size_bounds reg
              "smt.batch_size")) );
    ("pipeline.prepare_s", prepare_s);
    ("pipeline.check_s", check_s);
    ("scheduler.instances", float_of_int (List.length schedule));
    ("scheduler.instance_max_s", max_wall);
    ("scheduler.imbalance", ratio max_wall mean_wall);
    ("supervisor.spawns", counter "supervisor.spawns");
    ("supervisor.redispatches", counter "supervisor.redispatches");
    ("supervisor.stale_frames", counter "supervisor.stale_frames");
    ("phase3.check_s", gauge "pipeline.check_s");
    ("checker.exception_walk_s", self "checker.exception_walk");
    ("trace.unattributed_pct", 100. *. ratio unattributed wall_s) ]

let run (w : Workloads.t) ~input ~file ~workdir ~shard_procs ~trace : t =
  (* a process that has spawned a domain must not fork shard workers *)
  if shard_procs > 0 then Engine.Domains.set_cap 1;
  let cs = w.Workloads.checkers () in
  let config = Workloads.config w ~workdir ~shard_procs in
  Option.iter (fun path -> Obs.Trace.start ~path) trace;
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = Obs.Trace.with_span ~cat:"bench" name f in
    (r, Unix.gettimeofday () -. t0)
  in
  let (text, program), parse_s =
    timed "bench.parse" (fun () ->
        let text = In_channel.with_open_bin input In_channel.input_all in
        (text, Jir.Resolve.parse_exn ~file text))
  in
  let prepared, prepare_s =
    timed "bench.prepare" (fun () -> Pipeline.prepare ~config ~workdir program)
  in
  let phase1_compute_s = prepared.Pipeline.timing.Pipeline.compute_s in
  let (results, props, schedule), check_s =
    timed "bench.check" (fun () -> Checkers.run_all_scheduled prepared cs)
  in
  let stats, stats_s =
    timed "bench.stats" (fun () -> Pipeline.stats prepared props)
  in
  let wall_s = parse_s +. prepare_s +. check_s +. stats_s in
  Obs.Trace.stop ();
  let rss_kb = max (vm_hwm_kb ()) (children_maxrss_kb ()) in
  let layers =
    match trace with
    | None -> []
    | Some path ->
        layers ~spans:(Spans.read_file path) ~bytes:(String.length text)
          ~wall_s ~parse_s ~prepare_s ~check_s ~phase1_compute_s ~prepared
          ~stats ~schedule
  in
  Pipeline.cleanup prepared props;
  { wall_s;
    setup_s = parse_s +. prepare_s;
    check_s;
    rss_kb;
    results;
    digest = digest_of results;
    inconclusive = stats.Pipeline.n_inconclusive;
    layers }
