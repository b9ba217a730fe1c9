(* The Grapple pipeline (paper §2.2): frontend -> ICFET + program graphs ->
   phase 1 path-sensitive alias computation -> phase 2 path-sensitive
   dataflow computation (per FSM property) -> phase 3 FSM checking.

   A run names its typestate properties once, in
   [config.prefilter_properties].  [prepare] runs the frontend once for
   them: loop unrolling, ICFET construction, clone-tree planning, the
   summary tier, alias-graph generation, and the phase-1 engine run.
   [check_properties] then runs phases 2 and 3 for each of them against
   the prepared state ([attempt_property] is one instance's closure and
   check), so the properties share one alias computation exactly as in the
   paper.  Each instance accounts in a registry of its own, and [stats]
   merges them with the run's. *)

module Encoding = Pathenc.Encoding
module Icfet = Symexec.Icfet
module Cfet = Symexec.Cfet
module Clone_tree = Graphgen.Clone_tree
module Alias_graph = Graphgen.Alias_graph
module Dataflow_graph = Graphgen.Dataflow_graph
module Pg = Cfl.Pointer_grammar
module Dg = Cfl.Dataflow_grammar

module Alias_engine = Engine.Make (Cfl.Pointer_grammar)
module Dataflow_engine = Engine.Make (Cfl.Dataflow_grammar)

(* The triage tiers the soundness harness can weaken. *)
type tier = Summary

type config = {
  workdir : string;
  unroll_bound : int;
  engine : Engine.config;
      (* every engine's settings, and the one failure policy of a checking
         instance: [max_retries] caps storage-op retries, an instance's
         attempts and its re-dispatches after a lost worker process;
         [wall_budget_s] and [edge_budget] bound each attempt.  The phase-1
         engine runs unbudgeted: it is shared preprocessing, not an
         instance *)
  library_throwers : (string * string * string) list;
      (* (class, method, exception) for library calls that may throw *)
  prefilter_properties : Fsm.t list;
      (* the typestate properties this run checks, in the order
         [check_properties] returns them: the summary tier prunes for
         exactly these, [<null>] pseudo-allocations are modeled exactly when
         one of them tracks [Alias_graph.null_class], and
         [Checkers.run_all_scheduled] refuses any other list *)
  summary_prefilter : bool;
      (* the triage tier: prune tracked allocations whose
         over-approximating interprocedural typestate closure
         (Analysis.Summaries) never reaches the FSM error state and never
         ends life in a non-accepting state — no report is possible, so
         they are excluded from the graphs *)
  alias_prefilter : bool;
      (* whole-program Andersen points-to, which feeds the slicer:
         Assign-labeled alias-graph edges no allocation can cross are
         dropped before phase 1, at byte-identical warnings.  It prunes no
         allocation *)
  resume : bool;
      (* continue from the checkpoint manifests found in [workdir]
         (`grapple check --resume`); fresh sub-runs where none validate *)
  workers : int;
      (* no executor reads it: checking instances run side by side only
         in [shard_procs] processes.  [prepare] rejects any value but 1,
         so a caller asking for domains gets an error, not a silent
         sequential run *)
  shard_procs : int;
      (* worker processes for the phase-2/3 instances: 0 runs them one
         after another in the calling process; N > 0 runs each attempt in
         its own forked, crash-isolated process, at most N at a time, and
         re-dispatches a lost one.  Reports are byte-identical at every
         process count *)
  weaken_tier : tier option;
      (* TEST-ONLY soundness-harness hook (ISSUE 9): deliberately break one
         triage tier so the reference-interpreter fuzzer can prove it would
         catch a tier that drops reports.  [Summary] prunes *every* tracked
         allocation at the summary tier instead of only the proven-clean
         ones.  [None] (the default, and the only value the CLI's check
         command can produce) changes nothing *)
}

let default_config ~workdir =
  { workdir;
    unroll_bound = 2;
    engine = Engine.default_config ~workdir;
    library_throwers = [];
    prefilter_properties = [];
    summary_prefilter = true;
    alias_prefilter = true;
    resume = false;
    workers = 1;
    shard_procs = 0;
    weaken_tier = None }

(* What [prepare] measured; [run_metrics] holds the same two timers,
   which [stats] reads. *)
type timing = {
  preprocess_s : float;  (* frontend + graph generation + loading *)
  compute_s : float;     (* the phase-1 closure *)
}

type prepared = {
  config : config;
  program : Jir.Ast.program;   (* unrolled *)
  icfet : Icfet.t;
  callgraph : Jir.Callgraph.t;
  clones : Clone_tree.t;
  alias_graph : Alias_graph.t;
  alias_engine : Alias_engine.t;
  flows : Dataflow_graph.flows;
  n_alias_pairs : int;
  summary_pruned : int list;
      (* allocation sids the interprocedural summary pre-filter proved
         unreportable for every property tracking their class; excluded
         from the graphs outright *)
  n_edges_presliced : int;
      (* alias-graph edges built before points-to slicing *)
  n_edges_sliced : int;
      (* Assign edges the points-to slicer removed before phase 1 *)
  timing : timing;
  run_metrics : Obs.Registry.t;
      (* the run's own account: phase 1's engine metrics, graph sizes,
         restarts and timers, the triage counts, and then the shard
         supervisor's counters (spawns, kills, re-dispatches,
         degradations).  Each checking instance accounts in the registry
         of its [property_result] instead *)
  smt_budget_hits0 : int;
  faults_injected0 : int;
      (* the process-global SMT budget hits and the installed plan's
         injected faults when phase 1 began: [stats] adds what the calling
         process counted since *)
}

let timed cell f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  cell := !cell +. (Unix.gettimeofday () -. t0);
  r

(* [timed] plus a trace span, so the pipeline phases show up as named
   blocks in a [--trace] timeline. *)
let timed_span name cell f =
  Obs.Trace.with_span ~cat:"pipeline" name (fun () -> timed cell f)

let count reg name n = Obs.Registry.incr ~by:n (Obs.Registry.counter reg name)

let add_seconds reg name s =
  Obs.Registry.gauge_add (Obs.Registry.gauge reg name) s

(* An engine's metrics and graph sizes, counted into [reg] under the names
   [stats] sums. *)
let count_engine reg ~vertices ~seed_edges ~total_edges ~partitions metrics =
  Obs.Registry.merge ~into:reg (Engine.Metrics.registry metrics);
  count reg "pipeline.vertices" vertices;
  count reg "pipeline.edges_before" seed_edges;
  count reg "pipeline.edges_after" total_edges;
  count reg "pipeline.partitions" partitions

(* The one retry ladder, shared by the phase-1 alias run and every checking
   instance.  Each attempt runs a fresh engine from [create]; the first
   resumes from the checkpoint manifests only when [resume] says so, every
   later one always does, so each attempt makes net progress.  A storage
   fault that outlived the engine's own op-level retries, or budget
   exhaustion, fails the attempt: its op-retry count goes to [reg]'s
   [pipeline.retried], and the attempt is repeated after a deterministic
   backoff, up to the engine's [max_retries] times.  Past the limit
   [past_limit] decides — phase 1 re-raises, an instance degrades.
   Simulated crashes ([Faults.Crash]) are deliberately not caught. *)
let retry_ladder (c : Engine.config) ~reg ~resume ~create ~op_retries
    ~attempt ~past_limit =
  let rec go n =
    let e = create () in
    match attempt e ~resume:(resume || n > 0) with
    | r ->
        if n > 0 then count reg "pipeline.recovered" 1;
        r
    | exception
        ((Engine.Faults.Injected _ | Sys_error _ | Engine.Budget_exhausted _)
         as exn) ->
        count reg "pipeline.retried" (op_retries e);
        if n >= c.Engine.max_retries then past_limit exn
        else begin
          count reg "pipeline.retried" 1;
          Unix.sleepf
            (Engine.Faults.backoff_delay_s ~base_ms:c.Engine.retry_base_ms
               ~attempt:n);
          go (n + 1)
        end
  in
  go 0

(* ---------------- phase 0 + 1 ---------------- *)

(* Every allocation sid of a class some property tracks, less those in
   [excluded] — the deliberately unsound "prune everything" set the
   [weaken_tier] test hook substitutes for the summary tier's real result,
   so the soundness harness can demonstrate it detects the lost reports. *)
let tracked_alloc_sids (program : Jir.Ast.program) (fsms : Fsm.t list)
    ~excluded : int list =
  let tracked cls = List.exists (fun f -> Fsm.is_tracked f cls) fsms in
  Jir.Ast.all_methods program
  |> List.concat_map (fun (m : Jir.Ast.meth) ->
         Jir.Ast.block_stmts m.Jir.Ast.body)
  |> List.filter_map (fun (s : Jir.Ast.stmt) ->
         match s.Jir.Ast.kind with
         | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rnew (cls, _)))
         | Jir.Ast.Assign (_, Jir.Ast.Rnew (cls, _))
           when tracked cls && not (Hashtbl.mem excluded s.Jir.Ast.sid) ->
             Some s.Jir.Ast.sid
         | _ -> None)
  |> List.sort compare

let prepare ?(config : config option) ~workdir (program : Jir.Ast.program) :
    prepared =
  let config =
    match config with Some c -> c | None -> default_config ~workdir
  in
  if config.workers <> 1 then
    invalid_arg
      "Pipeline.prepare: workers must be 1; set shard_procs to run checking \
       instances in parallel processes";
  let pre = ref 0. and comp = ref 0. in
  let program = timed_span "phase0.unroll" pre (fun () ->
      Jir.Unroll.unroll_program ~bound:config.unroll_bound program)
  in
  let may_throw =
    let base = Cfet.default_config program in
    let table = Hashtbl.create 16 in
    List.iter
      (fun (cls, m, e) -> Hashtbl.replace table (cls, m) e)
      config.library_throwers;
    fun (c : Jir.Ast.call) ->
      match base.Cfet.may_throw c with
      | Some e -> Some e
      | None -> Hashtbl.find_opt table (c.Jir.Ast.target_class, c.Jir.Ast.mname)
  in
  let icfet =
    timed_span "phase0.icfet" pre (fun () ->
        let base = Cfet.default_config program in
        Icfet.build ~config:{ base with Cfet.may_throw } program)
  in
  let callgraph =
    timed_span "phase0.callgraph" pre (fun () -> Jir.Callgraph.build program)
  in
  let clones =
    timed_span "phase0.clones" pre (fun () ->
        (* a tighter instance cap than the [graph] command's default *)
        Clone_tree.build ~max_instances:100_000 icfet callgraph)
  in
  (* summary-based pre-filter (ISSUE 2): an allocation is pruned only when
     every property tracking its class proves it clean — the abstraction
     over-approximates realizable event sequences, so the closure cannot
     produce a report for it. *)
  let summary_pruned =
    timed_span "phase0.summary_prefilter" pre (fun () ->
        if config.summary_prefilter then begin
          let clean = Hashtbl.create 16 and dirty = Hashtbl.create 16 in
          List.iter
            (fun (r : Analysis.Summaries.result) ->
              List.iter
                (fun (f : Analysis.Summaries.alloc_fact) ->
                  let sid = f.Analysis.Summaries.f_site.Analysis.Summaries.a_sid in
                  if Analysis.Summaries.clean f then Hashtbl.replace clean sid ()
                  else Hashtbl.replace dirty sid ())
                r.Analysis.Summaries.facts)
            (Analysis.Summaries.analyze ~callgraph config.prefilter_properties
               program);
          Hashtbl.fold
            (fun sid () acc ->
              if Hashtbl.mem dirty sid then acc else sid :: acc)
            clean []
          |> List.sort compare
        end
        else [])
  in
  (* weakened-summary hook: pretend the tier proved everything clean *)
  let summary_pruned =
    if config.weaken_tier = Some Summary then
      tracked_alloc_sids program config.prefilter_properties
        ~excluded:(Hashtbl.create 0)
    else summary_pruned
  in
  let excluded = Hashtbl.create 16 in
  List.iter (fun sid -> Hashtbl.replace excluded sid ()) summary_pruned;
  let track_null =
    List.exists
      (fun f -> Fsm.is_tracked f Alias_graph.null_class)
      config.prefilter_properties
  in
  (* whole-program Andersen points-to over the unrolled program, for the
     closure-graph slicer below (the benchmark reads this span by its
     name) *)
  let pointsto =
    timed_span "phase0.alias_prefilter" pre (fun () ->
        if config.alias_prefilter then
          Some (Analysis.Pointsto.analyze ~track_null program)
        else None)
  in
  let alias_graph =
    timed_span "phase0.alias_graph" pre (fun () ->
        Alias_graph.build ~track_null
          ~exclude:(Hashtbl.mem excluded) icfet clones)
  in
  (* closure-graph slicing (ISSUE 7): drop Assign edges whose source
     variable has an empty points-to set — no allocation can cross them in
     any flowsTo derivation, so the phase-1 closure is unchanged while the
     engine sees fewer seed edges. *)
  let n_edges_presliced = Alias_graph.n_edges alias_graph in
  let n_edges_sliced =
    timed_span "phase0.alias_slice" pre (fun () ->
        match pointsto with
        | None -> 0
        | Some pt ->
            (* vertex [meth] fields are dense icfet indices; resolve them
               to qualified method ids once *)
            let meth_ids =
              Array.init (Icfet.n_methods icfet) (fun i ->
                  Jir.Ast.meth_id (Icfet.cfet icfet i).Cfet.meth)
            in
            Alias_graph.slice_assign_edges alias_graph
              ~reaches:(fun ~meth ~var ->
                Analysis.Pointsto.nonempty pt ~meth_id:meth_ids.(meth) ~var))
  in
  let smt_budget_hits0 = Smt.Solver.stats.Smt.Solver.budget_hits in
  let faults_injected0 = Engine.Faults.injected_count () in
  let alias_workdir = Filename.concat config.workdir "alias" in
  let engine_config =
    { config.engine with
      Engine.workdir = alias_workdir; edge_budget = 0; wall_budget_s = 0. }
  in
  let mk_alias_engine () =
    let e =
      Alias_engine.create ~config:engine_config
        ~decode:(fun enc -> Icfet.constraint_of icfet enc)
        ~workdir:alias_workdir ()
    in
    timed_span "phase1.seed" pre (fun () ->
        Alias_graph.iter_edges alias_graph (fun edge ->
            Alias_engine.add_seed e ~src:edge.Alias_graph.src
              ~dst:edge.Alias_graph.dst ~label:edge.Alias_graph.label
              ~enc:edge.Alias_graph.enc));
    e
  in
  (* The shared phase-1 computation climbs the same retry ladder as a
     checking instance, except that failure past the retry limit propagates:
     without alias facts there is no instance left to degrade.  Collecting
     the flowsTo facts is part of the attempt (it re-reads the partitions,
     so it can hit the same faults as the run). *)
  let alias_attempt e ~resume =
    timed_span "phase1.alias_closure" comp (fun () ->
        Alias_engine.run ~resume e);
    (* collect flowsTo facts rooted at allocation sites: the in-memory
       alias results phase 2 queries (§2.2) *)
    let flows : Dataflow_graph.flows = Hashtbl.create 1024 in
    let n_alias_pairs = ref 0 in
    timed_span "phase1.collect_flows" comp (fun () ->
        Alias_engine.iter_result_edges e (fun ~src ~dst ~label enc ->
            match Pg.of_int label with
            | Pg.Flows_to -> (
                match Alias_graph.info alias_graph src with
                | Alias_graph.Obj_vertex _ ->
                    incr n_alias_pairs;
                    let cur =
                      Option.value ~default:[] (Hashtbl.find_opt flows src)
                    in
                    Hashtbl.replace flows src ((dst, enc ()) :: cur)
                | Alias_graph.Var_vertex _ -> ())
            | _ -> ()));
    (e, flows, !n_alias_pairs)
  in
  let run_metrics = Obs.Registry.create () in
  let alias_engine, flows, n_alias_pairs =
    retry_ladder engine_config ~reg:run_metrics ~resume:config.resume
      ~create:mk_alias_engine
      ~op_retries:(fun e ->
        Engine.Metrics.count (Alias_engine.metrics e).Engine.Metrics.retries)
      ~attempt:alias_attempt ~past_limit:raise
  in
  count_engine run_metrics
    ~vertices:(Alias_graph.n_vertices alias_graph)
    ~seed_edges:(Alias_engine.n_seed_edges alias_engine)
    ~total_edges:(Alias_engine.total_edges alias_engine)
    ~partitions:(Alias_engine.n_partitions alias_engine)
    (Alias_engine.metrics alias_engine);
  count run_metrics "pipeline.summary_pruned" (List.length summary_pruned);
  count run_metrics "pipeline.edges_sliced" n_edges_sliced;
  add_seconds run_metrics "pipeline.preprocess_s" !pre;
  add_seconds run_metrics "pipeline.compute_s" !comp;
  { config; program; icfet; callgraph; clones; alias_graph; alias_engine;
    flows; n_alias_pairs; summary_pruned; n_edges_presliced; n_edges_sliced;
    timing = { preprocess_s = !pre; compute_s = !comp };
    run_metrics; smt_budget_hits0; faults_injected0 }

(* ---------------- phases 2 and 3 for one property ---------------- *)

type property_result = {
  fsm : Fsm.t;
  reports : Report.t list;
  degraded : string option;
      (* [Some reason] when the supervisor gave up on this instance; its
         only report is the matching [Inconclusive] entry *)
  metrics : Obs.Registry.t;
      (* the instance's account, whichever process ran it: the surviving
         engine's metrics and graph sizes, its restarts, recovery and
         degradation, the faults its derived plan fired, the SMT budget
         hits it took in a shard worker, and its compute and check timers.
         Plain data, so it crosses the shard-process boundary as it is *)
}

let context_strings (p : prepared) inst =
  let rec go inst acc =
    let i = Clone_tree.instance p.clones inst in
    let meth_id =
      Jir.Ast.meth_id (Icfet.cfet p.icfet i.Clone_tree.meth).Cfet.meth
    in
    match i.Clone_tree.parent with
    | None -> meth_id :: acc
    | Some (caller, _) -> go caller (meth_id :: acc)
  in
  go inst []

(* A human-relevant witness: keep entry/method parameters (symbols of the
   form Method::param with no statement suffix and no generated marker) and
   order them by name. *)
let witness_of_constraint (f : Smt.Formula.t) : (string * int) list =
  match Smt.Solver.check_with_model f with
  | Smt.Solver.Model_sat (Some model) ->
      model
      |> List.filter_map (fun (sym, v) ->
             let name = Smt.Symbol.name sym in
             if
               String.length name > 0
               && (not (String.contains name '@'))
               && (not (String.contains name '$'))
             then Some (name, v)
             else None)
      |> List.sort_uniq compare
  | Smt.Solver.Model_sat None | Smt.Solver.Model_unsat
  | Smt.Solver.Model_unknown ->
      []

(* An instance's private workdir: its partitions and checkpoint manifest. *)
let instance_workdir (p : prepared) (fsm : Fsm.t) =
  Filename.concat p.config.workdir ("df-" ^ fsm.Fsm.name)

(* Best-effort removal of an instance's partition files, by workdir name:
   the engine that wrote them may live in another process, or be gone. *)
let sweep_instance_workdir dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

(* Give up on an instance, whichever executor lost it: nothing will resume
   from its partition files, and its only report is [Inconclusive], so the
   gap in coverage is visible in the output. *)
let degrade (p : prepared) (fsm : Fsm.t) ~reg reason =
  sweep_instance_workdir (instance_workdir p fsm);
  count reg "pipeline.inconclusive" 1;
  { fsm;
    reports =
      [ { Report.checker = fsm.Fsm.name;
          kind = Report.Inconclusive reason;
          cls = "";
          alloc_at = { Jir.Ast.file = "<" ^ fsm.Fsm.name ^ ">"; line = 0 };
          site = None;
          context = [];
          witness = [];
          trace = [] } ];
    degraded = Some reason;
    metrics = reg }

(* A fresh phase-2 engine for one attempt, seeded from the property's
   dataflow graph: the builder writes the seeds straight into the engine's
   seed buffer. *)
let instance_engine (p : prepared) (fsm : Fsm.t) ~comp =
  let workdir = instance_workdir p fsm in
  let engine =
    Dataflow_engine.create ~config:{ p.config.engine with Engine.workdir }
      ~decode:(fun enc -> Icfet.constraint_of p.icfet enc)
      ~workdir ()
  in
  let dg =
    timed_span "phase2.dataflow_graph" comp (fun () ->
        Dataflow_graph.build ~seeds:(Dataflow_engine.seeds engine) p.icfet
          p.clones p.alias_graph p.flows fsm)
  in
  (dg, engine)

(* One attempt at phases 2 and 3 for one property; raises on storage faults
   that survived the engine's op-level retries and on budget exhaustion. *)
let attempt_property (p : prepared) (fsm : Fsm.t) ~comp ~chk
    (dg, engine) ~resume : Report.t list =
  timed_span "phase2.dataflow_closure" comp (fun () ->
      Dataflow_engine.run ~resume engine);
  (* phase 3: read each Track fact's state, or its first error, off the
     label *)
  let by_source = Hashtbl.create 64 in
  List.iter
    (fun (tr : Dataflow_graph.tracked) ->
      Hashtbl.replace by_source tr.Dataflow_graph.source_vertex tr)
    (Dataflow_graph.tracked dg);
  let reports = ref [] in
  timed_span "phase3.fsm_check" chk (fun () ->
      Dataflow_engine.iter_result_edges engine (fun ~src ~dst ~label enc ->
          match (Dg.of_int label, Hashtbl.find_opt by_source src) with
          | Dg.Track code, Some tr -> (
              let cls = tr.Dataflow_graph.cls in
              let mk kind site =
                let enc = enc () in
                { Report.checker = fsm.Fsm.name;
                  kind;
                  cls;
                  alloc_at = tr.Dataflow_graph.at;
                  site;
                  context = context_strings p tr.Dataflow_graph.alloc_inst;
                  witness =
                    witness_of_constraint (Icfet.constraint_of p.icfet enc);
                  trace = Icfet.trace_of p.icfet enc }
              in
              match Dataflow_graph.fact dg code with
              | Dataflow_graph.Error_at site ->
                  reports :=
                    mk
                      (Report.Error_state
                         (Fsm.describe_state fsm fsm.Fsm.error ~cls))
                      (Some site)
                    :: !reports
              | Dataflow_graph.In_state state -> (
                  (* leaks are reported at normal program exits only: paths
                     that die from an uncaught exception terminate the
                     process, which reclaims the resource *)
                  match Dataflow_graph.exit_kind dg dst with
                  | Some Dataflow_graph.Exit_normal
                    when not (Fsm.is_accepting fsm state) ->
                      reports :=
                        mk (Report.Leak (Fsm.describe_state fsm state ~cls))
                          None
                        :: !reports
                  | _ -> ()))
          | _ -> ()));
  Report.dedup (List.rev !reports)

(* Phases 2 and 3 for one property on the retry ladder.  All accounting
   goes to [reg] — never to [p] — so the instance can run in a worker
   process and send its account back.  [resume_first]: the very first
   attempt already resumes from the instance's checkpoint manifest — a
   shard worker re-dispatched after its predecessor died continues that
   predecessor's work. *)
let supervise ?(resume_first = false) (p : prepared) (fsm : Fsm.t) ~reg =
  let comp = ref 0. and chk = ref 0. in
  let outcome =
    retry_ladder p.config.engine ~reg
      ~resume:(p.config.resume || resume_first)
      ~create:(fun () -> instance_engine p fsm ~comp)
      ~op_retries:(fun (_, e) ->
        Engine.Metrics.count
          (Dataflow_engine.metrics e).Engine.Metrics.retries)
      ~attempt:(fun inst ~resume ->
        Ok (attempt_property p fsm ~comp ~chk inst ~resume, inst))
      ~past_limit:(function
        | Engine.Faults.Injected r | Sys_error r | Engine.Budget_exhausted r ->
            Error r
        | exn -> Error (Printexc.to_string exn))
  in
  add_seconds reg "pipeline.compute_s" !comp;
  add_seconds reg "pipeline.check_s" !chk;
  outcome

(* The one instance body, whatever executes it.  It installs the
   instance's fault plan — a private stream derived from [base] and salted
   with the instance's name ([None]: no faults) — and its storage scope,
   climbs the retry ladder, and counts everything into a fresh registry
   that travels in the result. *)
let run_instance ?resume_first (p : prepared) (fsm : Fsm.t) ~base :
    property_result =
  let reg = Obs.Registry.create () in
  let saved = Engine.Faults.current () in
  let install = function
    | Some pl -> Engine.Faults.install pl
    | None -> Engine.Faults.clear ()
  in
  let salt = Engine.Faults.salt_of_string fsm.Fsm.name in
  let plan = Option.map (fun b -> Engine.Faults.derive b ~salt) base in
  install plan;
  Engine.Faults.set_scope (Some ("df-" ^ fsm.Fsm.name));
  Fun.protect
    ~finally:(fun () ->
      Engine.Faults.set_scope None;
      install saved)
  @@ fun () ->
  let outcome = supervise ?resume_first p fsm ~reg in
  (* a derived plan's faults never reach the installed plan's
     [injected_count] *)
  Option.iter
    (fun pl -> count reg "pipeline.faults_injected" pl.Engine.Faults.n_injected)
    plan;
  match outcome with
  | Error reason -> degrade p fsm ~reg reason
  | Ok (reports, (dg, e)) ->
      count_engine reg
        ~vertices:(Dataflow_graph.n_vertices dg)
        ~seed_edges:(Dataflow_engine.n_seed_edges e)
        ~total_edges:(Dataflow_engine.total_edges e)
        ~partitions:(Dataflow_engine.n_partitions e)
        (Dataflow_engine.metrics e);
      { fsm; reports; degraded = None; metrics = reg }

(* ---------------- the instance scheduler ----------------

   Phases 2 and 3 are independent across properties: each checking instance
   owns its private workdir ([df-<name>]), engine, metrics, and retry
   state, and only reads the shared phase-0/1 results.  The scheduler
   orders the run's instances — one per property of
   [config.prefilter_properties] — largest-estimated-first, so the long
   poles start as early as possible, and runs every one through
   [run_instance] under a fault plan *derived* from the installed one,
   salted with the instance's stable identity: its fault stream depends
   only on its own operation history, never on where or alongside what it
   ran.  Results and schedule entries come back in canonical (input)
   order, and [stats] merges the instances' registries in that order.
   Reports, fault counters and statistics are therefore byte-identical at
   any process count, and a crashed run's checkpoints can be resumed at
   any other.

   [shard_procs] picks how the ordered instances run:

   - 0: one after another in the calling process.  A simulated crash
     ([Faults.Crash]) escapes like a process kill, with nothing of the
     in-memory run surviving — exactly what [--resume] is for.
   - N > 0: [Engine.Supervisor] runs each dispatch in its own forked
     process, at most N at a time, so an instance that OOMs or segfaults
     takes down only that process.  A lost instance is re-dispatched and
     resumes from its checkpoint manifest; each dispatch re-derives the
     instance's plan from scratch (fresh counters, same salt).  Past the
     engine's [max_retries] losses it degrades to [Inconclusive], like
     budget exhaustion. *)

type schedule_entry = {
  s_instance : string;  (* the FSM / checker name *)
  s_worker : int;       (* shard slot that ran it, 0 in-process; -1: lost
                           with its last worker process *)
  s_estimate : int;     (* size estimate that ordered the queue *)
  s_wall_s : float;     (* wall-clock of the instance on its worker *)
}

(* Cheap deterministic proxy for an instance's phase-2/3 size: its tracked
   allocation vertices weighted by their alias fan-out — approximately the
   dataflow seeds the instance will feed its engine. *)
let estimate_instance (p : prepared) (fsm : Fsm.t) : int =
  let n = ref 0 in
  for v = 0 to Alias_graph.n_vertices p.alias_graph - 1 do
    match Alias_graph.info p.alias_graph v with
    | Alias_graph.Obj_vertex { cls; _ } when Fsm.is_tracked fsm cls ->
        let fanout =
          match Hashtbl.find_opt p.flows v with
          | Some l -> List.length l
          | None -> 0
        in
        n := !n + 1 + fanout
    | _ -> ()
  done;
  !n

(* Largest first; ties broken by name so the order is deterministic. *)
let order_items (p : prepared) (fsms : Fsm.t list) =
  List.mapi (fun idx fsm -> (idx, fsm, estimate_instance p fsm)) fsms
  |> List.sort (fun (_, f1, e1) (_, f2, e2) ->
         match compare e2 e1 with
         | 0 -> compare f1.Fsm.name f2.Fsm.name
         | c -> c)

let check_properties (p : prepared) :
    property_result list * schedule_entry list =
  let order = Array.of_list (order_items p p.config.prefilter_properties) in
  let n = Array.length order in
  (* captured before any instance runs: every instance derives from the
     same base *)
  let base = Engine.Faults.current () in
  let finished = Array.make n None in  (* by input index *)
  let instance ~worker k ~resume_first =
    let _, fsm, est = order.(k) in
    Obs.Trace.with_span ~cat:"scheduler"
      ~args:[ ("instance", Obs.Trace.Str fsm.Fsm.name);
              ("worker", Obs.Trace.Int worker);
              ("estimate", Obs.Trace.Int est) ]
      "scheduler.instance"
      (fun () -> run_instance ~resume_first p fsm ~base)
  in
  let record k ~worker ~wall_s r =
    let idx, fsm, est = order.(k) in
    finished.(idx) <-
      Some
        ( r,
          { s_instance = fsm.Fsm.name; s_worker = worker; s_estimate = est;
            s_wall_s = wall_s } )
  in
  if p.config.shard_procs > 0 then begin
    let e = p.config.engine in
    let sup_config =
      { Engine.Supervisor.procs = p.config.shard_procs;
        max_redispatch = e.Engine.max_retries;
        retry_base_ms = e.Engine.retry_base_ms }
    in
    (* runs inside the forked worker, which does not know its slot; its
       trace spans stay in that process.  So do its SMT budget hits: the
       instance's registry carries them back, as it carries a derived
       plan's faults *)
    let run_task ~task ~attempt =
      let _, fsm, _ = order.(task) in
      (* a re-dispatch resumes only a checkpoint its predecessor wrote:
         probing for a missing manifest would draw a read from the
         instance's fault stream, which the run without the lost worker
         never draws *)
      let resume_first =
        attempt > 0
        && Sys.file_exists
             (Engine.Manifest.path ~workdir:(instance_workdir p fsm))
      in
      let hits () = Smt.Solver.stats.Smt.Solver.budget_hits in
      let hits0 = hits () in
      let r = instance ~worker:(-1) task ~resume_first in
      count r.metrics "smt.budget_hits" (hits () - hits0);
      Marshal.to_string (r : property_result) []
    in
    let outcomes =
      Obs.Trace.with_span ~cat:"scheduler"
        ~args:[ ("procs", Obs.Trace.Int p.config.shard_procs);
                ("instances", Obs.Trace.Int n) ]
        "scheduler.shard"
        (fun () ->
          Engine.Supervisor.run ~reg:p.run_metrics ~config:sup_config
            ~tasks:(Array.map (fun (_, f, _) -> f.Fsm.name) order)
            ~run_task ())
    in
    Array.iteri
      (fun k -> function
        | Engine.Supervisor.Completed { payload; slot; wall_s } ->
            record k ~worker:slot ~wall_s
              (Marshal.from_string payload 0 : property_result)
        | Engine.Supervisor.Degraded reason ->
            let _, fsm, _ = order.(k) in
            record k ~worker:(-1) ~wall_s:0.
              (degrade p fsm ~reg:(Obs.Registry.create ()) reason))
      outcomes
  end
  else
    for k = 0 to n - 1 do
      let t0 = Unix.gettimeofday () in
      let r = instance ~worker:0 k ~resume_first:false in
      record k ~worker:0 ~wall_s:(Unix.gettimeofday () -. t0) r
    done;
  List.split (Array.to_list (Array.map Option.get finished))

(* ---------------- aggregate statistics (Tables 3-5, Figure 9) -------- *)

type stats = {
  n_vertices : int;
  n_edges_before : int;
  n_edges_after : int;
  preprocess_s : float;
  compute_s : float;
  total_s : float;
  n_partitions : int;
  n_iterations : int;
  n_constraints_solved : int;
  cache_enabled : bool;
  cache_lookups : int;
  cache_hits : int;
  solve_s : float;
  bytes_read : int;    (* partition bytes read across all engines *)
  bytes_written : int; (* partition bytes written across all engines *)
  breakdown : (string * float) list;
  n_prefiltered : int;
      (* always 0: no tier resolves an allocation outside the engine; kept
         for consumers that still read it *)
  n_summary_pruned : int;
      (* tracked allocations the interprocedural summary stage dropped *)
  n_alias_pruned : int;
      (* always 0: the points-to analysis prunes no allocation; kept for
         consumers that still read it *)
  n_edges_presliced : int;
      (* alias-graph edges built before points-to slicing *)
  n_edges_sliced : int;  (* Assign edges the points-to slicer removed *)
  edges_added : int;  (* transitive edges derived across all engines *)
  n_retried : int;
      (* retry events: storage-op retries plus supervisor instance restarts *)
  n_recovered : int;     (* instances that succeeded after a restart *)
  n_inconclusive : int;  (* instances degraded to [Inconclusive] *)
  n_smt_budget_hits : int;
      (* DPLL(T) budget cuts (answered Unknown => assumed feasible) *)
  n_faults_injected : int;  (* injected faults fired during this run *)
  n_corrupt_recovered : int;
      (* partition reads that recovered a valid prefix from damage *)
  registry : Obs.Registry.t;
      (* the merge every field above is read from: engine counters, timers
         and histograms plus the pipeline-, supervisor- and solver-level
         entries, for [--metrics-json] and programmatic consumers *)
}

(* One canonical merge: the run's registry, then each instance's in [props]
   order, into a fresh registry, so float sums take the same sequence
   whichever process ran what, and a second call gives the same result.
   Every metric any engine registered is summed by name, so none can be
   lost.  The registries count only what the calling process's global
   counters cannot see; the totals add those: the surviving engines' op
   retries, and the SMT budget hits and installed-plan faults of this
   process since phase 1 began. *)
let stats (p : prepared) (props : property_result list) : stats =
  let reg = Obs.Registry.create () in
  Obs.Registry.merge ~into:reg p.run_metrics;
  List.iter (fun pr -> Obs.Registry.merge ~into:reg pr.metrics) props;
  let m = Engine.Metrics.of_registry reg in
  let value name = Obs.Registry.value (Obs.Registry.counter reg name) in
  let seconds name = Obs.Registry.gauge_value (Obs.Registry.gauge reg name) in
  let total name n =
    count reg name n;
    value name
  in
  let c = Engine.Metrics.count in
  let n_retried = total "pipeline.retried" (c m.Engine.Metrics.retries) in
  let n_smt_budget_hits =
    total "smt.budget_hits"
      (max 0 (Smt.Solver.stats.Smt.Solver.budget_hits - p.smt_budget_hits0))
  in
  let n_faults_injected =
    total "pipeline.faults_injected"
      (max 0 (Engine.Faults.injected_count () - p.faults_injected0))
  in
  let preprocess_s = seconds "pipeline.preprocess_s"
  and compute_s = seconds "pipeline.compute_s"
  and check_s = seconds "pipeline.check_s" in
  { n_vertices = value "pipeline.vertices";
    n_edges_before = value "pipeline.edges_before";
    n_edges_after = value "pipeline.edges_after";
    preprocess_s;
    compute_s;
    total_s = preprocess_s +. compute_s +. check_s;
    n_partitions = value "pipeline.partitions";
    n_iterations = c m.Engine.Metrics.pairs_processed;
    n_constraints_solved = c m.Engine.Metrics.constraints_solved;
    cache_enabled = p.config.engine.Engine.cache_enabled;
    cache_lookups = c m.Engine.Metrics.cache_lookups;
    cache_hits = c m.Engine.Metrics.cache_hits;
    solve_s = Engine.Metrics.seconds m.Engine.Metrics.solve_s;
    bytes_read = c m.Engine.Metrics.bytes_read;
    bytes_written = c m.Engine.Metrics.bytes_written;
    breakdown = Engine.Metrics.breakdown m;
    n_prefiltered = 0;
    n_summary_pruned = value "pipeline.summary_pruned";
    n_alias_pruned = 0;
    n_edges_presliced = p.n_edges_presliced;
    n_edges_sliced = value "pipeline.edges_sliced";
    edges_added = c m.Engine.Metrics.edges_added;
    n_retried;
    n_recovered = value "pipeline.recovered";
    n_inconclusive = value "pipeline.inconclusive";
    n_smt_budget_hits;
    n_faults_injected;
    n_corrupt_recovered = c m.Engine.Metrics.corrupt_reads;
    registry = reg }

(* Remove the files the engines wrote, then their directories and the
   workdir, each once it is empty. *)
let cleanup (p : prepared) (props : property_result list) =
  let rmdir dir = try Sys.rmdir dir with Sys_error _ -> () in
  Alias_engine.cleanup p.alias_engine;
  List.iter
    (fun pr ->
      let dir = instance_workdir p pr.fsm in
      sweep_instance_workdir dir;
      rmdir dir)
    props;
  rmdir (Filename.concat p.config.workdir "alias");
  rmdir p.config.workdir
