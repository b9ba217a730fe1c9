(* The Grapple pipeline (paper §2.2): frontend -> ICFET + program graphs ->
   phase 1 path-sensitive alias computation -> phase 2 path-sensitive
   dataflow computation (per FSM property) -> phase 3 FSM checking.

   [prepare] runs the frontend once per program: loop unrolling, ICFET
   construction, clone-tree planning, alias-graph generation, and the
   phase-1 engine run.  [check_properties] then runs phases 2 and 3 for
   each FSM specification against the prepared state ([attempt_property]
   is one instance's closure and check), so several checkers share one
   alias computation exactly as in the paper. *)

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
  library_throwers : (string * string * string) list;
      (* (class, method, exception) for library calls that may throw *)
  track_null : bool;
      (* materialize [null] pseudo-allocations in the alias graph so the
         null-dereference checker can track them; off by default because
         the extra sources enlarge the closure for every property *)
  prefilter_properties : Fsm.t list;
      (* the FSMs whose tracked allocations the summary tier may prune;
         empty disables the tier regardless of [summary_prefilter] *)
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
  max_retries : int;
      (* supervisor restarts per checking instance (each restart resumes
         from the instance's last checkpoint) before the instance is
         degraded to an [Inconclusive] report *)
  instance_budget_s : float;
      (* wall-clock budget per checking instance per attempt; 0 = unlimited.
         Applied to the per-property dataflow engines only — phase 1 is
         shared preprocessing, not an instance *)
  instance_edge_budget : int;
      (* transitive-edge budget per checking instance; 0 = unlimited *)
  resume : bool;
      (* continue from the checkpoint manifests found in [workdir]
         (`grapple check --resume`); fresh sub-runs where none validate *)
  workers : int;
      (* worker domains for the phase-2/3 instance scheduler
         ([check_properties]); 1 runs the instances in the calling domain.
         Whatever the count, the scheduler produces byte-identical reports
         and counters *)
  shard_procs : int;
      (* worker *processes* for the phase-2/3 instances (ISSUE 8): 0 runs
         them in-process (on [workers] domains); N > 0 forks N crash-isolated
         worker processes supervised with heartbeats and re-dispatch.
         Reports are byte-identical at every process count *)
  heartbeat_ms : float;
      (* shard-worker heartbeat period; a worker silent for
         [Supervisor.max_missed_heartbeats] periods is presumed hung *)
  max_redispatch : int;
      (* re-dispatches of a checking instance whose worker process died
         before the instance degrades to an [Inconclusive] report *)
  shard_deadline_s : float;
      (* wall deadline per instance dispatch in shard mode; 0 = none *)
  shard_kill_nth : int;
      (* deterministic fault injection: SIGKILL the worker receiving the
         Nth instance assignment of the run (0 = off) *)
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
    track_null = false;
    prefilter_properties = [];
    summary_prefilter = true;
    alias_prefilter = true;
    max_retries = 3;
    instance_budget_s = 0.;
    instance_edge_budget = 0;
    resume = false;
    workers = 1;
    shard_procs = 0;
    heartbeat_ms = 100.;
    max_redispatch = 3;
    shard_deadline_s = 0.;
    shard_kill_nth = 0;
    weaken_tier = None }

type timing = {
  mutable preprocess_s : float;  (* frontend + graph generation + loading *)
  mutable compute_s : float;     (* engine closures *)
  mutable check_s : float;       (* phase 3 *)
}

(* Counters maintained by the supervisor across the run.  The two [..0]
   fields snapshot process-global counters at [prepare] so [stats] can
   report per-run deltas. *)
type fault_stats = {
  mutable n_retried : int;
      (* retry events: supervisor-level instance restarts plus storage-op
         retries salvaged from failed attempts (op retries of surviving
         engines are added by [stats] from their metrics) *)
  mutable n_recovered : int;  (* instances that succeeded after >= 1 restart *)
  mutable n_inconclusive : int;  (* instances degraded past the retry limit *)
  mutable n_instance_injected : int;
      (* injected faults fired by the per-instance fault plans the parallel
         scheduler derives; the calling domain's plan never sees those ops,
         so [stats] adds this on top of its own [injected_count] delta *)
  mutable n_worker_budget_hits : int;
      (* DPLL(T) budget hits inside shard worker processes, which the
         process-global counter behind [smt_budget_hits0] never sees *)
  smt_budget_hits0 : int;
  faults_injected0 : int;
}

(* Per-instance accounting: phases 2 and 3 write here instead of mutating
   [prepared] directly, so instances running on worker domains stay free of
   shared mutable state.  The scheduler merges accounts into [timing] and
   [fault_stats] in canonical instance order once every worker has joined —
   the aggregate is the same whatever the interleaving was. *)
type acct = {
  mutable a_compute_s : float;
  mutable a_check_s : float;
  mutable a_retried : int;
  mutable a_recovered : int;
  mutable a_inconclusive : int;
  mutable a_injected : int;  (* fired by this instance's derived plan *)
  mutable a_budget_hits : int;
      (* SMT budget hits, counted only when the instance ran in a shard
         worker process: in-process hits already reach the global counter *)
}

let fresh_acct () =
  { a_compute_s = 0.; a_check_s = 0.; a_retried = 0; a_recovered = 0;
    a_inconclusive = 0; a_injected = 0; a_budget_hits = 0 }

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
  faults : fault_stats;
  sup_reg : Obs.Registry.t;
      (* the shard supervisor's metric registry (spawns, kills,
         re-dispatches, heartbeat latency); empty in in-process runs *)
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

let merge_acct (p : prepared) (a : acct) =
  p.timing.compute_s <- p.timing.compute_s +. a.a_compute_s;
  p.timing.check_s <- p.timing.check_s +. a.a_check_s;
  p.faults.n_retried <- p.faults.n_retried + a.a_retried;
  p.faults.n_recovered <- p.faults.n_recovered + a.a_recovered;
  p.faults.n_inconclusive <- p.faults.n_inconclusive + a.a_inconclusive;
  p.faults.n_instance_injected <- p.faults.n_instance_injected + a.a_injected;
  p.faults.n_worker_budget_hits <-
    p.faults.n_worker_budget_hits + a.a_budget_hits

(* The one retry ladder, shared by the phase-1 alias run and every checking
   instance.  Each attempt runs a fresh engine from [create]; the first
   resumes from the checkpoint manifests only when [resume] says so, every
   later one always does, so each attempt makes net progress.  A storage
   fault that outlived the engine's own op-level retries, or budget
   exhaustion, fails the attempt: its op-retry count is kept in [acct], and
   the attempt is repeated after a deterministic backoff, up to
   [max_retries] times.  Past the limit [past_limit] decides — phase 1
   re-raises, an instance degrades.  Simulated crashes ([Faults.Crash]) are
   deliberately not caught. *)
let retry_ladder (config : config) ~(acct : acct) ~resume ~create ~op_retries
    ~attempt ~past_limit =
  let rec go n =
    let e = create () in
    match attempt e ~resume:(resume || n > 0) with
    | r ->
        if n > 0 then acct.a_recovered <- acct.a_recovered + 1;
        r
    | exception
        ((Engine.Faults.Injected _ | Sys_error _ | Engine.Budget_exhausted _)
         as exn) ->
        acct.a_retried <- acct.a_retried + op_retries e;
        if n >= config.max_retries then past_limit exn
        else begin
          acct.a_retried <- acct.a_retried + 1;
          Unix.sleepf
            (Engine.Faults.backoff_delay_s
               ~seed:config.engine.Engine.retry_seed
               ~base_ms:config.engine.Engine.retry_base_ms ~attempt:n);
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
  let timing = { preprocess_s = 0.; compute_s = 0.; check_s = 0. } in
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
        if config.summary_prefilter && config.prefilter_properties <> [] then begin
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
  (* whole-program Andersen points-to over the unrolled program, for the
     closure-graph slicer below (the benchmark reads this span by its
     name) *)
  let pointsto =
    timed_span "phase0.alias_prefilter" pre (fun () ->
        if config.alias_prefilter then
          Some (Analysis.Pointsto.analyze ~track_null:config.track_null program)
        else None)
  in
  let alias_graph =
    timed_span "phase0.alias_graph" pre (fun () ->
        Alias_graph.build ~track_null:config.track_null
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
  let smt_budget_hits0 = Atomic.get Smt.Solver.stats.Smt.Solver.budget_hits in
  let faults_injected0 = Engine.Faults.injected_count () in
  let alias_workdir = Filename.concat config.workdir "alias" in
  let engine_config = { config.engine with Engine.workdir = alias_workdir } in
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
        Alias_engine.iter_result_edges e (fun edge ->
            match edge.Alias_engine.label with
            | Pg.Flows_to -> (
                match Alias_graph.info alias_graph edge.Alias_engine.src with
                | Alias_graph.Obj_vertex _ ->
                    incr n_alias_pairs;
                    let cur =
                      Option.value ~default:[]
                        (Hashtbl.find_opt flows edge.Alias_engine.src)
                    in
                    Hashtbl.replace flows edge.Alias_engine.src
                      ((edge.Alias_engine.dst, edge.Alias_engine.enc) :: cur)
                | Alias_graph.Var_vertex _ -> ())
            | _ -> ()));
    (e, flows, !n_alias_pairs)
  in
  let acct = fresh_acct () in
  let alias_engine, flows, n_alias_pairs =
    retry_ladder config ~acct ~resume:config.resume ~create:mk_alias_engine
      ~op_retries:(fun e ->
        Engine.Metrics.count (Alias_engine.metrics e).Engine.Metrics.retries)
      ~attempt:alias_attempt ~past_limit:raise
  in
  let faults =
    { n_retried = acct.a_retried; n_recovered = acct.a_recovered;
      n_inconclusive = 0; n_instance_injected = 0; n_worker_budget_hits = 0;
      smt_budget_hits0;
      faults_injected0 }
  in
  timing.preprocess_s <- !pre;
  timing.compute_s <- !comp;
  { config; program; icfet; callgraph; clones; alias_graph; alias_engine;
    flows; n_alias_pairs; summary_pruned; n_edges_presliced; n_edges_sliced;
    timing; faults; sup_reg = Obs.Registry.create () }

(* ---------------- phases 2 and 3 for one property ---------------- *)

(* What a finished instance leaves behind in place of its engine: the
   scalar totals [stats] needs plus the engine's full metric registry.
   Plain data, so it crosses the shard-process boundary as it is; the same
   record comes back from a domain or a worker process. *)
type instance_summary = {
  sm_vertices : int;     (* dataflow-graph vertices *)
  sm_seed_edges : int;
  sm_total_edges : int;  (* exact, counted before the engine is dropped *)
  sm_partitions : int;
  sm_metrics : Obs.Registry.t;
}

type property_result = {
  fsm : Fsm.t;
  reports : Report.t list;
  degraded : string option;
      (* [Some reason] when the supervisor gave up on this instance; its
         only report is the matching [Inconclusive] entry *)
  summary : instance_summary option;  (* [None] only when degraded *)
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

(* The degraded stand-in for an instance the supervisor gave up on: one
   [Inconclusive] report so the gap in coverage is visible in the output,
   no engine state. *)
let inconclusive_result (fsm : Fsm.t) (reason : string) : property_result =
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
    summary = None }

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
   from its partition files, and its only report is [Inconclusive]. *)
let degrade (p : prepared) (fsm : Fsm.t) ~(acct : acct) reason =
  sweep_instance_workdir (instance_workdir p fsm);
  acct.a_inconclusive <- acct.a_inconclusive + 1;
  inconclusive_result fsm reason

(* Per-instance engine configuration: the pipeline-level budgets override
   the engine defaults when set. *)
let instance_engine_config (config : config) ~workdir : Engine.config =
  { config.engine with
    Engine.workdir;
    edge_budget =
      (if config.instance_edge_budget > 0 then config.instance_edge_budget
       else config.engine.Engine.edge_budget);
    wall_budget_s =
      (if config.instance_budget_s > 0. then config.instance_budget_s
       else config.engine.Engine.wall_budget_s) }

(* A fresh phase-2 engine for one attempt, seeded from the property's
   dataflow graph: the builder writes the seeds straight into the engine's
   seed buffer. *)
let instance_engine (p : prepared) (fsm : Fsm.t) ~comp =
  let workdir = instance_workdir p fsm in
  let engine_config = instance_engine_config p.config ~workdir in
  let engine =
    Dataflow_engine.create ~config:engine_config
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
      Dataflow_engine.iter_result_edges engine (fun e ->
          match
            (e.Dataflow_engine.label, Hashtbl.find_opt by_source e.Dataflow_engine.src)
          with
          | Dg.Track code, Some tr -> (
              let cls = tr.Dataflow_graph.cls in
              let mk kind site =
                { Report.checker = fsm.Fsm.name;
                  kind;
                  cls;
                  alloc_at = tr.Dataflow_graph.at;
                  site;
                  context = context_strings p tr.Dataflow_graph.alloc_inst;
                  witness =
                    witness_of_constraint
                      (Icfet.constraint_of p.icfet e.Dataflow_engine.enc);
                  trace = Icfet.trace_of p.icfet e.Dataflow_engine.enc }
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
                  match Dataflow_graph.exit_kind dg e.Dataflow_engine.dst with
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
   goes to [acct] — never to [p] — so the instance can run on a worker
   domain or in a worker process without sharing mutable state with its
   siblings.  [resume_first]: the very first attempt already resumes from
   the instance's checkpoint manifest — a shard worker re-dispatched after
   its predecessor died continues that predecessor's work. *)
let supervise ?(resume_first = false) (p : prepared) (fsm : Fsm.t)
    ~(acct : acct) =
  let comp = ref 0. and chk = ref 0. in
  let outcome =
    retry_ladder p.config ~acct ~resume:(p.config.resume || resume_first)
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
  acct.a_compute_s <- acct.a_compute_s +. !comp;
  acct.a_check_s <- acct.a_check_s +. !chk;
  outcome

(* The fault plan an instance runs under. *)
type instance_plan =
  | Ambient  (* the calling domain's plan, as installed *)
  | Derived of Engine.Faults.plan option
      (* a private stream derived from this base plan ([None]: no faults),
         salted with the instance's name *)

(* The one instance body, whatever executes it.  It installs the
   instance's plan and storage scope, climbs the retry ladder, and reduces
   the engine to an [instance_summary].  Returns the result and the
   instance's account, for the caller to merge. *)
let run_instance ?resume_first (p : prepared) (fsm : Fsm.t) ~plan :
    property_result * acct =
  let acct = fresh_acct () in
  let saved = Engine.Faults.current () in
  let install = function
    | Some pl -> Engine.Faults.install pl
    | None -> Engine.Faults.clear ()
  in
  let active =
    match plan with
    | Ambient -> saved
    | Derived base ->
        Option.map
          (fun b ->
            Engine.Faults.derive b
              ~salt:(Engine.Faults.salt_of_string fsm.Fsm.name))
          base
  in
  install active;
  Engine.Faults.set_scope (Some ("df-" ^ fsm.Fsm.name));
  Fun.protect
    ~finally:(fun () ->
      Engine.Faults.set_scope None;
      install saved)
  @@ fun () ->
  let outcome = supervise ?resume_first p fsm ~acct in
  (* a derived plan's faults never reach the calling domain's
     [injected_count]; the account carries them *)
  (match (plan, active) with
  | Derived _, Some pl -> acct.a_injected <- pl.Engine.Faults.n_injected
  | _ -> ());
  let r =
    match outcome with
    | Error reason -> degrade p fsm ~acct reason
    | Ok (reports, (dg, e)) ->
        let m = Dataflow_engine.metrics e in
        { fsm; reports; degraded = None;
          summary =
            Some
              { sm_vertices = Dataflow_graph.n_vertices dg;
                sm_seed_edges = Dataflow_engine.n_seed_edges e;
                sm_total_edges = Dataflow_engine.total_edges e;
                sm_partitions = Dataflow_engine.n_partitions e;
                sm_metrics = Engine.Metrics.registry m } }
  in
  (r, acct)

(* One instance under the ambient plan: the entry for callers checking a
   single property outside the scheduler. *)
let check_property (p : prepared) (fsm : Fsm.t) : property_result =
  let r, acct = run_instance p fsm ~plan:Ambient in
  merge_acct p acct;
  r

(* ---------------- the instance scheduler ----------------

   Phases 2 and 3 are independent across properties: each checking instance
   owns its private workdir ([df-<name>]), engine, metrics, and retry
   state, and only reads the shared phase-0/1 results.  The scheduler
   orders one run's instances largest-estimated-first, so the long poles
   start as early as possible, and runs every one through [run_instance]
   under a fault plan *derived* from the run's, salted with the instance's
   stable identity: its fault stream depends only on its own operation
   history, never on where or alongside what it ran.  Accounts and schedule
   entries are merged in canonical (input) order at the end.  Reports, fault
   counters and statistics are therefore byte-identical whichever executor
   ran the instances, at any worker or process count, and a crashed run's
   checkpoints can be resumed by a run with any other executor.

   The only choice is the executor, made by [shard_procs]:

   - 0: a pool of [workers] domains pulling from a shared cursor over the
     ordered instances (one worker runs in the calling domain).  A
     simulated crash ([Faults.Crash]) behaves like a process kill: the pool
     stops pulling work and the crash is re-raised once every worker has
     joined, with nothing of the in-memory run surviving — exactly what
     [--resume] is for.
   - N > 0: [Engine.Supervisor] runs each dispatch in one of N forked worker
     processes, so an instance that OOMs, segfaults, or wedges takes down
     only its worker.  A lost instance is re-dispatched and resumes from its
     checkpoint manifest; each dispatch re-derives the instance's plan from
     scratch (fresh counters, same salt).  Past [max_redispatch] losses it
     degrades to [Inconclusive], like budget exhaustion. *)

type schedule_entry = {
  s_instance : string;  (* the FSM / checker name *)
  s_worker : int;       (* worker slot that ran it; -1: lost with its last
                           worker process *)
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

let check_properties (p : prepared) (fsms : Fsm.t list) :
    property_result list * schedule_entry list =
  let order = Array.of_list (order_items p fsms) in
  let n = Array.length order in
  (* captured in the calling domain, before any fork: every instance
     derives from the same base *)
  let base_plan = Engine.Faults.current () in
  let finished = Array.make n None in  (* by input index *)
  let instance ~worker k ~resume_first =
    let _, fsm, est = order.(k) in
    Obs.Trace.with_span ~cat:"scheduler"
      ~args:[ ("instance", Obs.Trace.Str fsm.Fsm.name);
              ("worker", Obs.Trace.Int worker);
              ("estimate", Obs.Trace.Int est) ]
      "scheduler.instance"
      (fun () -> run_instance ~resume_first p fsm ~plan:(Derived base_plan))
  in
  let record k ~worker ~wall_s (r, acct) =
    let idx, fsm, est = order.(k) in
    finished.(idx) <-
      Some
        ( r,
          acct,
          { s_instance = fsm.Fsm.name; s_worker = worker; s_estimate = est;
            s_wall_s = wall_s } )
  in
  if p.config.shard_procs > 0 then begin
    let sup_config =
      { Engine.Supervisor.default_config with
        Engine.Supervisor.procs = p.config.shard_procs;
        heartbeat_ms = p.config.heartbeat_ms;
        deadline_s = p.config.shard_deadline_s;
        max_redispatch = p.config.max_redispatch;
        retry_seed = p.config.engine.Engine.retry_seed;
        retry_base_ms = p.config.engine.Engine.retry_base_ms;
        kill_nth = p.config.shard_kill_nth }
    in
    (* runs inside the forked worker, which does not know its slot; its
       trace spans stay in that process.  So do its SMT budget hits: the
       account carries them back, as it carries a derived plan's faults *)
    let run_task ~task ~attempt =
      let hits () = Atomic.get Smt.Solver.stats.Smt.Solver.budget_hits in
      let hits0 = hits () in
      let r, acct = instance ~worker:(-1) task ~resume_first:(attempt > 0) in
      acct.a_budget_hits <- hits () - hits0;
      Marshal.to_string (r, acct) []
    in
    let outcomes =
      Obs.Trace.with_span ~cat:"scheduler"
        ~args:[ ("procs", Obs.Trace.Int p.config.shard_procs);
                ("instances", Obs.Trace.Int n) ]
        "scheduler.shard"
        (fun () ->
          Engine.Supervisor.run ~reg:p.sup_reg ~config:sup_config
            ~tasks:(Array.map (fun (_, f, _) -> f.Fsm.name) order)
            ~run_task ())
    in
    Array.iteri
      (fun k -> function
        | Engine.Supervisor.Completed { payload; slot; wall_s } ->
            record k ~worker:slot ~wall_s (Marshal.from_string payload 0)
        | Engine.Supervisor.Degraded reason ->
            let _, fsm, _ = order.(k) in
            let acct = fresh_acct () in
            record k ~worker:(-1) ~wall_s:0. (degrade p fsm ~acct reason, acct))
      outcomes
  end
  else begin
    let next = Atomic.make 0 in
    let failure : exn option Atomic.t = Atomic.make None in
    let worker slot =
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n && Option.is_none (Atomic.get failure) then begin
          let t0 = Unix.gettimeofday () in
          match instance ~worker:slot k ~resume_first:false with
          | r ->
              record k ~worker:slot ~wall_s:(Unix.gettimeofday () -. t0) r;
              loop ()
          | exception exn ->
              (* a simulated crash (or unexpected error) kills the run:
                 record the first and stop the pool *)
              ignore (Atomic.compare_and_set failure None (Some exn))
        end
      in
      loop ()
    in
    let pool = min (max 1 p.config.workers) n in
    if pool <= 1 then worker 0
    else
      List.init pool (fun slot -> Domain.spawn (fun () -> worker slot))
      |> List.iter Domain.join;
    Option.iter raise (Atomic.get failure)
  end;
  (* canonical-order merge: float additions happen in the same sequence
     whichever executor ran what, and under any crash schedule *)
  let finished = Array.to_list (Array.map Option.get finished) in
  List.iter (fun (_, acct, _) -> merge_acct p acct) finished;
  ( List.map (fun (r, _, _) -> r) finished,
    List.map (fun (_, _, e) -> e) finished )

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
      (* the run's full merged metric registry (engine counters/timers/
         histograms plus pipeline- and solver-level entries), for
         [--metrics-json] and programmatic consumers *)
}

(* Registry-level merge: every metric each engine registered — counters,
   timers, histograms, including ones this module never heard of — is
   summed, in canonical order (the earlier field-by-field version silently
   dropped [edges_considered]; a name-driven merge cannot lose fields). *)
let combine_metrics (ms : Engine.Metrics.t list) : Engine.Metrics.t =
  let out = Engine.Metrics.create () in
  List.iter (fun m -> Engine.Metrics.merge ~into:out m) ms;
  out

let stats (p : prepared) (props : property_result list) : stats =
  let summaries = List.filter_map (fun pr -> pr.summary) props in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  let n_vertices =
    Alias_graph.n_vertices p.alias_graph + sum (fun s -> s.sm_vertices)
  in
  let n_edges_before =
    Alias_engine.n_seed_edges p.alias_engine + sum (fun s -> s.sm_seed_edges)
  in
  let n_edges_after =
    Alias_engine.total_edges p.alias_engine + sum (fun s -> s.sm_total_edges)
  in
  let n_partitions =
    Alias_engine.n_partitions p.alias_engine + sum (fun s -> s.sm_partitions)
  in
  let m =
    combine_metrics
      (Alias_engine.metrics p.alias_engine
      :: List.map (fun s -> Engine.Metrics.of_registry s.sm_metrics) summaries)
  in
  let count c = Engine.Metrics.count c in
  let n_retried = p.faults.n_retried + count m.Engine.Metrics.retries in
  let n_smt_budget_hits =
    max 0
      (Atomic.get Smt.Solver.stats.Smt.Solver.budget_hits
      - p.faults.smt_budget_hits0)
    + p.faults.n_worker_budget_hits
  in
  let n_faults_injected =
    max 0 (Engine.Faults.injected_count () - p.faults.faults_injected0)
    + p.faults.n_instance_injected
  in
  (* enrich the merged registry with the pipeline- and solver-level numbers
     so [--metrics-json] is one self-contained document *)
  let reg = Engine.Metrics.registry m in
  (* fold in the shard supervisor's counters (spawns/kills/re-dispatches,
     heartbeat histogram); empty when the run was in-process *)
  Obs.Registry.merge ~into:reg p.sup_reg;
  let set_g name v = Obs.Registry.gauge_set (Obs.Registry.gauge reg name) v in
  let set_c name v = Obs.Registry.set (Obs.Registry.counter reg name) v in
  set_g "pipeline.preprocess_s" p.timing.preprocess_s;
  set_g "pipeline.compute_s" p.timing.compute_s;
  set_g "pipeline.check_s" p.timing.check_s;
  set_c "pipeline.summary_pruned" (List.length p.summary_pruned);
  set_c "pipeline.edges_sliced" p.n_edges_sliced;
  set_c "pipeline.retried" n_retried;
  set_c "pipeline.recovered" p.faults.n_recovered;
  set_c "pipeline.inconclusive" p.faults.n_inconclusive;
  set_c "pipeline.faults_injected" n_faults_injected;
  set_c "smt.budget_hits" n_smt_budget_hits;
  { n_vertices;
    n_edges_before;
    n_edges_after;
    preprocess_s = p.timing.preprocess_s;
    compute_s = p.timing.compute_s;
    total_s = p.timing.preprocess_s +. p.timing.compute_s +. p.timing.check_s;
    n_partitions;
    n_iterations = count m.Engine.Metrics.pairs_processed;
    n_constraints_solved = count m.Engine.Metrics.constraints_solved;
    cache_enabled = p.config.engine.Engine.cache_enabled;
    cache_lookups = count m.Engine.Metrics.cache_lookups;
    cache_hits = count m.Engine.Metrics.cache_hits;
    solve_s = Engine.Metrics.seconds m.Engine.Metrics.solve_s;
    bytes_read = count m.Engine.Metrics.bytes_read;
    bytes_written = count m.Engine.Metrics.bytes_written;
    breakdown = Engine.Metrics.breakdown m;
    n_prefiltered = 0;
    n_summary_pruned = List.length p.summary_pruned;
    n_alias_pruned = 0;
    n_edges_presliced = p.n_edges_presliced;
    n_edges_sliced = p.n_edges_sliced;
    edges_added = count m.Engine.Metrics.edges_added;
    n_retried;
    n_recovered = p.faults.n_recovered;
    n_inconclusive = p.faults.n_inconclusive;
    n_smt_budget_hits;
    n_faults_injected;
    n_corrupt_recovered = count m.Engine.Metrics.corrupt_reads;
    registry = reg }

let cleanup (p : prepared) (props : property_result list) =
  Alias_engine.cleanup p.alias_engine;
  List.iter (fun pr -> sweep_instance_workdir (instance_workdir p pr.fsm)) props
