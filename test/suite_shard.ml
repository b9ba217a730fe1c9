(* Tests for the instance scheduler and the supervised multi-process
   shard runtime.

   The contract under test: checking instances run one after another in
   the calling process, or side by side in forked worker processes, and
   either way a run's rendered reports and every integer counter of its
   statistics are byte-identical — at every process count, under fault
   plans, and under deterministic SIGKILL injection.  A worker killed
   mid-instance is re-dispatched from its checkpoint manifest with zero
   lost instances; an instance that keeps losing its worker degrades to
   [Inconclusive] instead of stalling or aborting the run, past the
   engine's one retry cap; and a run crashed mid-flight in-process resumes
   at any process count with no loss.  Unit tests pin the supervisor
   itself: one process per dispatch, re-dispatch after a lost attempt, the
   degradation ladder, interrupts, reaping only its own children, and the
   checksummed result frame. *)

module Faults = Engine.Faults
module Supervisor = Engine.Supervisor
module Interrupt = Engine.Interrupt
module Pipeline = Grapple.Pipeline
module Report = Grapple.Report
module Generator = Workload.Generator
module R = Obs.Registry

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let cval reg name = R.value (R.counter reg name)

(* ---------------- subjects ---------------- *)

let quickstart_src =
  {|
class Main {
  void main(int a) {
    FileWriter out = null;
    FileWriter o = null;
    int x = a;
    int y = x;
    if (x >= 0) {
      out = new FileWriter();
      o = out;
      y = y - 1;
    } else {
      y = y + 1;
    }
    if (y > 0) {
      out.write(x);
      o.close();
    }
    return;
  }
}
entry Main.main;
|}

(* A small generated subject with bugs across several checkers, so the
   scheduler has real work on more than one instance. *)
let generated ~seed =
  let profile =
    { Generator.name = Printf.sprintf "par%d" seed;
      description = "scheduler differential subject";
      seed;
      layers = 2;
      classes_per_layer = 2;
      methods_per_class = 2;
      patterns_per_method = 2;
      calls_per_method = 1;
      bugs = [ ("io", 2); ("lock", 1); ("socket", 1) ];
      lint_bugs = [];
      loops_per_subject = 1 }
  in
  (Generator.generate profile).Generator.program

(* ---------------- the run-and-render helper ---------------- *)

type outcome = {
  o_reports : string;  (* per-checker rendered report lines *)
  o_counters : string; (* every integer field of [Pipeline.stats] *)
  o_stats : Pipeline.stats;
  o_schedule : Pipeline.schedule_entry list;
}

(* One report in full: its JSON line, the human line with its witness and
   recovered trace, and the allocation's calling context.  The JSON line
   alone omits the last three. *)
let render_report (r : Report.t) =
  Printf.sprintf "%s\n%s\n    context %s" (Report.to_json r)
    (Fmt.str "%a" Report.pp_with_trace r)
    (String.concat " > " r.Report.context)

let render results =
  String.concat "\n"
    (List.concat_map
       (fun (name, rs) -> List.map (fun r -> name ^ " " ^ render_report r) rs)
       results)

(* Superset of the CLI's `--json` stats trailer: if these match, the trailer
   matches. *)
let counters (s : Pipeline.stats) ~warnings =
  Printf.sprintf
    "warnings=%d vertices=%d edges_before=%d edges_after=%d partitions=%d \
     iterations=%d solved=%d cache=%d/%d added=%d pruned=%d \
     retried=%d recovered=%d inconclusive=%d smt_budget=%d injected=%d \
     corrupt=%d"
    warnings s.Pipeline.n_vertices s.Pipeline.n_edges_before
    s.Pipeline.n_edges_after s.Pipeline.n_partitions s.Pipeline.n_iterations
    s.Pipeline.n_constraints_solved s.Pipeline.cache_lookups
    s.Pipeline.cache_hits s.Pipeline.edges_added s.Pipeline.n_summary_pruned
    s.Pipeline.n_retried s.Pipeline.n_recovered
    s.Pipeline.n_inconclusive s.Pipeline.n_smt_budget_hits
    s.Pipeline.n_faults_injected s.Pipeline.n_corrupt_recovered

let engine_config ?budget ~workdir () =
  let c = Engine.default_config ~workdir in
  { c with
    Engine.retry_base_ms = 0.01;
    max_edges_per_partition =
      Option.value budget ~default:c.Engine.max_edges_per_partition }

(* A partition budget that keeps [generated ~seed:11]'s engines out of
   core, so a fault plan has partition writes and renames to hit. *)
let fault_budget = 64

(* One full run through the scheduler: in-process at [procs] 0, else in
   that many shard processes.  A fresh plan state is always installed (the
   given one, or none): fault-plan counters are stateful, so a
   differential comparison needs each run to start from the same plan
   state.  The ambient plan (e.g. the test runner's GRAPPLE_FAULT_PLAN) is
   restored afterwards.  [budget] is the engines' partition budget;
   [max_retries] is the engine's one retry cap, which also caps
   re-dispatches. *)
let run ?(procs = 0) ?(max_retries = 3) ?plan ?(resume = false) ?budget
    ?workdir program =
  let workdir = match workdir with Some d -> d | None -> Testdir.fresh () in
  let saved = Faults.current () in
  (match plan with
  | Some spec -> Faults.install (Faults.parse spec)
  | None -> Faults.clear ());
  Fun.protect
    ~finally:(fun () ->
      match saved with Some p -> Faults.install p | None -> Faults.clear ())
  @@ fun () ->
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      shard_procs = procs;
      resume;
      engine = { (engine_config ?budget ~workdir ()) with Engine.max_retries } }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let results, props, schedule =
    Checkers.run_all_scheduled prepared (Checkers.all_with_null ())
  in
  let stats = Pipeline.stats prepared props in
  let warnings =
    List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 results
  in
  { o_reports = render results;
    o_counters = counters stats ~warnings;
    o_stats = stats;
    o_schedule = schedule }

let check_same ~what base other =
  Alcotest.(check string) (what ^ ": reports") base.o_reports other.o_reports;
  Alcotest.(check string) (what ^ ": counters") base.o_counters other.o_counters

(* ---------------- supervisor unit tests ---------------- *)

(* Tiny backoffs so lost attempts settle quickly. *)
let sup_config ?(procs = 1) ?(max_redispatch = 2) () =
  { Supervisor.procs; max_redispatch; retry_base_ms = 0.01 }

let test_supervisor_completes () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg ~config:(sup_config ~procs:2 ())
      ~tasks:[| "a"; "b"; "c" |]
      ~run_task:(fun ~task ~attempt:_ -> Printf.sprintf "r%d" task)
      ()
  in
  Array.iteri
    (fun i o ->
      match o with
      | Supervisor.Completed { payload; slot; wall_s } ->
          Alcotest.(check string)
            (Printf.sprintf "task %d payload" i)
            (Printf.sprintf "r%d" i)
            payload;
          Alcotest.(check bool)
            (Printf.sprintf "task %d sane slot/wall" i)
            true
            (slot >= 0 && slot < 2 && wall_s >= 0.)
      | Supervisor.Degraded r -> Alcotest.failf "task %d degraded: %s" i r)
    outcomes;
  Alcotest.(check int) "no kills" 0 (cval reg "supervisor.kills");
  Alcotest.(check int) "one process per dispatch" 3
    (cval reg "supervisor.spawns")

(* A task that dies on its first attempt (its process exits) and
   succeeds on the re-dispatch: the instance completes with one kill and
   one re-dispatch on the books. *)
let test_supervisor_redispatch_recovers () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg ~config:(sup_config ())
      ~tasks:[| "flaky" |]
      ~run_task:(fun ~task:_ ~attempt ->
        if attempt = 0 then failwith "injected worker death" else "recovered")
      ()
  in
  (match outcomes.(0) with
  | Supervisor.Completed { payload; _ } ->
      Alcotest.(check string) "payload" "recovered" payload
  | Supervisor.Degraded r -> Alcotest.failf "degraded: %s" r);
  Alcotest.(check int) "one redispatch" 1 (cval reg "supervisor.redispatches");
  Alcotest.(check bool) "the dead worker was reaped" true
    (cval reg "supervisor.kills" >= 1);
  Alcotest.(check int) "nothing degraded" 0 (cval reg "supervisor.degraded")

(* The degradation ladder: a task that kills every process it runs in is
   given up after [max_redispatch] re-dispatches, with a reason naming the
   instance — the run completes instead of spinning. *)
let test_supervisor_degrades_after_limit () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg
      ~config:(sup_config ~max_redispatch:2 ())
      ~tasks:[| "doomed" |]
      ~run_task:(fun ~task:_ ~attempt:_ -> failwith "always dies")
      ()
  in
  (match outcomes.(0) with
  | Supervisor.Degraded reason ->
      Alcotest.(check bool) "reason names the instance" true
        (contains reason "doomed")
  | Supervisor.Completed _ -> Alcotest.fail "expected Degraded");
  Alcotest.(check int) "exactly max_redispatch re-dispatches" 2
    (cval reg "supervisor.redispatches");
  Alcotest.(check int) "one degraded" 1 (cval reg "supervisor.degraded");
  Alcotest.(check int) "every dispatch killed a worker" 3
    (cval reg "supervisor.kills")

(* A child that exits 0 without writing its frame has lost its attempt
   just as a crashed one has: re-dispatched, then degraded past the cap. *)
let test_supervisor_silent_exit_is_lost () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg
      ~config:(sup_config ~max_redispatch:1 ())
      ~tasks:[| "silent" |]
      ~run_task:(fun ~task:_ ~attempt:_ -> Unix._exit 0)
      ()
  in
  (match outcomes.(0) with
  | Supervisor.Degraded reason ->
      Alcotest.(check bool) "reason names the instance" true
        (contains reason "silent")
  | Supervisor.Completed _ -> Alcotest.fail "a frameless exit completed");
  Alcotest.(check int) "one re-dispatch" 1 (cval reg "supervisor.redispatches");
  Alcotest.(check int) "both attempts lost" 2 (cval reg "supervisor.kills");
  Alcotest.(check int) "degraded" 1 (cval reg "supervisor.degraded")

(* An interrupt while a child is mid-task raises [Interrupted] out of
   [run], and the run leaves no child of this process behind, reaped or
   not. *)
let test_supervisor_interrupt_reaps () =
  Interrupt.reset ();
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Interrupt.request ()))
  in
  let disarm () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm old;
    Interrupt.reset ()
  in
  Fun.protect ~finally:disarm (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.; it_value = 0.2 });
      match
        Supervisor.run ~config:(sup_config ~procs:2 ())
          ~tasks:[| "slow"; "slower" |]
          ~run_task:(fun ~task:_ ~attempt:_ ->
            Unix.sleepf 10.;
            "late")
          ()
      with
      | _ -> Alcotest.fail "the run finished despite the interrupt"
      | exception Interrupt.Interrupted -> ());
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | pid, _ -> Alcotest.failf "child %d outlived the run" pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* The supervisor waits for its own children only: a child the caller
   forked before [run] keeps its exit status for the caller. *)
let test_supervisor_leaves_other_children () =
  flush_all ();
  let pid = match Unix.fork () with 0 -> Unix._exit 7 | pid -> pid in
  let outcomes =
    Supervisor.run ~config:(sup_config ~procs:2 ())
      ~tasks:[| "a"; "b"; "c" |]
      ~run_task:(fun ~task ~attempt:_ ->
        Unix.sleepf 0.05;
        string_of_int task)
      ()
  in
  Array.iter
    (function
      | Supervisor.Completed _ -> ()
      | Supervisor.Degraded r -> Alcotest.failf "degraded: %s" r)
    outcomes;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 7 -> ()
  | _ -> Alcotest.fail "the caller's child ended otherwise"

(* The cooperative interrupt flag: request -> engines raise [Interrupted]
   at their next budget poll; reset -> they don't. *)
let test_interrupt_flag () =
  Interrupt.reset ();
  Alcotest.(check bool) "clear at rest" false (Interrupt.requested ());
  Interrupt.request ();
  Alcotest.(check bool) "set after request" true (Interrupt.requested ());
  (match Interrupt.check () with
  | () -> Alcotest.fail "check should raise when requested"
  | exception Engine.Interrupted -> ());
  Interrupt.reset ();
  Interrupt.check ();
  Alcotest.(check bool) "clear after reset" false (Interrupt.requested ())

(* ---------------- pipeline-level shard runs ---------------- *)

(* Reports AND integer counters byte-identical across {in-process, 1, 2, 4}
   worker processes on a hand-written and a generated subject. *)
let test_shard_differential () =
  List.iter
    (fun (name, program) ->
      let base = run program in
      Alcotest.(check bool)
        (name ^ ": subject produces warnings")
        true
        (base.o_reports <> "");
      List.iter
        (fun procs ->
          let out = run ~procs program in
          check_same
            ~what:(Printf.sprintf "%s p%d" name procs)
            base out;
          List.iter
            (fun (e : Pipeline.schedule_entry) ->
              if not (e.Pipeline.s_worker >= 0 && e.Pipeline.s_worker < procs)
              then
                Alcotest.failf "%s p%d: instance %s on worker slot %d" name
                  procs e.Pipeline.s_instance e.Pipeline.s_worker)
            out.o_schedule)
        [ 1; 2; 4 ])
    [ ( "quickstart",
        Jir.Resolve.parse_exn ~file:"quickstart.jir" quickstart_src );
      ("gen11", generated ~seed:11) ]

(* Under a 5% fault plan: reports and the full counter set identical to the
   in-process run and across shard process counts (each instance's fault
   stream is derived from its own identity, never from placement, and both
   executors summarize an instance the same way). *)
let test_shard_fault_plan_differential () =
  let program = generated ~seed:11 in
  let plan = "seed=9,rate=0.05" in
  let budget = fault_budget in
  let inproc = run ~plan ~budget program in
  let shard1 = run ~procs:1 ~plan ~budget program in
  Alcotest.(check bool) "plan actually fired in the workers" true
    (shard1.o_stats.Pipeline.n_faults_injected > 0);
  check_same ~what:"faulty in-process vs p1" inproc shard1;
  List.iter
    (fun procs ->
      let out = run ~procs ~plan ~budget program in
      check_same
        ~what:(Printf.sprintf "faulty p%d" procs)
        shard1 out)
    [ 2; 4 ]

(* With a one-round DPLL(T) budget the solver gives up on many paths.  Its
   hit counter is process-global, so hits inside a worker process reach
   the stats line only through the instance account: the whole counter set
   must match the in-process run. *)
let test_shard_smt_budget_hits () =
  let program =
    (Workload.Generator.mini_zookeeper ()).Workload.Generator.program
  in
  let saved = !Smt.Solver.round_budget in
  Fun.protect ~finally:(fun () -> Smt.Solver.round_budget := saved)
  @@ fun () ->
  Smt.Solver.set_budget 1;
  let inproc = run program in
  Alcotest.(check bool) "the budget is hit" true
    (inproc.o_stats.Pipeline.n_smt_budget_hits > 0);
  let shard2 = run ~procs:2 program in
  Alcotest.(check int) "budget hits in-process = at 2 shard processes"
    inproc.o_stats.Pipeline.n_smt_budget_hits
    shard2.o_stats.Pipeline.n_smt_budget_hits;
  check_same ~what:"smt budget 1, in-process vs p2" inproc
    shard2

(* Deterministic SIGKILL of the worker of the Nth dispatch (the plan's
   [kill-worker=N]): the instance is re-dispatched in a fresh process and
   re-run from scratch, and both reports and counters match the kill-free
   shard run — re-dispatches surface only in the supervisor's own
   counters. *)
let test_shard_kill_nth () =
  let program = generated ~seed:22 in
  let base = run ~procs:2 program in
  let out = run ~procs:2 ~plan:"kill-worker=2" program in
  check_same ~what:"SIGKILL-on-2nd-assignment" base out;
  let reg = out.o_stats.Pipeline.registry in
  Alcotest.(check bool) "redispatch counter > 0" true
    (cval reg "supervisor.redispatches" > 0);
  Alcotest.(check bool) "the killed worker was reaped" true
    (cval reg "supervisor.kills" > 0);
  Alcotest.(check int) "zero lost instances" 0
    out.o_stats.Pipeline.n_inconclusive

(* A worker killed before its instance starts leaves no checkpoint, so
   the re-dispatch starts fresh instead of probing for a manifest: the
   probe would draw a read from the instance's fault stream.  A rate plan
   then injects the same faults with and without the kill. *)
let test_shard_kill_keeps_fault_stream () =
  let program = generated ~seed:11 in
  let plan = "seed=11,rate=0.2" in
  let base = run ~procs:2 ~plan program in
  let out = run ~procs:2 ~plan:(plan ^ ",kill-worker=3") program in
  Alcotest.(check int) "the 3rd dispatch's worker was killed" 1
    (cval out.o_stats.Pipeline.registry "supervisor.kills");
  check_same ~what:"rate plan with and without a killed worker" base out

(* Workers killed *mid-instance* (a crash plan detonates inside the engine,
   taking the worker process down) are re-dispatched from their checkpoint
   manifests: every attempt makes durable progress, the run completes with
   zero lost instances, and the reports equal a fault-free run's. *)
let test_shard_crash_mid_instance () =
  let program = generated ~seed:33 in
  let expect = run program in
  let workdir = Testdir.fresh () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      shard_procs = 2;
      engine =
        { (Engine.default_config ~workdir) with
          Engine.retry_base_ms = 0.01;
          max_retries = 50 } }
  in
  (* phases 0/1 run clean; the crash plan arms for the checking phase only *)
  let prepared = Pipeline.prepare ~config ~workdir program in
  let saved = Faults.current () in
  Faults.install (Faults.parse "seed=5,crash-checkpoint=2");
  let results, props, _schedule =
    Fun.protect
      ~finally:(fun () ->
        match saved with Some p -> Faults.install p | None -> Faults.clear ())
      (fun () -> Checkers.run_all_scheduled prepared (Checkers.all_with_null ()))
  in
  let stats = Pipeline.stats prepared props in
  Alcotest.(check string) "reports survive repeated worker crashes"
    expect.o_reports
    (render results);
  Alcotest.(check int) "zero lost instances" 0 stats.Pipeline.n_inconclusive;
  Alcotest.(check bool) "workers actually died and were re-dispatched" true
    (cval stats.Pipeline.registry "supervisor.redispatches" > 0)

(* Past the retry cap, which also caps re-dispatches, the instance degrades
   to [Inconclusive] — the same sound contract as budget exhaustion — and
   the run still ends. *)
let test_shard_degrade_to_inconclusive () =
  let program = generated ~seed:11 in
  let workdir = Testdir.fresh () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      shard_procs = 1;
      engine =
        { (Engine.default_config ~workdir) with
          Engine.retry_base_ms = 0.01;
          max_retries = 0 } }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let saved = Faults.current () in
  Faults.install (Faults.parse "seed=5,crash-checkpoint=1");
  let results, props, _schedule =
    Fun.protect
      ~finally:(fun () ->
        match saved with Some p -> Faults.install p | None -> Faults.clear ())
      (fun () -> Checkers.run_all_scheduled prepared (Checkers.all_with_null ()))
  in
  let stats = Pipeline.stats prepared props in
  let rendered = render results in
  Alcotest.(check int) "every typestate instance degraded" 4
    stats.Pipeline.n_inconclusive;
  Alcotest.(check int) "supervisor accounted the degradations" 4
    (cval stats.Pipeline.registry "supervisor.degraded");
  Alcotest.(check bool) "inconclusive reports are visible in the output" true
    (contains rendered "inconclusive")

(* One cap for both executors: an instance whose worker is killed once
   needs one re-dispatch, which [max_retries = 1] allows — the run equals
   the kill-free one — and [max_retries = 0] does not: that instance alone
   degrades. *)
let test_shard_kill_within_cap () =
  let program = generated ~seed:22 in
  let base = run ~procs:2 program in
  let kept = run ~procs:2 ~max_retries:1 ~plan:"kill-worker=1" program in
  check_same ~what:"one kill, max_retries 1" base kept;
  let reg = kept.o_stats.Pipeline.registry in
  Alcotest.(check int) "one re-dispatch" 1 (cval reg "supervisor.redispatches");
  let lost = run ~procs:2 ~max_retries:0 ~plan:"kill-worker=1" program in
  let reg = lost.o_stats.Pipeline.registry in
  Alcotest.(check int) "no re-dispatch" 0 (cval reg "supervisor.redispatches");
  Alcotest.(check int) "the killed instance degraded" 1
    lost.o_stats.Pipeline.n_inconclusive;
  Alcotest.(check int) "and only it" 1 (cval reg "supervisor.degraded")

(* ---------------- determinism regressions ---------------- *)

(* The same process count, run twice: the report bytes and counters must
   not depend on scheduling accidents either. *)
let test_repeatability_same_count () =
  let program = Jir.Resolve.parse_exn ~file:"quickstart.jir" quickstart_src in
  let a = run ~procs:2 program in
  let b = run ~procs:2 program in
  check_same ~what:"repeat at 2 procs" a b

(* The witness is name-sorted and internal symbols (generated `$`,
   statement-suffixed `@`) never leak into it — the model ordering under
   the report bytes. *)
let test_witness_ordering () =
  let v name = Smt.Linexpr.var (Smt.Symbol.intern name) in
  let c n = Smt.Linexpr.const n in
  let f =
    Smt.Formula.conj
      [ Smt.Formula.eq (v "Main::main::b") (c 2);
        Smt.Formula.eq (v "Main::main::a") (c 1);
        Smt.Formula.eq (v "gen$witness") (c 7);
        Smt.Formula.eq (v "tmp@3::x") (c 9) ]
  in
  let w = Pipeline.witness_of_constraint f in
  Alcotest.(check (list (pair string int)))
    "sorted, internals filtered"
    [ ("Main::main::a", 1); ("Main::main::b", 2) ]
    w;
  Alcotest.(check (list (pair string int))) "stable across calls" w
    (Pipeline.witness_of_constraint f)

(* The schedule covers exactly the typestate instances, once each. *)
let test_schedule_entries () =
  let program = generated ~seed:11 in
  let out = run ~procs:2 program in
  let names =
    List.sort compare
      (List.map (fun e -> e.Pipeline.s_instance) out.o_schedule)
  in
  Alcotest.(check (list string))
    "typestate instances scheduled once each"
    [ "io"; "lock"; "null"; "socket" ]
    names;
  List.iter
    (fun (e : Pipeline.schedule_entry) ->
      Alcotest.(check bool)
        (e.Pipeline.s_instance ^ ": sane entry")
        true
        (e.Pipeline.s_estimate >= 0 && e.Pipeline.s_wall_s >= 0.))
    out.o_schedule

(* ---------------- stress: crash, isolation, resume ---------------- *)

let test_crash_isolation_resume () =
  let program = generated ~seed:33 in
  (* the reference: a clean in-process run in its own workdir *)
  let expect = run program in
  (* the crashing run, in-process: phases 0/1 run cleanly, then the crash
     plan is installed for the checking phase only — like a process killed
     mid-checking.  Every storage operation is watched and attributed to
     the instance scope the scheduler sets. *)
  let workdir = Testdir.fresh () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let owners : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  Faults.set_observer
    (Some
       (fun _op path ->
         let dir = Filename.basename (Filename.dirname path) in
         if String.length dir >= 3 && String.sub dir 0 3 = "df-" then begin
           let scope = Option.value ~default:"<none>" (Faults.scope ()) in
           let cur = Option.value ~default:[] (Hashtbl.find_opt owners path) in
           if not (List.mem scope cur) then
             Hashtbl.replace owners path (scope :: cur)
         end));
  let crashed = ref false in
  let saved = Faults.current () in
  Faults.install (Faults.parse "seed=5,crash-checkpoint=2");
  (try
     ignore (Checkers.run_all_scheduled prepared (Checkers.all_with_null ()))
   with Faults.Crash _ -> crashed := true);
  (match saved with Some p -> Faults.install p | None -> Faults.clear ());
  Faults.set_observer None;
  Alcotest.(check bool) "the run crashed mid-checking" true !crashed;
  (* isolation: every partition file under an instance workdir was touched
     by exactly that instance's scope and by no other *)
  Hashtbl.iter
    (fun path scopes ->
      let dir = Filename.basename (Filename.dirname path) in
      match scopes with
      | [ scope ] when scope = dir -> ()
      | _ ->
          Alcotest.failf "%s touched by scopes [%s], expected [%s]"
            (Filename.basename path)
            (String.concat "; " scopes)
            dir)
    owners;
  Alcotest.(check bool) "observer saw instance storage traffic" true
    (Hashtbl.length owners > 0);
  (* resume the crashed run's checkpoints in 2 shard processes, with no
     plan: the result is the clean run's, byte for byte *)
  let resumed = run ~procs:2 ~resume:true ~workdir program in
  Alcotest.(check string) "resume-after-crash = fresh run" expect.o_reports
    resumed.o_reports;
  Alcotest.(check int) "no inconclusive instances after resume" 0
    resumed.o_stats.Pipeline.n_inconclusive

(* Instances run side by side only in shard processes: a config that asks
   for worker domains is an error, not a silent sequential run. *)
let test_prepare_rejects_workers () =
  let workdir = Testdir.fresh () in
  let config =
    { (Pipeline.default_config ~workdir) with Pipeline.workers = 2 }
  in
  let program = Jir.Resolve.parse_exn ~file:"quickstart.jir" quickstart_src in
  match Pipeline.prepare ~config ~workdir program with
  | _ -> Alcotest.fail "prepare accepted workers = 2"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "the error names shard_procs" true
        (contains msg "shard_procs")

(* ---------------- the result frame ---------------- *)

(* What a child's pipe holds when it ends must pass its checksum before it
   reaches [Marshal]: a clean frame yields its payload, and a flipped bit,
   a torn frame or an empty pipe yield nothing, a lost attempt. *)
let test_frame_checksum_detects_corruption () =
  let through_pipe bytes =
    let rd, wr = Unix.pipe () in
    ignore (Unix.write_substring wr bytes 0 (String.length bytes));
    Unix.close wr;
    let s = Supervisor.read_all rd in
    Unix.close rd;
    Supervisor.unframe s
  in
  let payload = Marshal.to_string ("instance", [ 1; 2; 3 ]) [] in
  let f = Supervisor.frame payload in
  let check what expect bytes =
    Alcotest.(check (option string)) what expect (through_pipe bytes)
  in
  check "clean frame" (Some payload) f;
  let flipped = Bytes.of_string f in
  Bytes.set flipped 5 (Char.chr (Char.code (Bytes.get flipped 5) lxor 0x40));
  check "flipped bit" None (Bytes.to_string flipped);
  check "torn frame" None (String.sub f 0 (String.length f - 3));
  check "empty pipe" None ""

let suite =
  [ Alcotest.test_case "supervisor: tasks complete across workers" `Quick
      test_supervisor_completes;
    Alcotest.test_case "supervisor: re-dispatch after worker death" `Quick
      test_supervisor_redispatch_recovers;
    Alcotest.test_case "supervisor: degrade past the re-dispatch limit" `Quick
      test_supervisor_degrades_after_limit;
    Alcotest.test_case "supervisor: a frameless exit is a lost attempt" `Quick
      test_supervisor_silent_exit_is_lost;
    Alcotest.test_case "supervisor: interrupt reaps every child" `Quick
      test_supervisor_interrupt_reaps;
    Alcotest.test_case "supervisor: other children are left alone" `Quick
      test_supervisor_leaves_other_children;
    Alcotest.test_case "interrupt: flag set/raise/reset" `Quick
      test_interrupt_flag;
    Alcotest.test_case "differential: in-process vs 1/2/4 procs" `Quick
      test_shard_differential;
    Alcotest.test_case "differential: under a fault plan" `Quick
      test_shard_fault_plan_differential;
    Alcotest.test_case "differential: smt budget hits" `Quick
      test_shard_smt_budget_hits;
    Alcotest.test_case "SIGKILL-on-Nth-assignment: identical output" `Quick
      test_shard_kill_nth;
    Alcotest.test_case "SIGKILL before a checkpoint: same fault stream"
      `Quick test_shard_kill_keeps_fault_stream;
    Alcotest.test_case "crash mid-instance: resume from manifests" `Quick
      test_shard_crash_mid_instance;
    Alcotest.test_case "degraded mode: inconclusive past the limit" `Quick
      test_shard_degrade_to_inconclusive;
    Alcotest.test_case "degraded mode: one kill within max_retries" `Quick
      test_shard_kill_within_cap;
    Alcotest.test_case "frame checksum: corruption is a dead peer" `Quick
      test_frame_checksum_detects_corruption;
    Alcotest.test_case "determinism: repeat at same shard count" `Quick
      test_repeatability_same_count;
    Alcotest.test_case "determinism: witness ordering" `Quick
      test_witness_ordering;
    Alcotest.test_case "schedule entries cover the instances" `Quick
      test_schedule_entries;
    Alcotest.test_case "stress: crash, isolation, resume" `Quick
      test_crash_isolation_resume;
    Alcotest.test_case "prepare rejects workers other than 1" `Quick
      test_prepare_rejects_workers ]
