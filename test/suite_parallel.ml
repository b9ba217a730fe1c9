(* Tests for the parallel instance scheduler (ISSUE 4).

   The contract under test: whatever the worker count, a run's rendered
   reports and every integer counter of its statistics are byte-identical —
   with and without an installed fault plan — and a run crashed mid-flight
   can be resumed at any other worker count with no loss.  The suite also
   pins the ordering invariants the byte-identity rests on. *)

module Faults = Engine.Faults
module Pipeline = Grapple.Pipeline
module Report = Grapple.Report
module Generator = Workload.Generator

(* The differential runs compare workers=1 against workers=2 and against
   this count; CI's test matrix sets GRAPPLE_WORKERS to vary it. *)
let default_workers =
  match Option.bind (Sys.getenv_opt "GRAPPLE_WORKERS") int_of_string_opt with
  | Some w when w > 0 -> w
  | _ -> 4

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "grapple-test-parallel-%d-%d" (Unix.getpid ()) !counter)
    in
    Engine.ensure_dir dir;
    dir

(* ---------------- subjects ----------------

   The three example programs (examples/{quickstart,zookeeper_reconfigure,
   hdfs_shutdown}.ml) plus generated workload subjects. *)

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

let zookeeper_src =
  {|
class NIOServerCnxnFactory {
  void configure(int addr) {
    ServerSocketChannel ss = new ServerSocketChannel();
    ss.bind(addr);
    ss.configureBlocking(0);
    ss.close();
    return;
  }

  void reconfigure(int addr) {
    ServerSocketChannel oldSS = new ServerSocketChannel();
    oldSS.bind(addr);
    try {
      ServerSocketChannel ss = new ServerSocketChannel();
      ss.bind(addr);
      ss.configureBlocking(0);
      oldSS.close();
      ss.close();
    } catch (IOException e) {
      int logged = 1;
    }
    return;
  }
}

class Main {
  void main(int addr) {
    NIOServerCnxnFactory factory = new NIOServerCnxnFactory();
    factory.configure(addr);
    factory.reconfigure(addr);
    return;
  }
}
entry Main.main;
|}

let zookeeper_throwers =
  [ ("ServerSocketChannel", "bind", "IOException");
    ("ServerSocketChannel", "configureBlocking", "IOException") ]

let hdfs_src =
  {|
class DataTransferThrottler {
  void throttle(int numOfBytes) throws InterruptedException {
    int period = 500;
    int curPeriodStart = 0;
    int now = numOfBytes;
    int it = 0;
    while (it < 2) {
      int curPeriodEnd = curPeriodStart + period;
      if (now < curPeriodEnd) {
        throw new InterruptedException();
      }
      it = it + 1;
    }
    return;
  }

  void safeThrottle(int numOfBytes) throws InterruptedException {
    if (numOfBytes > 4096) {
      throw new InterruptedException();
    }
    return;
  }
}

class BlockSender {
  void sendPacket(int len) throws InterruptedException {
    DataTransferThrottler throttler = new DataTransferThrottler();
    throttler.throttle(len);
    return;
  }

  void sendBlock(int len) throws InterruptedException {
    int packet = len;
    while (packet > 0) {
      BlockSender.sendPacket(packet);
      packet = packet - 4096;
    }
    return;
  }
}

class DataBlockScanner {
  void run(int blockLen) {
    BlockSender.sendBlock(blockLen);
    DataTransferThrottler t = new DataTransferThrottler();
    try {
      t.safeThrottle(blockLen);
    } catch (InterruptedException e) {
      int handled = 1;
    }
    return;
  }
}

class Main {
  void main(int blockLen) {
    DataBlockScanner.run(blockLen);
    return;
  }
}
entry Main.main;
|}

let examples =
  [ ("quickstart", quickstart_src, []);
    ("zookeeper", zookeeper_src, zookeeper_throwers);
    ("hdfs", hdfs_src, []) ]

(* A small generated subject with bugs across several checkers, so the
   scheduler has real work on more than one instance. *)
let generated ~seed =
  let profile =
    { Generator.name = Printf.sprintf "par%d" seed;
      description = "parallel differential subject";
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
     iterations=%d solved=%d cache=%d/%d added=%d prefiltered=%d pruned=%d \
     retried=%d recovered=%d inconclusive=%d smt_budget=%d injected=%d \
     corrupt=%d"
    warnings s.Pipeline.n_vertices s.Pipeline.n_edges_before
    s.Pipeline.n_edges_after s.Pipeline.n_partitions s.Pipeline.n_iterations
    s.Pipeline.n_constraints_solved s.Pipeline.cache_lookups
    s.Pipeline.cache_hits s.Pipeline.edges_added s.Pipeline.n_prefiltered
    s.Pipeline.n_summary_pruned s.Pipeline.n_retried s.Pipeline.n_recovered
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

(* One full run through the scheduler path at a given worker count.  A fresh
   plan state is always installed (the given one, or none): fault-plan
   counters are stateful, so a differential comparison needs each run to
   start from the same plan state.  The ambient plan (e.g. the driver's
   GRAPPLE_FAULT_PLAN) is restored afterwards.  [budget] is the engines'
   partition budget. *)
let run ?(workers = 1) ?plan ?(resume = false) ?budget
    ?workdir ?(throwers = []) program =
  let workdir = match workdir with Some d -> d | None -> fresh_workdir () in
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
      Pipeline.library_throwers = throwers;
      track_null = true;
      prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      workers;
      resume;
      engine = engine_config ?budget ~workdir () }
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

(* ---------------- differential: examples ---------------- *)

let test_examples_differential () =
  List.iter
    (fun (name, src, throwers) ->
      let program = Jir.Resolve.parse_exn ~file:(name ^ ".jir") src in
      let base = run ~workers:1 ~throwers program in
      Alcotest.(check bool)
        (name ^ ": subject produces warnings") true
        (base.o_reports <> "");
      List.iter
        (fun w ->
          let out = run ~workers:w ~throwers program in
          check_same ~what:(Printf.sprintf "%s w%d" name w) base out;
          List.iter
            (fun (e : Pipeline.schedule_entry) ->
              if not (e.Pipeline.s_worker >= 0 && e.Pipeline.s_worker < w)
              then
                Alcotest.failf "%s w%d: instance %s on worker slot %d" name w
                  e.Pipeline.s_instance e.Pipeline.s_worker)
            out.o_schedule)
        [ 2; default_workers ])
    examples

(* ---------------- differential: generated workloads ---------------- *)

let test_generated_differential () =
  List.iter
    (fun seed ->
      let program = generated ~seed in
      let base = run ~workers:1 program in
      List.iter
        (fun w ->
          let out = run ~workers:w program in
          check_same ~what:(Printf.sprintf "seed %d w%d" seed w) base out)
        [ 2; default_workers ])
    [ 11; 22; 33 ]

(* ---------------- differential: under an injected-fault plan ---------- *)

let test_fault_plan_differential () =
  let program = generated ~seed:11 in
  let plan = "seed=9,rate=0.05" in
  let budget = fault_budget in
  let base = run ~workers:1 ~plan ~budget program in
  Alcotest.(check bool) "plan actually fired" true
    (base.o_stats.Pipeline.n_faults_injected > 0);
  List.iter
    (fun w ->
      let out = run ~workers:w ~plan ~budget program in
      check_same ~what:(Printf.sprintf "faulty w%d" w) base out)
    [ 2; default_workers ]

(* ---------------- determinism regressions ---------------- *)

(* Same worker count, run twice: the report bytes and counters must not
   depend on scheduling accidents either. *)
let test_repeatability_same_count () =
  let program = Jir.Resolve.parse_exn ~file:"quickstart.jir" quickstart_src in
  let a = run ~workers:default_workers program in
  let b = run ~workers:default_workers program in
  check_same ~what:"repeat w=default" a b

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
  let out = run ~workers:2 program in
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
  (* the reference: a clean single-worker run in its own workdir *)
  let expect = run ~workers:1 program in
  (* the crashing run: phases 0/1 run cleanly, then the crash plan is
     installed for the checking phase only — like a process killed
     mid-checking.  Every storage operation is watched and attributed to
     the instance scope the scheduler sets on the worker. *)
  let workdir = fresh_workdir () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.track_null = true;
      prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      workers = default_workers;
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let owners : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let omu = Mutex.create () in
  Faults.set_observer
    (Some
       (fun _op path ->
         let dir = Filename.basename (Filename.dirname path) in
         if String.length dir >= 3 && String.sub dir 0 3 = "df-" then begin
           let scope = Option.value ~default:"<none>" (Faults.scope ()) in
           Mutex.lock omu;
           let cur = Option.value ~default:[] (Hashtbl.find_opt owners path) in
           if not (List.mem scope cur) then
             Hashtbl.replace owners path (scope :: cur);
           Mutex.unlock omu
         end));
  let crashed = ref false in
  let saved = Faults.current () in
  Faults.install (Faults.parse "seed=5,crash-checkpoint=2");
  (try
     ignore (Checkers.run_all_scheduled prepared (Checkers.all_with_null ()))
   with Faults.Crash _ -> crashed := true);
  (match saved with Some p -> Faults.install p | None -> Faults.clear ());
  Faults.set_observer None;
  Alcotest.(check bool) "a worker crashed mid-run" true !crashed;
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
  (* resume the crashed run's checkpoints at a different worker count, with
     no plan: the result is the clean run's, byte for byte *)
  let resumed = run ~workers:2 ~resume:true ~workdir program in
  Alcotest.(check string) "resume-after-crash = fresh run" expect.o_reports
    resumed.o_reports;
  Alcotest.(check int) "no inconclusive instances after resume" 0
    resumed.o_stats.Pipeline.n_inconclusive

let suite =
  [ Alcotest.test_case "differential: example subjects" `Quick
      test_examples_differential;
    Alcotest.test_case "differential: generated workloads" `Quick
      test_generated_differential;
    Alcotest.test_case "differential: under a fault plan" `Quick
      test_fault_plan_differential;
    Alcotest.test_case "determinism: repeat at same worker count" `Quick
      test_repeatability_same_count;
    Alcotest.test_case "determinism: witness ordering" `Quick
      test_witness_ordering;
    Alcotest.test_case "schedule entries cover the instances" `Quick
      test_schedule_entries;
    Alcotest.test_case "stress: crash, isolation, resume" `Quick
      test_crash_isolation_resume ]
