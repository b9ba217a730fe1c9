(* Tests for the supervised multi-process shard runtime (ISSUE 8).

   The contract under test: with the phase-2/3 instances running in forked
   worker processes, the rendered reports are byte-identical to the
   in-process scheduler at every process count, under fault plans, and
   under deterministic SIGKILL injection; a worker killed mid-instance is
   re-dispatched from its checkpoint manifest with zero lost instances; and
   an instance that keeps losing its worker degrades to [Inconclusive]
   instead of stalling or aborting the run.  Unit tests pin the supervisor
   itself: completion, re-dispatch after worker death, the degradation
   ladder, and deadline kills. *)

module Faults = Engine.Faults
module Supervisor = Engine.Supervisor
module Interrupt = Engine.Interrupt
module Pipeline = Grapple.Pipeline
module R = Obs.Registry

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "grapple-test-shard-%d-%d" (Unix.getpid ()) !counter)
    in
    Engine.ensure_dir dir;
    dir

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let cval reg name = R.value (R.counter reg name)

(* ---------------- supervisor unit tests ---------------- *)

(* Fast heartbeats and tiny backoffs so worker deaths settle quickly. *)
let sup_config ?(procs = 1) ?(max_redispatch = 2) ?(deadline_s = 0.)
    ?(kill_nth = 0) () =
  { Supervisor.default_config with
    Supervisor.procs;
    heartbeat_ms = 20.;
    max_redispatch;
    deadline_s;
    retry_base_ms = 0.01;
    kill_nth }

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
  Alcotest.(check int) "two workers spawned" 2 (cval reg "supervisor.spawns")

(* A task that dies on its first attempt (the worker process exits) and
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

(* The degradation ladder: a task that kills every worker it touches is
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

(* A dispatch that overruns its wall deadline is killed and re-dispatched;
   the retry (which returns promptly) completes the task. *)
let test_supervisor_deadline_kill () =
  let reg = R.create () in
  let outcomes =
    Supervisor.run ~reg
      ~config:(sup_config ~deadline_s:0.4 ())
      ~tasks:[| "slow" |]
      ~run_task:(fun ~task:_ ~attempt ->
        if attempt = 0 then Unix.sleep 30;
        "woke")
      ()
  in
  (match outcomes.(0) with
  | Supervisor.Completed { payload; _ } ->
      Alcotest.(check string) "payload" "woke" payload
  | Supervisor.Degraded r -> Alcotest.failf "degraded: %s" r);
  Alcotest.(check bool) "deadline killed the first dispatch" true
    (cval reg "supervisor.kills" >= 1);
  Alcotest.(check bool) "and re-dispatched it" true
    (cval reg "supervisor.redispatches" >= 1)

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

(* Like [Suite_parallel.run] but through the shard-process scheduler. *)
let run_shard ?(procs = 2) ?(kill_nth = 0) ?(max_redispatch = 3) ?plan
    ?(throwers = []) program : Suite_parallel.outcome =
  let workdir = fresh_workdir () in
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
      shard_procs = procs;
      heartbeat_ms = 20.;
      max_redispatch;
      shard_kill_nth = kill_nth;
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let results, props, schedule =
    Checkers.run_all_scheduled prepared (Checkers.all_with_null ())
  in
  let stats = Pipeline.stats prepared props in
  let warnings =
    List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 results
  in
  { Suite_parallel.o_reports = Suite_parallel.render results;
    o_counters = Suite_parallel.counters stats ~warnings;
    o_stats = stats;
    o_schedule = schedule }

(* Reports AND integer counters byte-identical across {in-process, 1, 2, 4}
   worker processes on a hand-written and a generated subject. *)
let test_shard_differential () =
  List.iter
    (fun (name, program) ->
      let base = Suite_parallel.run ~workers:1 program in
      Alcotest.(check bool)
        (name ^ ": subject produces warnings")
        true
        (base.Suite_parallel.o_reports <> "");
      List.iter
        (fun procs ->
          let out = run_shard ~procs program in
          Suite_parallel.check_same
            ~what:(Printf.sprintf "%s p%d" name procs)
            base out;
          List.iter
            (fun (e : Pipeline.schedule_entry) ->
              if not (e.Pipeline.s_worker >= 0 && e.Pipeline.s_worker < procs)
              then
                Alcotest.failf "%s p%d: instance %s on worker slot %d" name
                  procs e.Pipeline.s_instance e.Pipeline.s_worker)
            out.Suite_parallel.o_schedule)
        [ 1; 2; 4 ])
    [ ( "quickstart",
        Jir.Resolve.parse_exn ~file:"quickstart.jir"
          Suite_parallel.quickstart_src );
      ("gen11", Suite_parallel.generated ~seed:11) ]

(* Under a 5% fault plan: reports and the full counter set identical to the
   in-process run and across shard process counts (each instance's fault
   stream is derived from its own identity, never from placement, and both
   executors summarize an instance the same way). *)
let test_shard_fault_plan_differential () =
  let program = Suite_parallel.generated ~seed:11 in
  let plan = "seed=9,rate=0.05" in
  let inproc = Suite_parallel.run ~workers:1 ~plan program in
  let shard1 = run_shard ~procs:1 ~plan program in
  Alcotest.(check bool) "plan actually fired in the workers" true
    (shard1.Suite_parallel.o_stats.Pipeline.n_faults_injected > 0);
  Suite_parallel.check_same ~what:"faulty in-process vs p1" inproc shard1;
  List.iter
    (fun procs ->
      let out = run_shard ~procs ~plan program in
      Suite_parallel.check_same
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
  let inproc = Suite_parallel.run ~workers:1 program in
  Alcotest.(check bool) "the budget is hit" true
    (inproc.Suite_parallel.o_stats.Pipeline.n_smt_budget_hits > 0);
  let shard2 = run_shard ~procs:2 program in
  Alcotest.(check int) "budget hits in-process = at 2 shard processes"
    inproc.Suite_parallel.o_stats.Pipeline.n_smt_budget_hits
    shard2.Suite_parallel.o_stats.Pipeline.n_smt_budget_hits;
  Suite_parallel.check_same ~what:"smt budget 1, in-process vs p2" inproc
    shard2

(* Deterministic SIGKILL of the worker holding the Nth assignment: the
   killed worker is replaced, the instance re-dispatched and re-run from
   scratch, and both reports and counters match the kill-free shard run —
   re-dispatches surface only in the supervisor's own counters. *)
let test_shard_kill_nth () =
  let program = Suite_parallel.generated ~seed:22 in
  let base = run_shard ~procs:2 program in
  let out = run_shard ~procs:2 ~kill_nth:2 program in
  Suite_parallel.check_same ~what:"SIGKILL-on-2nd-assignment" base out;
  let reg = out.Suite_parallel.o_stats.Pipeline.registry in
  Alcotest.(check bool) "redispatch counter > 0" true
    (cval reg "supervisor.redispatches" > 0);
  Alcotest.(check bool) "the killed worker was reaped" true
    (cval reg "supervisor.kills" > 0);
  Alcotest.(check int) "zero lost instances" 0
    out.Suite_parallel.o_stats.Pipeline.n_inconclusive

(* Workers killed *mid-instance* (a crash plan detonates inside the engine,
   taking the worker process down) are re-dispatched from their checkpoint
   manifests: every attempt makes durable progress, the run completes with
   zero lost instances, and the reports equal a fault-free run's. *)
let test_shard_crash_mid_instance () =
  let program = Suite_parallel.generated ~seed:33 in
  let expect = Suite_parallel.run ~workers:1 program in
  let workdir = fresh_workdir () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.track_null = true;
      prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      shard_procs = 2;
      heartbeat_ms = 20.;
      max_redispatch = 50;
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
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
    expect.Suite_parallel.o_reports
    (Suite_parallel.render results);
  Alcotest.(check int) "zero lost instances" 0 stats.Pipeline.n_inconclusive;
  Alcotest.(check bool) "workers actually died and were re-dispatched" true
    (cval stats.Pipeline.registry "supervisor.redispatches" > 0)

(* Past the re-dispatch limit the instance degrades to [Inconclusive] —
   the same sound contract as budget exhaustion — and the run still ends. *)
let test_shard_degrade_to_inconclusive () =
  let program = Suite_parallel.generated ~seed:11 in
  let workdir = fresh_workdir () in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.track_null = true;
      prefilter_properties = Checkers.fsms (Checkers.all_with_null ());
      shard_procs = 1;
      heartbeat_ms = 20.;
      max_redispatch = 0;
      engine =
        { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
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
  let rendered = Suite_parallel.render results in
  Alcotest.(check int) "every typestate instance degraded" 4
    stats.Pipeline.n_inconclusive;
  Alcotest.(check int) "supervisor accounted the degradations" 4
    (cval stats.Pipeline.registry "supervisor.degraded");
  Alcotest.(check bool) "inconclusive reports are visible in the output" true
    (contains rendered "inconclusive")

(* ---------------- frame checksums ---------------- *)

(* A damaged frame must never reach [Marshal]: the worker-side blocking
   reader raises [Closed] (the worker exits and is re-dispatched), and the
   coordinator-side drain reports the worker dead instead of yielding
   frames. *)
let test_frame_checksum_detects_corruption () =
  let module Sp = Engine.Shardproc in
  let b = Sp.frame_bytes (Sp.Heartbeat 7) in
  (* clean roundtrip through the coordinator-side nonblocking reader *)
  let r = Sp.reader () in
  let rd, wr = Unix.pipe () in
  Unix.set_nonblock rd;
  ignore (Unix.write wr b 0 (Bytes.length b));
  (match (Sp.drain r rd : Sp.to_coordinator list * bool) with
  | [ Sp.Heartbeat 7 ], false -> ()
  | frames, dead ->
      Alcotest.failf "clean frame: %d frames, dead=%b" (List.length frames)
        dead);
  (* flip one payload bit: no frames, and the worker is declared dead *)
  let c = Bytes.copy b in
  Bytes.set c 5 (Char.chr (Char.code (Bytes.get c 5) lxor 0x40));
  ignore (Unix.write wr c 0 (Bytes.length c));
  (match (Sp.drain r rd : Sp.to_coordinator list * bool) with
  | [], true -> ()
  | frames, dead ->
      Alcotest.failf "corrupt frame: %d frames, dead=%b" (List.length frames)
        dead);
  Unix.close rd;
  Unix.close wr;
  (* worker side: a blocking read of the same damaged frame raises Closed
     rather than unmarshalling garbage *)
  let rd, wr = Unix.pipe () in
  ignore (Unix.write wr c 0 (Bytes.length c));
  (match (Sp.read_frame rd : Sp.to_coordinator) with
  | _ -> Alcotest.fail "corrupt frame unmarshalled"
  | exception Sp.Closed -> ());
  Unix.close rd;
  Unix.close wr

let suite =
  [ Alcotest.test_case "supervisor: tasks complete across workers" `Quick
      test_supervisor_completes;
    Alcotest.test_case "supervisor: re-dispatch after worker death" `Quick
      test_supervisor_redispatch_recovers;
    Alcotest.test_case "supervisor: degrade past the re-dispatch limit" `Quick
      test_supervisor_degrades_after_limit;
    Alcotest.test_case "supervisor: deadline kill and recovery" `Quick
      test_supervisor_deadline_kill;
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
    Alcotest.test_case "crash mid-instance: resume from manifests" `Quick
      test_shard_crash_mid_instance;
    Alcotest.test_case "degraded mode: inconclusive past the limit" `Quick
      test_shard_degrade_to_inconclusive;
    Alcotest.test_case "frame checksum: corruption is a dead peer" `Quick
      test_frame_checksum_detects_corruption ]
