(* Tests for the fault-tolerance layer (ISSUE 3): crash-safe storage
   (atomic writes, checksummed records, typed corruption results),
   checkpoint/resume determinism, per-instance budgets with graceful
   degradation, retry counters, and the SMT round budget. *)

module E = Pathenc.Encoding
module Pg = Cfl.Pointer_grammar
module Dg = Cfl.Dataflow_grammar
module Transfn = Cfl.Transfn
module AEngine = Engine.Make (Cfl.Pointer_grammar)
module DEngine = Engine.Make (Cfl.Dataflow_grammar)
module Faults = Engine.Faults
module Storage = Engine.Storage
module Manifest = Engine.Manifest

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "grapple-test-faults-%d-%d" (Unix.getpid ()) !counter)
    in
    Engine.ensure_dir dir;
    dir

(* Install [spec] for the duration of [f] only: a leaked plan would inject
   faults into every later test. *)
let with_plan spec f =
  Faults.install (Faults.parse spec);
  Fun.protect ~finally:Faults.clear f

let mk_edge src dst =
  (src, dst, 0, [ E.Interval { meth = 0; first = 0; last = src land 3 } ])

let edges n = List.init n (fun i -> mk_edge i (i + 1))

let write_edges = Suite_engine.write_edges
let read_edges = Suite_engine.read_edges

(* ---------------- fault-plan parsing ---------------- *)

let test_plan_parse () =
  let p = Faults.parse "seed=42,rate=0.05,fail-write=3,crash-checkpoint=2" in
  Alcotest.(check int) "seed" 42 p.Faults.seed;
  Alcotest.(check int) "directives" 3 (List.length p.Faults.directives);
  Alcotest.check_raises "unknown key"
    (Invalid_argument "Faults.parse: unknown directive \"bogus\"") (fun () ->
      ignore (Faults.parse "bogus=1"));
  (match Faults.parse "rate=1.5" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate out of range accepted")

(* ---------------- storage: torn and damaged files ---------------- *)

(* Byte offsets of every framed record (varint len | payload | varint sum)
   in a format-2 partition file; recovery granularity is one record. *)
let record_offsets (contents : string) : int list =
  let bytes = Bytes.of_string contents in
  let len = Bytes.length bytes in
  let pos = ref 0 in
  let offs = ref [] in
  while !pos < len do
    offs := !pos :: !offs;
    let plen = E.read_varint bytes pos in
    pos := !pos + plen;
    ignore (E.read_varint bytes pos)
  done;
  List.rev !offs

let test_read_truncated () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "t.edges" in
  let all = edges 3 in
  (* block_cap=1: one pool block per encoding, one edge block per edge, so
     damage granularity in this test is a single edge *)
  let bytes = write_edges ~block_cap:1 ~path all in
  (* chop 2 bytes off the trailing edge block *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub contents 0 (bytes - 2)));
  let back, corrupt = read_edges path in
  Alcotest.(check int) "valid prefix" 2 (List.length back);
  Alcotest.(check bool) "prefix contents" true
    (back = [ List.nth all 0; List.nth all 1 ]);
  (match corrupt with
  | Some (Storage.Truncated _) -> ()
  | other ->
      Alcotest.failf "expected Truncated, got %s"
        (match other with
        | None -> "None"
        | Some c -> Fmt.str "%a" Storage.pp_corruption c))

let test_read_corrupted () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "c.edges" in
  let all = edges 3 in
  let _ = write_edges ~block_cap:1 ~path all in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  (* the three distinct encodings and three edges give six records: pool
     blocks first, then edge blocks; flip one byte inside the *middle* edge
     block's payload *)
  let offs = record_offsets contents in
  Alcotest.(check int) "record layout" 6 (List.length offs);
  let target = List.nth offs 4 in
  let bytes = Bytes.of_string contents in
  let off = target + 4 (* past the length varint, tag, and count *) in
  Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  let back, corrupt = read_edges path in
  Alcotest.(check int) "valid prefix" 1 (List.length back);
  Alcotest.(check bool) "prefix contents" true (back = [ List.hd all ]);
  (match corrupt with
  | Some (Storage.Checksum_mismatch o) ->
      Alcotest.(check int) "damage offset" target o
  | other ->
      Alcotest.failf "expected Checksum_mismatch, got %s"
        (match other with
        | None -> "None"
        | Some c -> Fmt.str "%a" Storage.pp_corruption c))

(* ---------------- storage: crash-point matrix for atomic writes -------- *)

let test_crash_before_rename () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "a.edges" in
  let v1 = edges 2 in
  let _ = write_edges ~path v1 in
  (match
     with_plan "crash-before-rename=1" (fun () -> write_edges ~path (edges 5))
   with
  | _ -> Alcotest.fail "crash point did not fire"
  | exception Faults.Crash _ -> ());
  let back, corrupt = read_edges path in
  Alcotest.(check bool) "old contents intact" true (back = v1);
  Alcotest.(check bool) "no corruption" true (corrupt = None)

let test_crash_after_rename () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "b.edges" in
  let _ = write_edges ~path (edges 2) in
  let v2 = edges 5 in
  (match with_plan "crash-after-rename=1" (fun () -> write_edges ~path v2) with
  | _ -> Alcotest.fail "crash point did not fire"
  | exception Faults.Crash _ -> ());
  let back, corrupt = read_edges path in
  Alcotest.(check bool) "new contents published" true (back = v2);
  Alcotest.(check bool) "no corruption" true (corrupt = None)

let test_short_write_leaves_target () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "s.edges" in
  let v1 = edges 2 in
  let _ = write_edges ~path v1 in
  (match with_plan "short-write=1" (fun () -> write_edges ~path (edges 6)) with
  | _ -> Alcotest.fail "short write did not fire"
  | exception Faults.Injected _ -> ());
  Alcotest.(check bool) "target untouched" true (fst (read_edges path) = v1);
  (* the next clean write overwrites the garbage temp file *)
  let v3 = edges 4 in
  let _ = write_edges ~path v3 in
  Alcotest.(check bool) "clean write wins" true (fst (read_edges path) = v3)

(* ---------------- manifest ---------------- *)

let test_manifest_roundtrip () =
  let workdir = fresh_workdir () in
  let m =
    { Manifest.next_pid = 7; max_vertex = 123; n_seed_edges = 45;
      parts =
        [ { Manifest.pid = 3; lo = 0; hi = 60; file = "p0003.edges" };
          { Manifest.pid = 5; lo = 60; hi = 124; file = "p0005.edges" } ];
      processed = [ ((3, 3), (17, 17)); ((3, 5), (17, 8)) ] }
  in
  Manifest.save ~workdir m;
  (match Manifest.load ~workdir with
  | Some back -> Alcotest.(check bool) "roundtrip" true (back = m)
  | None -> Alcotest.fail "manifest did not load");
  (* flip a digit in the body: the whole-file checksum must reject it *)
  let path = Manifest.path ~workdir in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let damaged =
    String.map (fun c -> if c = '7' then '8' else c)
      (String.sub contents 0 40)
    ^ String.sub contents 40 (String.length contents - 40)
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc damaged);
  Alcotest.(check bool) "damaged manifest rejected" true
    (Manifest.load ~workdir = None);
  (* a format-2 manifest (per-partition versions and counts) fails
     validation even under a valid checksum: the sub-run starts fresh *)
  let v2 =
    "grapple-manifest 2\nnext_pid 7\nmax_vertex 123\nn_seed_edges 45\n\
     part 3 0 60 2 17 p0003.edges\ndone 3 3 2 2 17 17\n"
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "%send %d\n" v2 (Storage.checksum_string v2));
  Alcotest.(check bool) "format-2 manifest rejected" true
    (Manifest.load ~workdir = None);
  Alcotest.(check bool) "missing manifest" true
    (Manifest.load ~workdir:(fresh_workdir ()) = None)

let test_manifest_truncated_header () =
  let workdir = fresh_workdir () in
  let m =
    { Manifest.next_pid = 2; max_vertex = 9; n_seed_edges = 4;
      parts = [ { Manifest.pid = 0; lo = 0; hi = 10; file = "p0000.edges" } ];
      processed = [] }
  in
  Manifest.save ~workdir m;
  let path = Manifest.path ~workdir in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  (* keep only a prefix of the header line: no checksum, no body *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub contents 0 3));
  Alcotest.(check bool) "truncated header rejected" true
    (Manifest.load ~workdir = None);
  (* empty file: same typed outcome, no exception *)
  Out_channel.with_open_bin path (fun _ -> ());
  Alcotest.(check bool) "empty manifest rejected" true
    (Manifest.load ~workdir = None)

(* ---------------- engine under faults ---------------- *)

let true_decode (_ : E.t) = Smt.Formula.True

(* A budget small enough that the chains below start in several
   partitions and split as their alias facts grow, so every fault point
   of the out-of-core engine is reached. *)
let engine_config ~workdir =
  { (Engine.default_config ~workdir) with
    Engine.max_edges_per_partition = 16;
    retry_base_ms = 0.01 }

let mk_engine ?(config_f = fun c -> c) () =
  let workdir = fresh_workdir () in
  let config = config_f (engine_config ~workdir) in
  AEngine.create ~config ~decode:true_decode ~workdir ()

let seed_chain t n =
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New
    ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ];
  for i = 1 to n - 1 do
    AEngine.add_seed t ~src:i ~dst:(i + 1) ~label:Pg.Assign
      ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ]
  done

let facts t =
  AEngine.fold_edges t
    (fun acc e -> (e.AEngine.src, e.AEngine.dst, Pg.to_int e.AEngine.label) :: acc)
    []
  |> List.sort compare

let test_engine_identical_under_rate_faults () =
  let clean = mk_engine () in
  seed_chain clean 10;
  AEngine.run clean;
  let expect = facts clean in
  AEngine.cleanup clean;
  let t =
    with_plan "seed=5,rate=0.3" (fun () ->
        let t = mk_engine () in
        seed_chain t 10;
        AEngine.run t;
        Alcotest.(check bool) "faults actually fired" true
          (Faults.injected_count () > 0);
        Alcotest.(check bool) "retries recorded" true
          (Engine.Metrics.count (AEngine.metrics t).Engine.Metrics.retries > 0);
        t)
  in
  Alcotest.(check bool) "closure identical" true (facts t = expect);
  AEngine.cleanup t

let test_engine_resume_equals_fresh () =
  let clean = mk_engine () in
  seed_chain clean 12;
  AEngine.run clean;
  let expect = facts clean in
  AEngine.cleanup clean;
  let workdir = fresh_workdir () in
  let config = engine_config ~workdir in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t 12;
  (match with_plan "crash-checkpoint=2" (fun () -> AEngine.run t) with
  | _ -> Alcotest.fail "checkpoint crash did not fire"
  | exception Faults.Crash _ -> ());
  Alcotest.(check bool) "manifest durable at crash" true
    (Sys.file_exists (Manifest.path ~workdir));
  (* a fresh process resumes from the manifest; its seeds are discarded in
     favour of the restored partitions *)
  let t2 = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t2 12;
  AEngine.run ~resume:true t2;
  Alcotest.(check bool) "resumed closure identical" true (facts t2 = expect);
  AEngine.cleanup t2

(* A checksum-valid manifest whose partition file vanished (e.g. a partial
   workdir wipe) must not be restored: resume falls back to a fresh run and
   still converges to the same closure. *)
let test_resume_missing_partition_runs_fresh () =
  let clean = mk_engine () in
  seed_chain clean 12;
  AEngine.run clean;
  let expect = facts clean in
  AEngine.cleanup clean;
  let workdir = fresh_workdir () in
  let config = engine_config ~workdir in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t 12;
  (match with_plan "crash-checkpoint=2" (fun () -> AEngine.run t) with
  | _ -> Alcotest.fail "checkpoint crash did not fire"
  | exception Faults.Crash _ -> ());
  (* delete one partition file out from under the (still valid) manifest *)
  (match Manifest.load ~workdir with
  | None -> Alcotest.fail "manifest should be durable at the crash point"
  | Some m ->
      let part = List.hd m.Manifest.parts in
      Sys.remove (Filename.concat workdir part.Manifest.file));
  let t2 = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t2 12;
  AEngine.run ~resume:true t2;
  Alcotest.(check bool) "fresh run after rejected restore is identical" true
    (facts t2 = expect);
  AEngine.cleanup t2

(* ---------------- crash matrix over the count clock ---------------- *)

(* Three initial partitions over vertices [0, 27), each of at most half
   the 10-edge budget: [0, 2), [2, 24) and [24, 27).  The object's chain
   0 -> 1 -> 2 -> 3 also assigns 1 to 26; the Assign chain 20 -> ... -> 26
   is one no object reaches, and only spreads the seeds over three
   partitions.  The first pair, (p0, p0), derives FlowsTo(0, 2) and
   FlowsTo(0, 26); their mirrors are owned by the two unloaded partitions,
   so they are routed there.  The alias facts outgrow the budget, so
   partitions split (twice, into six partitions, in 24 pairs). *)
let matrix_config ~workdir =
  { (Engine.default_config ~workdir) with
    Engine.max_edges_per_partition = 10;
    retry_base_ms = 0.01 }

let matrix_engine workdir =
  let t =
    AEngine.create ~config:(matrix_config ~workdir) ~decode:true_decode
      ~workdir ()
  in
  let enc = [ E.Interval { meth = 0; first = 0; last = 0 } ] in
  seed_chain t 3;
  AEngine.add_seed t ~src:1 ~dst:26 ~label:Pg.Assign ~enc;
  for v = 20 to 25 do
    AEngine.add_seed t ~src:v ~dst:(v + 1) ~label:Pg.Assign ~enc
  done;
  t

(* The dataflow input over three states, 2 the FSM's error: a Track seed
   at state 0, Step a (0 -> 1), four identity Steps, Step b (1 -> Error)
   and five more identity Steps, twelve seeds in all.  A 6-edge budget
   starts them in four partitions, and the Track facts, all rooted at 0,
   split the first.  Each engine builds its own registry, as a resumed
   process would: a Track code must mean the same in both. *)
let df_engine workdir =
  let r = Transfn.create ~n_states:3 in
  let a = Transfn.event r ~error:2 [| 1; 1; 2 |] in
  let b = Transfn.event r ~error:2 [| 0; 2; 2 |] in
  Dg.set_registry r;
  let t =
    DEngine.create
      ~config:
        { (matrix_config ~workdir) with Engine.max_edges_per_partition = 6 }
      ~decode:true_decode ~workdir ()
  in
  let seed src label =
    DEngine.add_seed t ~src ~dst:(src + 1) ~label
      ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ]
  in
  seed 0 (Dg.Track 0);
  seed 1 (Dg.Step a);
  for v = 2 to 11 do
    seed v (Dg.Step (if v = 6 then b else Transfn.identity_id))
  done;
  (t, r)

(* Every Track fact as (dst, state or the event that erred). *)
let df_facts (t, r) =
  DEngine.fold_edges t
    (fun acc e ->
      match e.DEngine.label with
      | Dg.Track c ->
          let what =
            if Transfn.is_error r c then
              Printf.sprintf "error at event %d" (Transfn.error_event r c)
            else Printf.sprintf "state %d" c
          in
          (e.DEngine.dst, what) :: acc
      | Dg.Step _ -> acc)
    []
  |> List.sort compare

let records_in_files workdir =
  match Manifest.load ~workdir with
  | None -> Alcotest.fail "no manifest after the run"
  | Some m ->
      List.fold_left
        (fun n (p : Manifest.part) ->
          let path = Filename.concat workdir p.Manifest.file in
          n + Engine.Edgebuf.n (Storage.read_flat ~path).Storage.buf)
        0 m.Manifest.parts

(* Crash at every rename and checkpoint point of a run of [make], then
   resume in a fresh engine from [make]: the closure must equal the
   uninterrupted run's, and [total_edges], which reads no file, must equal
   the records in the files.  A crash between a pair's flushes and its
   routed appends leaves edges on disk whose routed consequences (here,
   FlowsToBar mirrors) were lost; the resumed run must dispatch them
   again. *)
let crash_matrix name ~make ~run ~facts ~metrics ~n_partitions ~total_edges
    ~cleanup =
  let clean = make (fresh_workdir ()) in
  (* an empty plan counts the run's renames and checkpoints *)
  let counter = Faults.make [] in
  Faults.install counter;
  Fun.protect ~finally:Faults.clear (fun () -> run ~resume:false clean);
  let expect = facts clean in
  let m = metrics clean in
  Alcotest.(check bool) (name ^ ": at least 4 partitions") true
    (n_partitions clean >= 4);
  Alcotest.(check bool) (name ^ ": a partition split") true
    (Engine.Metrics.count m.Engine.Metrics.repartitions > 0);
  cleanup clean;
  let points =
    List.concat_map
      (fun (kind, n) ->
        List.init n (fun i -> Printf.sprintf "%s=%d" kind (i + 1)))
      [ ("crash-before-rename", counter.Faults.n_renames);
        ("crash-after-rename", counter.Faults.n_renames);
        ("crash-checkpoint", counter.Faults.n_checkpoints) ]
  in
  List.iter
    (fun spec ->
      let workdir = fresh_workdir () in
      (match with_plan spec (fun () -> run ~resume:false (make workdir)) with
      | () -> Alcotest.failf "%s %s: the crash did not fire" name spec
      | exception Faults.Crash _ -> ());
      let t = make workdir in
      run ~resume:true t;
      (* before [facts], which reads every partition *)
      Alcotest.(check int)
        (Printf.sprintf "%s %s: total_edges counts the files" name spec)
        (records_in_files workdir) (total_edges t);
      if facts t <> expect then
        Alcotest.failf "%s %s: closure differs" name spec;
      cleanup t)
    points

let test_crash_matrix_resume () =
  crash_matrix "pointer" ~make:matrix_engine
    ~run:(fun ~resume t -> AEngine.run ~resume t)
    ~facts ~metrics:AEngine.metrics ~n_partitions:AEngine.n_partitions
    ~total_edges:AEngine.total_edges ~cleanup:AEngine.cleanup;
  crash_matrix "dataflow" ~make:df_engine
    ~run:(fun ~resume (t, _) -> DEngine.run ~resume t)
    ~facts:df_facts
    ~metrics:(fun (t, _) -> DEngine.metrics t)
    ~n_partitions:(fun (t, _) -> DEngine.n_partitions t)
    ~total_edges:(fun (t, _) -> DEngine.total_edges t)
    ~cleanup:(fun (t, _) -> DEngine.cleanup t)

(* A routed append reads its target through the one reader, so damage
   there is counted like damage anywhere else.  The run crashes at its
   first checkpoint (after preprocessing), the last partition loses its
   tail, and the resumed run counts the damage twice: once when the
   restore counts that file's records, once when the first pair routes
   FlowsToBar(26, 0) into it. *)
let test_routed_append_counts_damage () =
  let workdir = fresh_workdir () in
  (match
     with_plan "crash-checkpoint=1" (fun () ->
         AEngine.run (matrix_engine workdir))
   with
  | () -> Alcotest.fail "the crash did not fire"
  | exception Faults.Crash _ -> ());
  let parts =
    match Manifest.load ~workdir with
    | None -> Alcotest.fail "no manifest at the crash"
    | Some m -> m.Manifest.parts
  in
  Alcotest.(check (list (pair int int))) "initial partitions"
    [ (0, 2); (2, 24); (24, 27) ]
    (List.map
       (fun (p : Manifest.part) -> (p.Manifest.lo, p.Manifest.hi))
       parts);
  let last = List.nth parts 2 in
  let path = Filename.concat workdir last.Manifest.file in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents - 2)));
  let t = matrix_engine workdir in
  AEngine.run ~resume:true t;
  Alcotest.(check int) "restore and routed append both count the damage" 2
    (Engine.Metrics.count (AEngine.metrics t).Engine.Metrics.corrupt_reads);
  AEngine.cleanup t

(* The edge budget is a strict bound: a run whose final closure is exactly
   the budget completes; one edge less trips [Budget_exhausted]; resuming
   the tripped run without a budget finishes with the identical closure. *)
let test_engine_budget_exact_boundary () =
  let clean = mk_engine () in
  seed_chain clean 10;
  AEngine.run clean;
  let expect = facts clean in
  let added =
    Engine.Metrics.count (AEngine.metrics clean).Engine.Metrics.edges_added
  in
  AEngine.cleanup clean;
  Alcotest.(check bool) "closure is non-trivial" true (added > 1);
  let at =
    mk_engine ~config_f:(fun c -> { c with Engine.edge_budget = added }) ()
  in
  seed_chain at 10;
  AEngine.run at;
  Alcotest.(check bool) "exactly-at-budget completes" true (facts at = expect);
  AEngine.cleanup at;
  let workdir = fresh_workdir () in
  let tight = { (engine_config ~workdir) with Engine.edge_budget = added - 1 } in
  let t = AEngine.create ~config:tight ~decode:true_decode ~workdir () in
  seed_chain t 10;
  (match AEngine.run t with
  | _ -> Alcotest.fail "budget of total-1 should trip"
  | exception Engine.Budget_exhausted _ -> ());
  (* same workdir, budget lifted: resume completes what the tripped run
     checkpointed and converges to the same closure *)
  let t2 =
    AEngine.create ~config:(engine_config ~workdir) ~decode:true_decode
      ~workdir ()
  in
  seed_chain t2 10;
  AEngine.run ~resume:true t2;
  Alcotest.(check bool) "resume after exhaustion is identical" true
    (facts t2 = expect);
  AEngine.cleanup t2

let test_engine_edge_budget () =
  let t = mk_engine ~config_f:(fun c -> { c with Engine.edge_budget = 1 }) () in
  seed_chain t 10;
  match AEngine.run t with
  | _ -> Alcotest.fail "edge budget did not trip"
  | exception Engine.Budget_exhausted _ -> AEngine.cleanup t

(* ---------------- pipeline: supervision and degradation ---------------- *)

let leak_src = {|
class Main {
  void main(int n) {
    FileWriter log = new FileWriter();
    log.write(n);
    if (n > 10) {
      log.close();
    }
    return;
  }
}
entry Main.main;
|}

let check_leak ?(config_f = fun c -> c) ?workdir () =
  let program = Jir.Resolve.parse_exn leak_src in
  let workdir = match workdir with Some d -> d | None -> fresh_workdir () in
  let config =
    config_f
      { (Grapple.Pipeline.default_config ~workdir) with
        Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
        Grapple.Pipeline.engine =
          { (Engine.default_config ~workdir) with Engine.retry_base_ms = 0.01 } }
  in
  let fsm = Checkers.fsm "io" in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let pr = Grapple.Pipeline.check_property prepared fsm in
  let stats = Grapple.Pipeline.stats prepared [ pr ] in
  (prepared, pr, stats)

let rendered (pr : Grapple.Pipeline.property_result) =
  String.concat "\n"
    (List.map Suite_parallel.render_report pr.Grapple.Pipeline.reports)

let test_pipeline_identical_under_rate_faults () =
  let p0, pr0, _ = check_leak () in
  let expect = rendered pr0 in
  Grapple.Pipeline.cleanup p0 [ pr0 ];
  with_plan "seed=11,rate=0.3" (fun () ->
      let p, pr, stats = check_leak () in
      Alcotest.(check string) "warnings identical" expect (rendered pr);
      Alcotest.(check bool) "faults fired" true
        (stats.Grapple.Pipeline.n_faults_injected > 0);
      Alcotest.(check bool) "retries counted" true
        (stats.Grapple.Pipeline.n_retried > 0);
      Alcotest.(check int) "nothing degraded" 0
        stats.Grapple.Pipeline.n_inconclusive;
      Grapple.Pipeline.cleanup p [ pr ])

let test_pipeline_budget_degrades () =
  let p, pr, stats =
    check_leak
      ~config_f:(fun c ->
        { c with
          Grapple.Pipeline.instance_edge_budget = 1;
          Grapple.Pipeline.max_retries = 0 })
      ()
  in
  (match pr.Grapple.Pipeline.degraded with
  | Some _ -> ()
  | None -> Alcotest.fail "instance was not degraded");
  (match pr.Grapple.Pipeline.reports with
  | [ { Grapple.Report.kind = Grapple.Report.Inconclusive _; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one Inconclusive report");
  Alcotest.(check int) "n_inconclusive" 1 stats.Grapple.Pipeline.n_inconclusive;
  Grapple.Pipeline.cleanup p [ pr ]

let test_pipeline_fault_recovers () =
  (* op-level retries disabled, so a single injected write failure escalates
     to the supervisor, which restarts the sub-run from its checkpoint: the
     instance must be recovered, not degraded, with identical warnings *)
  let p0, pr0, _ = check_leak () in
  let expect = rendered pr0 in
  Grapple.Pipeline.cleanup p0 [ pr0 ];
  with_plan "fail-write=8" (fun () ->
      let p, pr, stats =
        check_leak
          ~config_f:(fun c ->
            { c with
              Grapple.Pipeline.engine =
                { c.Grapple.Pipeline.engine with Engine.max_retries = 0 } })
          ()
      in
      Alcotest.(check bool) "the fault fired" true
        (Faults.injected_count () = 1);
      Alcotest.(check string) "warnings identical" expect (rendered pr);
      Alcotest.(check int) "nothing degraded" 0
        stats.Grapple.Pipeline.n_inconclusive;
      Alcotest.(check bool) "supervisor recovered the sub-run" true
        (stats.Grapple.Pipeline.n_recovered > 0
        && stats.Grapple.Pipeline.n_retried > 0);
      Grapple.Pipeline.cleanup p [ pr ])

let test_pipeline_resume_byte_identical () =
  let p0, pr0, _ = check_leak () in
  let expect = rendered pr0 in
  Grapple.Pipeline.cleanup p0 [ pr0 ];
  let workdir = fresh_workdir () in
  let crashed = ref false in
  (try
     with_plan "crash-checkpoint=3" (fun () ->
         ignore (check_leak ~workdir ()))
   with Faults.Crash _ -> crashed := true);
  Alcotest.(check bool) "killed at a checkpoint boundary" true !crashed;
  (* restart in the same workdir with --resume semantics *)
  let p, pr, _ =
    check_leak ~workdir
      ~config_f:(fun c -> { c with Grapple.Pipeline.resume = true })
      ()
  in
  Alcotest.(check string) "report byte-identical" expect (rendered pr);
  Grapple.Pipeline.cleanup p [ pr ]

(* ---------------- SMT round budget ---------------- *)

let test_smt_budget_sound () =
  let x () = Smt.Linexpr.var (Smt.Symbol.intern "x") in
  let c n = Smt.Linexpr.const n in
  (* (x <= 0 or x >= 2) and x = 1: propositionally satisfiable, every model
     theory-conflicts, so DPLL(T) needs several rounds to conclude Unsat *)
  let f =
    Smt.Formula.and_
      (Smt.Formula.or_
         (Smt.Formula.le (x ()) (c 0))
         (Smt.Formula.ge (x ()) (c 2)))
      (Smt.Formula.eq (x ()) (c 1))
  in
  Alcotest.(check bool) "unbudgeted answer is Unsat" true
    (Smt.Solver.check f = Smt.Solver.Unsat);
  let hits0 = Atomic.get Smt.Solver.stats.Smt.Solver.budget_hits in
  Smt.Solver.set_budget 1;
  Fun.protect
    ~finally:(fun () -> Smt.Solver.set_budget 0)
    (fun () ->
      let r = Smt.Solver.check f in
      Alcotest.(check bool) "budgeted answer is Unknown (sound)" true
        (r = Smt.Solver.Unknown);
      Alcotest.(check bool) "still treated as feasible" true
        (Smt.Solver.is_sat f);
      Alcotest.(check bool) "budget hit counted" true
        (Atomic.get Smt.Solver.stats.Smt.Solver.budget_hits > hits0))

let suite =
  [ Alcotest.test_case "fault plan parse" `Quick test_plan_parse;
    Alcotest.test_case "read truncated tail" `Quick test_read_truncated;
    Alcotest.test_case "read corrupted record" `Quick test_read_corrupted;
    Alcotest.test_case "crash before rename" `Quick test_crash_before_rename;
    Alcotest.test_case "crash after rename" `Quick test_crash_after_rename;
    Alcotest.test_case "short write leaves target" `Quick
      test_short_write_leaves_target;
    Alcotest.test_case "manifest roundtrip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "manifest truncated header" `Quick
      test_manifest_truncated_header;
    Alcotest.test_case "resume with missing partition runs fresh" `Quick
      test_resume_missing_partition_runs_fresh;
    Alcotest.test_case "crash matrix resumes to the same closure" `Quick
      test_crash_matrix_resume;
    Alcotest.test_case "routed append counts damage" `Quick
      test_routed_append_counts_damage;
    Alcotest.test_case "edge budget exact boundary" `Quick
      test_engine_budget_exact_boundary;
    Alcotest.test_case "engine identical under rate faults" `Quick
      test_engine_identical_under_rate_faults;
    Alcotest.test_case "engine resume equals fresh" `Quick
      test_engine_resume_equals_fresh;
    Alcotest.test_case "engine edge budget trips" `Quick test_engine_edge_budget;
    Alcotest.test_case "pipeline identical under rate faults" `Quick
      test_pipeline_identical_under_rate_faults;
    Alcotest.test_case "pipeline budget degrades" `Quick
      test_pipeline_budget_degrades;
    Alcotest.test_case "pipeline fault recovers" `Quick
      test_pipeline_fault_recovers;
    Alcotest.test_case "pipeline resume byte identical" `Quick
      test_pipeline_resume_byte_identical;
    Alcotest.test_case "smt budget sound" `Quick test_smt_budget_sound ]
