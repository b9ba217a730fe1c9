(* Tests for the whole-program Andersen points-to layer (ISSUE 7): subset
   soundness on hand-built programs, field sensitivity, cycle collapse,
   determinism, the closure-graph slicer it feeds, and the alias on/off
   differential at several worker counts. *)

let parse src = Jir.Resolve.parse_exn src

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grapple-test-pointsto-%d-%d" (Unix.getpid ()) !counter)

(* ---------------- solver soundness ---------------- *)

let sites pt ~meth_id ~var =
  Analysis.Pointsto.pts_sites pt ~meth_id ~var
  |> List.map (fun (cls, _, line) -> (cls, line))

let test_copy_chain () =
  let pt =
    Analysis.Pointsto.analyze
      (parse {|
class Main {
  void main(int p) {
    FileWriter a = new FileWriter();
    FileWriter b = a;
    FileWriter c = b;
    return;
  }
}
entry Main.main;
|})
  in
  let alloc = [ ("FileWriter", 4) ] in
  Alcotest.(check (list (pair string int))) "a points at the alloc" alloc
    (sites pt ~meth_id:"Main.main" ~var:"a");
  Alcotest.(check (list (pair string int))) "copies inherit it" alloc
    (sites pt ~meth_id:"Main.main" ~var:"c");
  Alcotest.(check bool) "unknown vars are empty" false
    (Analysis.Pointsto.nonempty pt ~meth_id:"Main.main" ~var:"zz")

let test_interprocedural_flow () =
  (* allocation flows out through a return and in through a parameter *)
  let pt =
    Analysis.Pointsto.analyze
      (parse {|
class H {
  FileWriter mk(int n) {
    FileWriter hw = new FileWriter();
    return hw;
  }
  void use(FileWriter f) {
    f.write(1);
    return;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.mk(p);
    H.use(w);
    return;
  }
}
entry Main.main;
|})
  in
  let alloc = [ ("FileWriter", 4) ] in
  Alcotest.(check (list (pair string int))) "return value flows to caller"
    alloc
    (sites pt ~meth_id:"Main.main" ~var:"w");
  Alcotest.(check (list (pair string int))) "argument flows to formal" alloc
    (sites pt ~meth_id:"H.use" ~var:"f")

let test_field_sensitivity () =
  (* two stores into distinct fields of the same holder must not conflate *)
  let pt =
    Analysis.Pointsto.analyze
      (parse {|
class Main {
  void main(int p) {
    Holder h = new Holder();
    FileWriter x = new FileWriter();
    Socket y = new Socket();
    h.f = x;
    h.g = y;
    FileWriter rf = h.f;
    Socket rg = h.g;
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list (pair string int))) "load of f sees only x"
    [ ("FileWriter", 5) ]
    (sites pt ~meth_id:"Main.main" ~var:"rf");
  Alcotest.(check (list (pair string int))) "load of g sees only y"
    [ ("Socket", 6) ]
    (sites pt ~meth_id:"Main.main" ~var:"rg")

let test_cycle_collapse () =
  (* a copy cycle through mutual recursion: the solver must terminate and
     collapse at least one component, and both ends of the cycle keep the
     full points-to set *)
  let pt =
    Analysis.Pointsto.analyze
      (parse {|
class R {
  FileWriter spin(FileWriter a, int n) {
    if (n > 0) {
      FileWriter b = R.spin(a, n - 1);
      return b;
    }
    return a;
  }
}
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    FileWriter r = R.spin(w, p);
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check bool) "a copy cycle was collapsed" true
    (Analysis.Pointsto.n_collapsed pt > 0);
  let alloc = [ ("FileWriter", 13) ] in
  Alcotest.(check (list (pair string int))) "cycle member keeps the set"
    alloc
    (sites pt ~meth_id:"R.spin" ~var:"b");
  Alcotest.(check (list (pair string int))) "result keeps the set" alloc
    (sites pt ~meth_id:"Main.main" ~var:"r")

let test_render_deterministic () =
  let subject () =
    (Workload.Generator.mini_hadoop ()).Workload.Generator.program
  in
  let render p = Analysis.Pointsto.render (Analysis.Pointsto.analyze p) in
  let a = render (subject ()) in
  let b = render (subject ()) in
  Alcotest.(check bool) "renders byte-identical across runs" true (a = b);
  Alcotest.(check bool) "render is non-trivial" true (String.length a > 0)

(* ---------------- pipeline slicer ---------------- *)

let run_pipeline ?(alias_prefilter = true) ?(workers = 1) ?fsms src =
  let program = parse src in
  let workdir = fresh_workdir () in
  let fsms =
    match fsms with
    | Some fs -> fs
    | None -> [ Checkers.fsm "lock" ]
  in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = fsms;
      alias_prefilter;
      workers }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let prs = List.map (Grapple.Pipeline.check_property prepared) fsms in
  let stats = Grapple.Pipeline.stats prepared prs in
  (stats, List.concat_map (fun pr -> pr.Grapple.Pipeline.reports) prs)

let report_sig (rs : Grapple.Report.t list) =
  List.map Grapple.Report.to_string rs |> List.sort compare

(* a lock parked into a holder field and never used again: the store
   wildcards it in the summary tier, so it reaches the engine *)
let parked_lock_src = {|
class H {
  void step(int n) {
    return;
  }
}
class Main {
  void main(int p) {
    Holder h = new Holder();
    ReentrantLock l = new ReentrantLock();
    h.parked = l;
    H.step(p);
    return;
  }
}
entry Main.main;
|}

let test_alias_prefilter_keeps_buggy_alloc () =
  (* a lock that is locked and never unlocked is reported the same with
     or without the points-to analysis *)
  let src = {|
class Main {
  void main(int p) {
    ReentrantLock l = new ReentrantLock();
    l.lock();
    return;
  }
}
entry Main.main;
|}
  in
  let _, r_on = run_pipeline src in
  let _, r_off = run_pipeline ~alias_prefilter:false src in
  Alcotest.(check (list string)) "bug reported identically"
    (report_sig r_off) (report_sig r_on);
  Alcotest.(check bool) "there is a report" true (r_on <> [])

let test_slicer_reduces_edges () =
  let s_on, r_on = run_pipeline parked_lock_src in
  let s_off, r_off = run_pipeline ~alias_prefilter:false parked_lock_src in
  Alcotest.(check bool) "slicer removed edges" true
    (s_on.Grapple.Pipeline.n_edges_sliced > 0);
  Alcotest.(check int) "hatch slices nothing" 0
    s_off.Grapple.Pipeline.n_edges_sliced;
  Alcotest.(check bool) "pre-slice count covers the removed edges" true
    (s_on.Grapple.Pipeline.n_edges_presliced
    >= s_on.Grapple.Pipeline.n_edges_sliced);
  Alcotest.(check (list string)) "reports identical either way"
    (report_sig r_off) (report_sig r_on)

(* ---------------- differential on generated subjects ---------------- *)

let run_subject ?(alias_prefilter = true) ~workers
    (subject : Workload.Generator.subject) =
  let workdir = fresh_workdir () in
  let fsms =
    [ Checkers.fsm "io"; Checkers.fsm "lock";
      Checkers.fsm "socket" ]
  in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = fsms;
      alias_prefilter;
      workers }
  in
  let prepared =
    Grapple.Pipeline.prepare ~config ~workdir subject.Workload.Generator.program
  in
  let props, _schedule = Grapple.Pipeline.check_properties prepared fsms in
  report_sig (List.concat_map (fun pr -> pr.Grapple.Pipeline.reports) props)

let test_differential_generated_subject () =
  let subject = Workload.Generator.mini_zookeeper () in
  List.iter
    (fun workers ->
      let on = run_subject ~workers subject in
      let off = run_subject ~alias_prefilter:false ~workers subject in
      Alcotest.(check (list string))
        (Printf.sprintf "byte-identical reports at workers=%d" workers)
        off on)
    [ 1; 4 ]

(* ---------------- whole-program lints ---------------- *)

let test_workload_pointsto_expectations () =
  let s = Workload.Generator.mini_hbase () in
  let pt =
    Analysis.Pointsto.analyze s.Workload.Generator.program
  in
  let diags = Analysis.Pointsto.diags pt in
  let ls =
    Workload.Scoring.score_lints ~checker:"pointsto"
      ~expected:s.Workload.Generator.expected diags
  in
  Alcotest.(check bool) "planted points-to bugs found" true
    (ls.Workload.Scoring.ltp >= 2);
  Alcotest.(check int) "no misses" 0 ls.Workload.Scoring.lfn;
  Alcotest.(check int) "no false positives" 0 ls.Workload.Scoring.lfp;
  (* the same expectations are invisible to the intraprocedural linter *)
  let intra = Analysis.Lint.check_program s.Workload.Generator.program in
  let ls_intra =
    Workload.Scoring.score_lints ~checker:"pointsto"
      ~expected:s.Workload.Generator.expected intra
  in
  Alcotest.(check int) "intraprocedural lints find none of them" 0
    ls_intra.Workload.Scoring.ltp

let test_never_read_respects_aliased_loads () =
  (* loading the field through an alias of the receiver must suppress the
     never-read diagnostic *)
  let pt =
    Analysis.Pointsto.analyze
      (parse {|
class Main {
  void main(int p) {
    Holder h = new Holder();
    Holder g = h;
    FileWriter w = new FileWriter();
    h.res = w;
    FileWriter r = g.res;
    r.close();
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check int) "aliased load suppresses the diag" 0
    (List.length (Analysis.Pointsto.never_read_diags pt))

let test_confused_sink_requires_cross_method_flow () =
  (* source allocated and drained in the same method: not confused *)
  let pt =
    Analysis.Pointsto.analyze
      (parse {|
class Main {
  void main(int p) {
    Holder h = new Holder();
    UserInput u = new UserInput();
    h.payload = u;
    UserInput w = h.payload;
    w.exec();
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check int) "same-method flow is not reported" 0
    (List.length (Analysis.Pointsto.confused_sink_diags pt))

let suite =
  [ Alcotest.test_case "copy chain" `Quick test_copy_chain;
    Alcotest.test_case "interprocedural flow" `Quick
      test_interprocedural_flow;
    Alcotest.test_case "field sensitivity" `Quick test_field_sensitivity;
    Alcotest.test_case "cycle collapse" `Quick test_cycle_collapse;
    Alcotest.test_case "render deterministic" `Quick
      test_render_deterministic;
    Alcotest.test_case "prefilter keeps buggy alloc" `Quick
      test_alias_prefilter_keeps_buggy_alloc;
    Alcotest.test_case "slicer reduces edges" `Quick
      test_slicer_reduces_edges;
    Alcotest.test_case "differential on generated subject" `Slow
      test_differential_generated_subject;
    Alcotest.test_case "workload pointsto expectations" `Quick
      test_workload_pointsto_expectations;
    Alcotest.test_case "never-read respects aliased loads" `Quick
      test_never_read_respects_aliased_loads;
    Alcotest.test_case "confused sink requires cross-method flow" `Quick
      test_confused_sink_requires_cross_method_flow ]
