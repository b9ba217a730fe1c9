(* Tests for the interprocedural layer (ISSUE 2): SCC condensation order,
   FSM transfer relations, the summary-based bottom-up solver, the
   whole-program lints, and the pipeline's summary pre-filter. *)

let parse src = Jir.Resolve.parse_exn src

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grapple-test-interproc-%d-%d" (Unix.getpid ()) !counter)

(* ---------------- SCC condensation ---------------- *)

let chain_src = {|
class B { void g(int p) { return; } }
class A { void f(int p) { B.g(p); return; } }
class Main { void main(int p) { A.f(p); return; } }
entry Main.main;
|}

let test_sccs_chain () =
  let cg = Jir.Callgraph.build (parse chain_src) in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  Alcotest.(check bool) "all components singleton" true
    (List.for_all (fun c -> List.length c = 1) sccs);
  let order = List.concat sccs in
  let pos x =
    match List.find_index (( = ) x) order with
    | Some i -> i
    | None -> Alcotest.fail ("missing from order: " ^ x)
  in
  Alcotest.(check bool) "callee before caller (B.g < A.f)" true
    (pos "B.g" < pos "A.f");
  Alcotest.(check bool) "callee before caller (A.f < Main.main)" true
    (pos "A.f" < pos "Main.main")

let mutual_src = {|
class B { void g(int p) { A.f(p); return; } }
class A { void f(int p) { if (p > 0) { B.g(p); } return; } }
class Main { void main(int p) { A.f(p); return; } }
entry Main.main;
|}

let test_sccs_mutual_recursion () =
  let cg = Jir.Callgraph.build (parse mutual_src) in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  let cycle =
    match List.find_opt (fun c -> List.mem "A.f" c) sccs with
    | Some c -> c
    | None -> Alcotest.fail "A.f not in any component"
  in
  Alcotest.(check bool) "A.f and B.g share a component" true
    (List.mem "B.g" cycle);
  let main_pos =
    match List.find_index (fun c -> List.mem "Main.main" c) sccs with
    | Some i -> i
    | None -> Alcotest.fail "Main.main not in any component"
  in
  let cycle_pos =
    match List.find_index (fun c -> List.mem "A.f" c) sccs with
    | Some i -> i
    | None -> assert false
  in
  Alcotest.(check bool) "cycle component precedes its caller" true
    (cycle_pos < main_pos)

let test_sccs_self_recursion () =
  let cg =
    Jir.Callgraph.build
      (parse {|
class H { void rec(int n) { if (n > 0) { H.rec(n - 1); } return; } }
class Main { void main(int p) { H.rec(p); return; } }
entry Main.main;
|})
  in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  Alcotest.(check bool) "self-recursive method is its own component" true
    (List.mem [ "H.rec" ] sccs)

(* ---------------- FSM transfer relations ---------------- *)

let io = Checkers.fsm "io"

let state name =
  let rec go i =
    if i >= Fsm.n_states io then Alcotest.fail ("no state " ^ name)
    else if Fsm.state_name io i = name then i
    else go (i + 1)
  in
  go 0

let states_of rel from =
  let v = Array.make (Fsm.n_states io) false in
  v.(from) <- true;
  let img = Fsm.rel_apply rel v in
  List.filter (fun s -> img.(s)) (List.init (Fsm.n_states io) Fun.id)
  |> List.map (Fsm.state_name io)
  |> List.sort compare

let test_rel_compose_apply () =
  let write = Fsm.rel_of_event io "write" in
  let close = Fsm.rel_of_event io "close" in
  Alcotest.(check (list string)) "write keeps Open open" [ "Open" ]
    (states_of write (state "Open"));
  Alcotest.(check (list string)) "write; close closes" [ "Closed" ]
    (states_of (Fsm.rel_compose write close) (state "Open"));
  Alcotest.(check (list string)) "close; write errs" [ "Error" ]
    (states_of (Fsm.rel_compose close write) (state "Open"));
  let joined = Fsm.rel_join (Fsm.rel_identity io) close in
  Alcotest.(check (list string)) "join keeps both outcomes"
    [ "Closed"; "Open" ]
    (states_of joined (state "Open"))

let test_rel_universal_and_leq () =
  let u = Fsm.rel_universal io in
  Alcotest.(check bool) "identity below universal" true
    (Fsm.rel_leq (Fsm.rel_identity io) u);
  Alcotest.(check bool) "any event below universal" true
    (Fsm.rel_leq (Fsm.rel_of_event io "close") u);
  Alcotest.(check bool) "universal not below identity" false
    (Fsm.rel_leq u (Fsm.rel_identity io))

(* ---------------- summary fixpoints ---------------- *)

let rec_close_src = {|
class H {
  void rec(FileWriter f, int n) {
    if (n > 0) {
      H.rec(f, n - 1);
    } else {
      f.close();
    }
    return;
  }
}
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    H.rec(w, p);
    return;
  }
}
entry Main.main;
|}

let test_summary_recursive_fixpoint () =
  let r = List.hd (Analysis.Summaries.analyze [ io ] (parse rec_close_src)) in
  Alcotest.(check bool) "recursive component iterated" true
    (r.Analysis.Summaries.n_scc_iterations
     > List.length (Hashtbl.fold (fun k _ acc -> k :: acc) r.Analysis.Summaries.summaries []));
  let s = Hashtbl.find r.Analysis.Summaries.summaries "H.rec" in
  let ps = s.Analysis.Summaries.s_params.(0) in
  Alcotest.(check (list string)) "every path through rec closes" [ "Closed" ]
    (states_of ps.Analysis.Summaries.ps_rel.(r.Analysis.Summaries.prop)
       (state "Open"));
  (* the allocation in Main is closed on every path and never escapes *)
  Alcotest.(check int) "alloc proved clean" 1
    (List.length (Analysis.Summaries.clean_sids r))

let pass_through_src = {|
class B { void g(FileWriter f) { f.close(); return; } }
class A { void f(FileWriter f) { f.write(1); B.g(f); return; } }
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    A.f(w);
    return;
  }
}
entry Main.main;
|}

(* Without recursion every component is a singleton whose callees are
   already at fixpoint, so the solver analyzes each method exactly once. *)
let test_summary_single_pass () =
  let program = parse pass_through_src in
  let r = List.hd (Analysis.Summaries.analyze [ io ] program) in
  Alcotest.(check int) "one round per method"
    (List.length (Jir.Ast.all_methods program))
    r.Analysis.Summaries.n_scc_iterations;
  Alcotest.(check int) "alloc proved clean" 1
    (List.length (Analysis.Summaries.clean_sids r))

(* ---------------- interprocedural nullness ---------------- *)

let null_ret_src = {|
class H {
  FileWriter mk(int n) {
    FileWriter r = null;
    return r;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.mk(p);
    w.write(1);
    return;
  }
}
entry Main.main;
|}

let lints ds = List.map (fun d -> d.Analysis.Lint.lint) ds

let test_interproc_null_via_return () =
  let program = parse null_ret_src in
  Alcotest.(check (list string)) "summary lint sees the flow"
    [ "interproc-null" ]
    (lints (Analysis.Interproc.null_diags program));
  (* the acceptance criterion: the intraprocedural lints miss this bug *)
  Alcotest.(check bool) "intraprocedural linter is blind to it" true
    (not (List.mem "null-deref"
            (lints (Analysis.Lint.check_program program))))

let test_interproc_null_via_param () =
  let program =
    parse {|
class H { void use(FileWriter f) { f.write(1); return; } }
class Main {
  void main(int p) {
    FileWriter w = null;
    H.use(w);
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "null argument into a dereferencing callee"
    [ "interproc-null" ]
    (lints (Analysis.Interproc.null_diags program))

let test_interproc_null_negative () =
  let program =
    parse {|
class H {
  FileWriter mk(int n) {
    FileWriter r = new FileWriter();
    return r;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.mk(p);
    w.write(1);
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "non-null return stays quiet" []
    (lints (Analysis.Interproc.null_diags program))

(* ---------------- the interproc-leak lint ---------------- *)

let leak_src = {|
class H {
  FileWriter openLog(int n) {
    FileWriter hw = new FileWriter();
    return hw;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.openLog(p);
    w.write(p);
    return;
  }
}
entry Main.main;
|}

let test_interproc_leak_positive () =
  match Analysis.Summaries.leak_diags [ io ] (parse leak_src) with
  | [ d ] ->
      Alcotest.(check string) "lint slug" "interproc-leak" d.Analysis.Lint.lint;
      Alcotest.(check int) "reported at the helper's allocation" 4
        d.Analysis.Lint.at.Jir.Ast.line
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected one leak diag, got %d" (List.length ds))

let test_interproc_leak_negative_closed () =
  let program =
    parse {|
class H {
  FileWriter openLog(int n) {
    FileWriter hw = new FileWriter();
    return hw;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.openLog(p);
    w.write(p);
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "closed on every path: no lint" 0
    (List.length (Analysis.Summaries.leak_diags [ io ] program))

let test_interproc_leak_branch_is_may_not_must () =
  (* close skipped on one branch: the engine reports this (a may-leak with
     a feasible witness), the all-paths lint must not *)
  let program =
    parse {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    w.write(p);
    if (p > 10) {
      w.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "may-leak is not must-leak" 0
    (List.length (Analysis.Summaries.leak_diags [ io ] program))

(* ---------------- pipeline summary pre-filter ---------------- *)

let run_pipeline ?(summary_prefilter = true) src =
  let program = parse src in
  let workdir = fresh_workdir () in
  let fsm = Checkers.fsm "io" in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = [ fsm ];
      summary_prefilter }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let pr = Grapple.Pipeline.check_property prepared fsm in
  let stats = Grapple.Pipeline.stats prepared [ pr ] in
  (stats, pr.Grapple.Pipeline.reports)

(* helper-created, helper-written, caller-closed: escapes its method but
   is provably clean interprocedurally *)
let clean_via_helper_src = {|
class H {
  FileWriter mk(int n) {
    FileWriter hw = new FileWriter();
    hw.write(n);
    return hw;
  }
}
class Main {
  void main(int p) {
    FileWriter w = H.mk(p);
    w.close();
    return;
  }
}
entry Main.main;
|}

let report_sig (rs : Grapple.Report.t list) =
  List.map
    (fun (r : Grapple.Report.t) ->
      Grapple.Report.to_string r)
    rs
  |> List.sort compare

let test_summary_prefilter_prunes_beyond_escape () =
  let s_on, r_on = run_pipeline clean_via_helper_src in
  let s_off, r_off =
    run_pipeline ~summary_prefilter:false clean_via_helper_src
  in
  Alcotest.(check int) "summary filter prunes the allocation" 1
    s_on.Grapple.Pipeline.n_summary_pruned;
  Alcotest.(check int) "hatch disables it" 0
    s_off.Grapple.Pipeline.n_summary_pruned;
  Alcotest.(check (list string)) "reports identical either way"
    (report_sig r_off) (report_sig r_on);
  Alcotest.(check (list string)) "and there are none" [] (report_sig r_on);
  Alcotest.(check bool) "graphs shrink" true
    (s_on.Grapple.Pipeline.n_vertices < s_off.Grapple.Pipeline.n_vertices)

let test_summary_prefilter_keeps_buggy_alloc () =
  let s_on, r_on = run_pipeline leak_src in
  let _, r_off = run_pipeline ~summary_prefilter:false leak_src in
  Alcotest.(check int) "leaking allocation not pruned" 0
    s_on.Grapple.Pipeline.n_summary_pruned;
  Alcotest.(check (list string)) "leak reported identically"
    (report_sig r_off) (report_sig r_on);
  Alcotest.(check bool) "there is a leak report" true (r_on <> [])

(* ---------------- determinism ---------------- *)

let test_summaries_deterministic () =
  let subject () = (Workload.Generator.mini_hadoop ()).Workload.Generator.program in
  let render p =
    Analysis.Summaries.render (List.hd (Analysis.Summaries.analyze [ io ] p))
  in
  let a = render (subject ()) in
  let b = render (subject ()) in
  Alcotest.(check bool) "summaries and facts byte-identical" true (a = b);
  let s1, _ = run_pipeline clean_via_helper_src in
  let s2, _ = run_pipeline clean_via_helper_src in
  Alcotest.(check int) "n_summary_pruned stable across runs"
    s1.Grapple.Pipeline.n_summary_pruned s2.Grapple.Pipeline.n_summary_pruned

(* workload integration: the generated subjects carry interproc-null and
   interproc-leak expectations that only the --interproc lints satisfy *)
let test_workload_interproc_expectations () =
  let s = Workload.Generator.mini_hadoop () in
  let program = s.Workload.Generator.program in
  let diags =
    Analysis.Summaries.interproc_diags
      ~fsms:(Checkers.fsms (Checkers.all_with_null ()))
      program
  in
  let ls =
    Workload.Scoring.score_lints ~checker:"interproc"
      ~expected:s.Workload.Generator.expected diags
  in
  Alcotest.(check bool) "planted interprocedural bugs found" true
    (ls.Workload.Scoring.ltp >= 1);
  Alcotest.(check int) "no misses" 0 ls.Workload.Scoring.lfn;
  Alcotest.(check int) "no false positives" 0 ls.Workload.Scoring.lfp;
  (* the same expectations are invisible to the intraprocedural linter *)
  let intra = Analysis.Lint.check_program program in
  let ls_intra =
    Workload.Scoring.score_lints ~checker:"interproc"
      ~expected:s.Workload.Generator.expected intra
  in
  Alcotest.(check int) "intraprocedural lints find none of them" 0
    ls_intra.Workload.Scoring.ltp

(* ---------------- golden: every property's summary results ---------------- *)

(* The built-in typestate properties, in the order their digests are
   pinned below. *)
let golden_properties =
  [ "io"; "lock"; "socket"; "null"; "lock_order"; "taint"; "close" ]

(* An object threaded through a two-method cycle (ping -> pong -> ping),
   closed at the bottom of the recursion, which then returns a fresh one. *)
let mutual_thread_src = {|
class A {
  FileWriter ping(FileWriter f, int n) {
    f.write(n);
    if (n > 0) {
      FileWriter g = B.pong(f, n - 1);
      return g;
    }
    f.close();
    FileWriter r = new FileWriter();
    return r;
  }
}
class B {
  FileWriter pong(FileWriter f, int n) {
    FileWriter g = A.ping(f, n);
    return g;
  }
}
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    FileWriter x = A.ping(w, p);
    x.write(p);
    return;
  }
}
entry Main.main;
|}

(* Every program the golden digests cover, named. *)
let golden_programs () =
  let dir = Filename.dirname Sys.executable_name in
  let of_file path =
    let ic = open_in_bin path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let file = Filename.basename path in
    (file, Jir.Resolve.parse_exn ~file src)
  in
  let corpus =
    let cdir = Filename.concat dir "corpus" in
    Sys.readdir cdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jir")
    |> List.sort compare
    |> List.map (fun f -> of_file (Filename.concat cdir f))
  in
  let subject (s : Workload.Generator.subject) =
    (s.Workload.Generator.profile.Workload.Generator.name,
     s.Workload.Generator.program)
  in
  let with_unrolled (name, p) =
    [ (name, p); (name ^ "+unroll", Jir.Unroll.unroll_program ~bound:2 p) ]
  in
  List.concat_map with_unrolled
    (List.map subject
       (Workload.Generator.all_subjects () @ Workload.Generator.dsl_subjects ())
    @ corpus
    @ [ of_file (Filename.concat dir "../examples/figure3b.jir");
        ("rec_close", parse rec_close_src);
        ("mutual_thread", parse mutual_thread_src) ]
    @ List.init 100 (fun i ->
          subject
            (Workload.Generator.generate
               (Refinterp.Fuzz.random_profile ~seed:(i + 1)))))
  @ [ ("mega24",
       (Workload.Generator.mega_100k ~units:24 ()).Workload.Generator.program) ]

(* Allocation sids come from a process-wide counter, so they print as their
   rank among the program's allocation sites plus class and line. *)
let golden_site program =
  let sites = Analysis.Summaries.alloc_sites program in
  let rank = Hashtbl.create 64 in
  Hashtbl.fold (fun sid _ acc -> sid :: acc) sites []
  |> List.sort compare
  |> List.iteri (fun i sid -> Hashtbl.replace rank sid i);
  fun sid ->
    let s = Hashtbl.find sites sid in
    Printf.sprintf "#%d:%s@%d" (Hashtbl.find rank sid)
      s.Analysis.Summaries.a_cls s.Analysis.Summaries.a_at.Jir.Ast.line

let golden_text buf program (r : Analysis.Summaries.result) =
  let site = golden_site program in
  Buffer.add_string buf (Analysis.Summaries.render r);
  Buffer.add_string buf "clean";
  List.iter
    (fun sid -> Buffer.add_string buf (" " ^ site sid))
    (Analysis.Summaries.clean_sids r);
  Buffer.add_string buf "\nmust-leak";
  List.iter
    (fun (f : Analysis.Summaries.alloc_fact) ->
      Buffer.add_string buf
        (" " ^ site f.Analysis.Summaries.f_site.Analysis.Summaries.a_sid))
    (Analysis.Summaries.must_leaks r);
  Buffer.add_char buf '\n'

(* Recorded from the per-property analysis before the product domain
   existed; the product's projections must reproduce them exactly, whether
   the properties are analyzed together or one at a time. *)
let golden_digests =
  [ ("io", "78f07188bf285c0d9db2598a77be3858");
    ("lock", "ea1c8726f76c7b1b38703066646253a5");
    ("socket", "f63c424528ac3c2c9a5a20556b931d82");
    ("null", "1f442bbfd9f56f8c5de43e3c89b66360");
    ("lock_order", "c4cae9414344319f01dc924129e8e65c");
    ("taint", "65413ed7246a295b3fc54eb1f2871043");
    ("close", "d468f7ec0bb10938b6ab7386bb3df2a8") ]

let test_summaries_golden () =
  let fsms = List.map Checkers.fsm golden_properties in
  let together = List.map (fun _ -> Buffer.create 4096) fsms in
  let alone = List.map (fun _ -> Buffer.create 4096) fsms in
  List.iter
    (fun (name, program) ->
      let add buf r =
        Buffer.add_string buf ("program " ^ name ^ "\n");
        golden_text buf program r
      in
      List.iter2 add together (Analysis.Summaries.analyze fsms program);
      List.iter2
        (fun buf fsm ->
          add buf (List.hd (Analysis.Summaries.analyze [ fsm ] program)))
        alone fsms)
    (golden_programs ());
  let hex buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  List.iteri
    (fun i prop ->
      let expected = List.assoc prop golden_digests in
      Alcotest.(check string) (prop ^ " analyzed together") expected
        (hex (List.nth together i));
      Alcotest.(check string) (prop ^ " analyzed alone") expected
        (hex (List.nth alone i)))
    golden_properties

(* ---------------- no process-wide analysis state ---------------- *)

(* Two domains run the typestate summaries (on different property sets)
   and the interprocedural null lint on the same program at once; each must
   get exactly the answer a sequential run gets. *)
let test_analyses_in_parallel_domains () =
  let program =
    (Workload.Generator.mini_hdfs ()).Workload.Generator.program
  in
  let run names () =
    let fsms = List.map Checkers.fsm names in
    ( List.map Analysis.Summaries.render
        (Analysis.Summaries.analyze fsms program),
      Analysis.Interproc.null_diags program )
  in
  let a = [ "io"; "lock"; "socket" ]
  and b = [ "null"; "lock_order"; "taint"; "close" ] in
  let seq_a = run a () and seq_b = run b () in
  let repeat names () = List.init 10 (fun _ -> run names ()) in
  let da = Domain.spawn (repeat a) and db = Domain.spawn (repeat b) in
  let par_a = Domain.join da and par_b = Domain.join db in
  List.iter
    (fun r -> Alcotest.(check bool) "first domain sequential" true (r = seq_a))
    par_a;
  List.iter
    (fun r -> Alcotest.(check bool) "second domain sequential" true (r = seq_b))
    par_b

let suite =
  [ Alcotest.test_case "sccs chain order" `Quick test_sccs_chain;
    Alcotest.test_case "sccs mutual recursion" `Quick
      test_sccs_mutual_recursion;
    Alcotest.test_case "sccs self recursion" `Quick test_sccs_self_recursion;
    Alcotest.test_case "rel compose apply" `Quick test_rel_compose_apply;
    Alcotest.test_case "rel universal leq" `Quick test_rel_universal_and_leq;
    Alcotest.test_case "summary recursive fixpoint" `Quick
      test_summary_recursive_fixpoint;
    Alcotest.test_case "summary single pass without recursion" `Quick
      test_summary_single_pass;
    Alcotest.test_case "interproc null via return" `Quick
      test_interproc_null_via_return;
    Alcotest.test_case "interproc null via param" `Quick
      test_interproc_null_via_param;
    Alcotest.test_case "interproc null negative" `Quick
      test_interproc_null_negative;
    Alcotest.test_case "interproc leak positive" `Quick
      test_interproc_leak_positive;
    Alcotest.test_case "interproc leak negative" `Quick
      test_interproc_leak_negative_closed;
    Alcotest.test_case "interproc leak may not must" `Quick
      test_interproc_leak_branch_is_may_not_must;
    Alcotest.test_case "summary prefilter prunes beyond escape" `Quick
      test_summary_prefilter_prunes_beyond_escape;
    Alcotest.test_case "summary prefilter keeps buggy alloc" `Quick
      test_summary_prefilter_keeps_buggy_alloc;
    Alcotest.test_case "summaries deterministic" `Quick
      test_summaries_deterministic;
    Alcotest.test_case "workload interproc expectations" `Quick
      test_workload_interproc_expectations;
    Alcotest.test_case "summaries golden per property" `Quick
      test_summaries_golden;
    Alcotest.test_case "analyses in parallel domains" `Quick
      test_analyses_in_parallel_domains ]
