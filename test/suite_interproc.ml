(* Tests for the interprocedural layer: SCC condensation order, FSM
   transfer relations, the summary-based bottom-up solver, nulls and leaks
   that cross calls, and the pipeline's summary pre-filter. *)

let parse src = Jir.Resolve.parse_exn src

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

(* ---------------- nulls and leaks through calls ---------------- *)

(* The reports [checker] makes on [program] through the pipeline. *)
let engine_run checker program =
  let c = Checkers.resolve checker in
  let workdir = Testdir.fresh () in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = Checkers.fsms [ c ] }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let results, props, _ = Checkers.run_all_scheduled prepared [ c ] in
  Grapple.Pipeline.cleanup prepared props;
  List.concat_map snd results

(* [engine_run] on [src], as (kind, allocation line, line it manifests
   at). *)
let engine_reports checker src =
  engine_run checker (parse src)
  |> List.map (fun (r : Grapple.Report.t) ->
         ( (match r.Grapple.Report.kind with
           | Grapple.Report.Leak _ -> "leak"
           | Grapple.Report.Error_state _ -> "error"
           | _ -> "other"),
           r.Grapple.Report.alloc_at.Jir.Ast.line,
           Option.fold ~none:0
             ~some:(fun (p : Jir.Ast.pos) -> p.Jir.Ast.line)
             r.Grapple.Report.site ))

let reports = Alcotest.(list (triple string int int))

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

let test_null_via_return () =
  Alcotest.check reports "null from the helper, dereferenced in main"
    [ ("error", 4, 11) ]
    (engine_reports "null" null_ret_src)

let test_null_via_param () =
  Alcotest.check reports "null argument, dereferenced in the callee"
    [ ("error", 5, 2) ]
    (engine_reports "null" {|
class H { void use(FileWriter f) { f.write(1); return; } }
class Main {
  void main(int p) {
    FileWriter w = null;
    H.use(w);
    return;
  }
}
entry Main.main;
|})

let test_null_negative () =
  Alcotest.check reports "non-null return stays quiet" []
    (engine_reports "null" {|
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
|})

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

let test_leak_positive () =
  Alcotest.check reports "leak at the helper's allocation" [ ("leak", 4, 0) ]
    (engine_reports "io" leak_src)

let test_leak_negative_closed () =
  Alcotest.check reports "closed on every path" []
    (engine_reports "io" {|
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
|})

(* ---------------- pipeline summary pre-filter ---------------- *)

let run_pipeline ?(summary_prefilter = true) src =
  let program = parse src in
  let workdir = Testdir.fresh () in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = [ Checkers.fsm "io" ];
      summary_prefilter }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let props, _ = Grapple.Pipeline.check_properties prepared in
  let stats = Grapple.Pipeline.stats prepared props in
  (stats, List.concat_map (fun pr -> pr.Grapple.Pipeline.reports) props)

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

(* Every null bug the four paper subjects plant is a null-checker report
   at its expected line, and the checker reports nothing else. *)
let test_planted_null_bugs () =
  List.iter
    (fun (s : Workload.Generator.subject) ->
      let name = s.Workload.Generator.profile.Workload.Generator.name in
      let sc =
        Workload.Scoring.score ~checker:"null"
          ~expected:s.Workload.Generator.expected
          ~reports:(engine_run "null" s.Workload.Generator.program) ()
      in
      Alcotest.(check (triple int int int)) (name ^ " TP, FP, FN")
        ((if name = "minihbase" then 2 else 1), 0, 0)
        Workload.Scoring.(sc.tp, sc.fp, sc.fn))
    (Workload.Generator.all_subjects ())

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
  Buffer.add_char buf '\n'

(* Recorded from the per-property analysis before the product domain
   existed, and recomputed from that analysis's text without the must-leak
   facts when they were deleted; the product's projections must reproduce
   them exactly, whether the properties are analyzed together or one at a
   time. *)
let golden_digests =
  [ ("io", "654751d9a46a01abe7a5e95507bfa3f5");
    ("lock", "78cabb4af9060e159700bb7a6639b826");
    ("socket", "9867f1d155b3d82bc2037740f6c2dc65");
    ("null", "aa3e6a29a2868c6177d121070621b59c");
    ("lock_order", "c86547a44d6e1c053f191c5b9cd12119");
    ("taint", "744cf3db2b3ae4d64f7c50112e6679cd");
    ("close", "7a3f4861c3555f13a3d1333369810b4e") ]

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
   on the same program at once; each must get exactly the answer a
   sequential run gets.  The domains live in a
   forked child, because OCaml 5 refuses to fork a process that has ever
   spawned a domain and other tests fork shard workers.  The child's exit
   status has bit 0 set when the first domain's answer differed, bit 1 for
   the second, and bit 2 when the child raised. *)
let test_analyses_in_parallel_domains () =
  let program =
    (Workload.Generator.mini_hdfs ()).Workload.Generator.program
  in
  let run names () =
    List.map Analysis.Summaries.render
      (Analysis.Summaries.analyze (List.map Checkers.fsm names) program)
  in
  let a = [ "io"; "lock"; "socket" ]
  and b = [ "null"; "lock_order"; "taint"; "close" ] in
  let seq_a = run a () and seq_b = run b () in
  let repeat names () = List.init 10 (fun _ -> run names ()) in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let status =
        try
          let da = Domain.spawn (repeat a) and db = Domain.spawn (repeat b) in
          let par_a = Domain.join da and par_b = Domain.join db in
          (if List.for_all (( = ) seq_a) par_a then 0 else 1)
          lor if List.for_all (( = ) seq_b) par_b then 0 else 2
        with _ -> 4
      in
      Unix._exit status
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED status ->
          Alcotest.(check int) "the child ran to the end" 0 (status land 4);
          Alcotest.(check bool) "first domain sequential" true
            (status land 1 = 0);
          Alcotest.(check bool) "second domain sequential" true
            (status land 2 = 0)
      | _ -> Alcotest.fail "the child ended on a signal")

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
      test_null_via_return;
    Alcotest.test_case "interproc null via param" `Quick test_null_via_param;
    Alcotest.test_case "interproc null negative" `Quick test_null_negative;
    Alcotest.test_case "interproc leak positive" `Quick test_leak_positive;
    Alcotest.test_case "interproc leak negative" `Quick
      test_leak_negative_closed;
    Alcotest.test_case "summary prefilter prunes beyond escape" `Quick
      test_summary_prefilter_prunes_beyond_escape;
    Alcotest.test_case "summary prefilter keeps buggy alloc" `Quick
      test_summary_prefilter_keeps_buggy_alloc;
    Alcotest.test_case "summaries deterministic" `Quick
      test_summaries_deterministic;
    Alcotest.test_case "planted null bugs are engine reports" `Quick
      test_planted_null_bugs;
    Alcotest.test_case "summaries golden per property" `Quick
      test_summaries_golden;
    Alcotest.test_case "analyses in parallel domains" `Quick
      test_analyses_in_parallel_domains ]
