(* End-to-end tests of the Grapple pipeline and the four checkers: the
   paper's worked examples, path sensitivity, context sensitivity, and the
   statistics plumbing the benchmarks rely on. *)

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grapple-test-pipe-%d-%d" (Unix.getpid ()) !counter)

let check_src ?(checkers = Checkers.all ()) ?(track_null = false)
    ?(prefilter = false) src =
  let program = Jir.Resolve.parse_exn src in
  let workdir = fresh_workdir () in
  let prefilter_properties =
    if prefilter then Checkers.fsms checkers else []
  in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      track_null;
      prefilter_properties }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let results, props, _ = Checkers.run_all_scheduled prepared checkers in
  (prepared, results, props)

let reports_of name results =
  match List.assoc_opt name results with Some r -> r | None -> []

let kinds rs =
  List.map
    (fun (r : Grapple.Report.t) ->
      match r.Grapple.Report.kind with
      | Grapple.Report.Leak _ -> "leak"
      | Grapple.Report.Error_state _ -> "error"
      | Grapple.Report.Unhandled_exception _ -> "exn"
      | Grapple.Report.Inconclusive _ -> "inconclusive")
    rs
  |> List.sort compare

let test_figure3b_leak () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "io" ] {|
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
  in
  (match reports_of "io" results with
  | [ r ] ->
      Alcotest.(check (list string)) "exactly the paper's leak" [ "leak" ]
        (kinds [ r ]);
      (* the witness is the x = 0 case the paper walks through *)
      Alcotest.(check (list (pair string int))) "witness"
        [ ("Main.main::a", 0) ] r.Grapple.Report.witness
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected one warning, got %d" (List.length rs)))

let test_path_sensitivity_prunes () =
  (* close guarded by the same condition as the allocation: safe *)
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "io" ] {|
class Main {
  void main(int x) {
    FileWriter out = null;
    if (x >= 0) {
      out = new FileWriter();
    }
    if (x < 0) {
      out.close();
      out.write(1);
    } else {
      out.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "no warning" [] (kinds (reports_of "io" results))

let test_use_after_close () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "io" ] {|
class Main {
  void main(int x) {
    FileWriter w = new FileWriter();
    w.close();
    w.write(1);
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "error state" [ "error" ]
    (kinds (reports_of "io" results))

let test_context_sensitivity () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "io" ] {|
class H {
  FileWriter make(int n) {
    FileWriter w = new FileWriter();
    return w;
  }
  void closeIt(FileWriter f) {
    f.close();
    return;
  }
}
class Main {
  void main(int x) {
    H h = new H();
    FileWriter a = h.make(x);
    FileWriter b = h.make(x);
    h.closeIt(a);
    return;
  }
}
entry Main.main;
|}
  in
  (* only the clone feeding b leaks; a's clone is closed through closeIt *)
  Alcotest.(check (list string)) "one leak" [ "leak" ]
    (kinds (reports_of "io" results))

let test_heap_alias_close () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "io" ] {|
class Main {
  void main(int x) {
    Holder h = new Holder();
    FileWriter w = new FileWriter();
    h.res = w;
    FileWriter u = h.res;
    u.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "closed through the alias" []
    (kinds (reports_of "io" results))

let test_socket_exception_leak () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "socket" ] {|
class Main {
  void main(int addr) {
    Socket s = new Socket();
    try {
      s.connect(addr);
      s.close();
    } catch (IOException e) {
      int logged = 1;
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "exception-path leak" [ "leak" ]
    (kinds (reports_of "socket" results))

let test_socket_exception_closed_in_handler () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "socket" ] {|
class Main {
  void main(int addr) {
    Socket s = new Socket();
    try {
      s.connect(addr);
      s.close();
    } catch (IOException e) {
      s.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "handler closes" []
    (kinds (reports_of "socket" results))

let test_lock_misuse () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "lock" ] {|
class Main {
  void main(int x) {
    ReentrantLock l = new ReentrantLock();
    l.unlock();
    l.lock();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "misordered" [ "error" ]
    (kinds (reports_of "lock" results))

let test_exception_escapes () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "exception" ] {|
class Deep {
  void risky(int n) throws Boom {
    if (n > 0) {
      throw new Boom();
    }
    return;
  }
}
class Mid {
  void call(int n) throws Boom {
    Deep.risky(n);
    return;
  }
}
class Main {
  void main(int n) {
    Mid.call(n);
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "escapes" [ "exn" ]
    (kinds (reports_of "exception" results))

let test_exception_handled_somewhere () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "exception" ] {|
class Deep {
  void risky(int n) throws Boom {
    if (n > 0) {
      throw new Boom();
    }
    return;
  }
}
class Main {
  void main(int n) {
    try {
      Deep.risky(n);
    } catch (Boom b) {
      int handled = 1;
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "handled" []
    (kinds (reports_of "exception" results))

let test_exception_infeasible_throw () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "exception" ] {|
class Main {
  void main(int n) {
    int x = n * 2;
    if (x > n + n) {
      throw new Boom();
    }
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check (list string)) "infeasible throw pruned" []
    (kinds (reports_of "exception" results))

let test_reconfigure_both_channels_leak () =
  (* the Figure 1 dance as a pipeline-level scenario: both the old and the
     new channel leak on the exception path, and nothing else is reported *)
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "socket" ] {|
class Main {
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
entry Main.reconfigure;
|}
  in
  Alcotest.(check (list string)) "two leaks" [ "leak"; "leak" ]
    (kinds (reports_of "socket" results))

let test_report_trace_present () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "io" ] {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    return;
  }
}
entry Main.main;
|}
  in
  match reports_of "io" results with
  | [ r ] ->
      Alcotest.(check bool) "trace recovered" true
        (r.Grapple.Report.trace <> [])
  | _ -> Alcotest.fail "expected one warning"

let test_null_deref () =
  let _, results, _ =
    check_src ~checkers:[ Checkers.resolve "null" ] ~track_null:true {|
class Main {
  void main(int p) {
    FileWriter w = null;
    if (p > 0) {
      w = new FileWriter();
    }
    w.write(p);
    return;
  }
  void safe(int p) {
    FileWriter w = null;
    if (p > 0) {
      w = new FileWriter();
    }
    if (p > 0) {
      w.write(p);
    }
    return;
  }
}
entry Main.main;
entry Main.safe;
|}
  in
  (* main dereferences the null when p <= 0; safe's guard makes the null
     path infeasible *)
  Alcotest.(check (list string)) "one null deref" [ "error" ]
    (kinds (reports_of "null" results))

let test_stats_populated () =
  let prepared, _, props =
    check_src {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  let s = Grapple.Pipeline.stats prepared props in
  Alcotest.(check bool) "vertices counted" true (s.Grapple.Pipeline.n_vertices > 0);
  Alcotest.(check bool) "edges grow" true
    (s.Grapple.Pipeline.n_edges_after >= s.Grapple.Pipeline.n_edges_before);
  Alcotest.(check bool) "partitions" true (s.Grapple.Pipeline.n_partitions > 0);
  Alcotest.(check bool) "iterations" true (s.Grapple.Pipeline.n_iterations > 0);
  Alcotest.(check bool) "breakdown has 4 components" true
    (List.length s.Grapple.Pipeline.breakdown = 4)

(* Every feasibility decision the engines make is one cache hit or one
   solver call, so an enabled cache's lookups are exactly its hits plus the
   constraints solved.  A disabled cache is never consulted, and a verdict
   does not depend on where it came from: the reports stay the same. *)
let test_cache_accounting () =
  let figure3b =
    let path =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../examples/figure3b.jir"
    in
    In_channel.with_open_bin path In_channel.input_all
    |> Jir.Resolve.parse_exn ~file:"figure3b.jir"
  in
  let generated (s : Workload.Generator.subject) =
    s.Workload.Generator.program
  in
  List.iter
    (fun (name, program) ->
      let run cache_enabled =
        let workdir = fresh_workdir () in
        let checkers = Checkers.all_with_null () in
        let base = Grapple.Pipeline.default_config ~workdir in
        let config =
          { base with
            Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
            track_null = true;
            prefilter_properties = Checkers.fsms checkers;
            engine =
              { base.Grapple.Pipeline.engine with Engine.cache_enabled } }
        in
        let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
        let results, props, _ = Checkers.run_all_scheduled prepared checkers in
        let s = Grapple.Pipeline.stats prepared props in
        Grapple.Pipeline.cleanup prepared props;
        let reports =
          List.concat_map
            (fun (c, rs) ->
              List.map (fun r -> c ^ " " ^ Grapple.Report.to_json r) rs)
            results
        in
        (s, reports)
      in
      let on, reports_on = run true in
      Alcotest.(check bool) (name ^ ": the cache is consulted") true
        (on.Grapple.Pipeline.cache_lookups > 0);
      Alcotest.(check int)
        (name ^ ": lookups = hits + constraints solved")
        on.Grapple.Pipeline.cache_lookups
        (on.Grapple.Pipeline.cache_hits
        + on.Grapple.Pipeline.n_constraints_solved);
      let off, reports_off = run false in
      Alcotest.(check int) (name ^ ": a disabled cache counts no lookups") 0
        off.Grapple.Pipeline.cache_lookups;
      Alcotest.(check (list string)) (name ^ ": same reports without cache")
        reports_on reports_off)
    [ ("figure3b", figure3b);
      ("minizk", generated (Workload.Generator.mini_zookeeper ()));
      ("minihdfs", generated (Workload.Generator.mini_hdfs ())) ]

(* ---------------- escape-based instance pre-filter ---------------- *)

let use_after_close_src = {|
class Main {
  void main(int x) {
    FileWriter w = new FileWriter();
    w.close();
    w.write(1);
    return;
  }
}
entry Main.main;
|}

let test_prefilter_same_reports () =
  (* the pre-filter must not change what is reported, only where the work
     happens: the non-escaping alloc is resolved intraprocedurally *)
  let run prefilter =
    let prepared, results, props =
      check_src ~checkers:[ Checkers.resolve "io" ] ~prefilter
        use_after_close_src
    in
    (Grapple.Pipeline.stats prepared props, kinds (reports_of "io" results))
  in
  let s_off, k_off = run false in
  let s_on, k_on = run true in
  Alcotest.(check (list string)) "same warnings either way" k_off k_on;
  Alcotest.(check (list string)) "still the use-after-close" [ "error" ] k_on;
  Alcotest.(check int) "nothing filtered with the filter off" 0
    s_off.Grapple.Pipeline.n_prefiltered;
  Alcotest.(check int) "one allocation filtered" 1
    s_on.Grapple.Pipeline.n_prefiltered;
  Alcotest.(check bool) "alias graph shrinks" true
    (s_on.Grapple.Pipeline.n_vertices < s_off.Grapple.Pipeline.n_vertices)

let test_prefilter_leak_detected () =
  let prepared, results, props =
    check_src ~checkers:[ Checkers.resolve "io" ] ~prefilter:true {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    w.write(a);
    return;
  }
}
entry Main.main;
|}
  in
  let s = Grapple.Pipeline.stats prepared props in
  Alcotest.(check int) "resolved off-engine" 1 s.Grapple.Pipeline.n_prefiltered;
  Alcotest.(check (list string)) "leak still reported" [ "leak" ]
    (kinds (reports_of "io" results))

let test_prefilter_path_sensitive () =
  (* the filtered paths carry the same SMT constraints as the engine: the
     infeasible error path must stay pruned *)
  let prepared, results, props =
    check_src ~checkers:[ Checkers.resolve "io" ] ~prefilter:true {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    int z = p - p;
    w.close();
    if (z > 0) {
      w.write(1);
    }
    return;
  }
}
entry Main.main;
|}
  in
  let s = Grapple.Pipeline.stats prepared props in
  Alcotest.(check int) "resolved off-engine" 1 s.Grapple.Pipeline.n_prefiltered;
  Alcotest.(check (list string)) "infeasible write-after-close pruned" []
    (kinds (reports_of "io" results))

let test_prefilter_inert_on_escaping_allocs () =
  (* figure 3b's writer escapes into an alias; the filter must leave it to
     the engine and reproduce the paper's exact report *)
  let run prefilter =
    let prepared, results, props =
      check_src ~checkers:[ Checkers.resolve "io" ] ~prefilter {|
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
    in
    (Grapple.Pipeline.stats prepared props, kinds (reports_of "io" results))
  in
  let s_off, k_off = run false in
  let s_on, k_on = run true in
  Alcotest.(check int) "nothing qualifies" 0 s_on.Grapple.Pipeline.n_prefiltered;
  Alcotest.(check (list string)) "reports unchanged" k_off k_on;
  Alcotest.(check int) "graph identical" s_off.Grapple.Pipeline.n_vertices
    s_on.Grapple.Pipeline.n_vertices

let test_report_dedup () =
  let r kind site =
    { Grapple.Report.checker = "io"; kind; cls = "FileWriter";
      alloc_at = { Jir.Ast.file = "f"; line = 3 }; site;
      context = []; witness = []; trace = [] }
  in
  let reports =
    [ r (Grapple.Report.Leak "Open") None;
      r (Grapple.Report.Leak "Open") None;
      r (Grapple.Report.Error_state "Error") None;
      r (Grapple.Report.Error_state "Error")
        (Some { Jir.Ast.file = "f"; line = 9 }) ]
  in
  let deduped = Grapple.Report.dedup reports in
  Alcotest.(check int) "two distinct warnings" 2 (List.length deduped);
  (* the error variant with a site is preferred *)
  Alcotest.(check bool) "sited report kept" true
    (List.exists
       (fun (r : Grapple.Report.t) ->
         match (r.Grapple.Report.kind, r.Grapple.Report.site) with
         | Grapple.Report.Error_state _, Some _ -> true
         | _ -> false)
       deduped)

let suite =
  [ Alcotest.test_case "figure 3b leak" `Quick test_figure3b_leak;
    Alcotest.test_case "path sensitivity prunes" `Quick test_path_sensitivity_prunes;
    Alcotest.test_case "use after close" `Quick test_use_after_close;
    Alcotest.test_case "context sensitivity" `Quick test_context_sensitivity;
    Alcotest.test_case "heap alias close" `Quick test_heap_alias_close;
    Alcotest.test_case "socket exception leak" `Quick test_socket_exception_leak;
    Alcotest.test_case "socket handler closes" `Quick
      test_socket_exception_closed_in_handler;
    Alcotest.test_case "lock misuse" `Quick test_lock_misuse;
    Alcotest.test_case "exception escapes" `Quick test_exception_escapes;
    Alcotest.test_case "exception handled" `Quick test_exception_handled_somewhere;
    Alcotest.test_case "infeasible throw pruned" `Quick
      test_exception_infeasible_throw;
    Alcotest.test_case "reconfigure leaks both channels" `Quick
      test_reconfigure_both_channels_leak;
    Alcotest.test_case "report trace present" `Quick test_report_trace_present;
    Alcotest.test_case "null dereference" `Quick test_null_deref;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "cache accounting" `Quick test_cache_accounting;
    Alcotest.test_case "prefilter same reports" `Quick test_prefilter_same_reports;
    Alcotest.test_case "prefilter leak detected" `Quick
      test_prefilter_leak_detected;
    Alcotest.test_case "prefilter path sensitive" `Quick
      test_prefilter_path_sensitive;
    Alcotest.test_case "prefilter inert on escaping allocs" `Quick
      test_prefilter_inert_on_escaping_allocs;
    Alcotest.test_case "report dedup" `Quick test_report_dedup ]
