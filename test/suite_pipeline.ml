(* End-to-end tests of the Grapple pipeline and the four checkers: the
   paper's worked examples, path sensitivity, context sensitivity, and the
   statistics plumbing the benchmarks rely on. *)

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grapple-test-pipe-%d-%d" (Unix.getpid ()) !counter)

let check_src ?(checkers = Checkers.all ()) ?(track_null = false) src =
  let program = Jir.Resolve.parse_exn src in
  let workdir = fresh_workdir () in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      track_null }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let results, props, _ = Checkers.run_all_scheduled prepared checkers in
  (prepared, results, props)

let reports_of name results =
  match List.assoc_opt name results with Some r -> r | None -> []

let kind_class (r : Grapple.Report.t) =
  match r.Grapple.Report.kind with
  | Grapple.Report.Leak _ -> "leak"
  | Grapple.Report.Error_state _ -> "error"
  | Grapple.Report.Unhandled_exception _ -> "exn"
  | Grapple.Report.Inconclusive _ -> "inconclusive"

let kinds rs = List.map kind_class rs |> List.sort compare

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

(* ---------------- error sites ---------------- *)

(* The line where the one report [checker] makes on [src] manifests.  A
   counterexample ends at the first transition into Error, so that event
   is the site, whatever follows it on the path.  Each object below is
   passed to a callee or stored, so only the engine can check it. *)
let site_line checker src =
  let _, results, _ = check_src ~checkers:[ Checkers.resolve checker ] src in
  match reports_of checker results with
  | [ { Grapple.Report.kind = Grapple.Report.Error_state _; site = Some p; _ } ]
    ->
      p.Jir.Ast.line
  | rs ->
      Alcotest.failf "expected one sited error, got: %s"
        (String.concat "; " (List.map Grapple.Report.to_string rs))

let test_site_first_event_of_segment () =
  Alcotest.(check int) "manifests at the unlock, not the lock after it" 11
    (site_line "lock" {|
class H {
  void keep(ReentrantLock l) {
    return;
  }
}
class Main {
  void main(int x) {
    ReentrantLock lk = new ReentrantLock();
    H.keep(lk);
    lk.unlock();
    lk.lock();
    return;
  }
}
entry Main.main;
|})

let test_site_sink_store_before_callee_event () =
  (* the callee's sink sits earlier in the file than the store that
     already erred: the site is the store *)
  Alcotest.(check int) "manifests at the store" 13
    (site_line "taint" {|
class H {
  void drain(Holder b) {
    UserInput w = b.payload;
    w.exec();
    return;
  }
}
class Main {
  void main(int p) {
    Holder h = new Holder();
    UserInput u = new UserInput();
    h.payload = u;
    H.drain(h);
    return;
  }
}
entry Main.main;
|})

let test_site_lock_order_product () =
  Alcotest.(check int) "manifests at lockB" 11
    (site_line "lock_order" {|
class H {
  void use(LockPair q) {
    return;
  }
}
class Main {
  void main(int p) {
    LockPair lp = new LockPair();
    H.use(lp);
    lp.lockB();
    lp.lockA();
    lp.unlockA();
    return;
  }
}
entry Main.main;
|})

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
       deduped);
  (* the survivor is the least witness, whatever order the paths came in,
     and the survivors come in key order *)
  let w witness alloc_line =
    { (r (Grapple.Report.Leak "Open") None) with
      Grapple.Report.witness = [ ("p", witness) ];
      alloc_at = { Jir.Ast.file = "f"; line = alloc_line } }
  in
  let reports = [ w 10 7; w 0 7; w 5 7; w 3 2 ] in
  let render rs = List.map Grapple.Report.to_string rs in
  Alcotest.(check (list string)) "canonical survivors in key order"
    [ "[io] leak (ends in Open): FileWriter allocated at f:2 \
       (e.g. when p = 3)";
      "[io] leak (ends in Open): FileWriter allocated at f:7 \
       (e.g. when p = 0)" ]
    (render (Grapple.Report.dedup reports));
  Alcotest.(check (list string)) "input order does not matter"
    (render (Grapple.Report.dedup reports))
    (render (Grapple.Report.dedup (List.rev reports)))

(* The full text of every report a nine-checker check prints with --paths
   ([Report.pp], the witness and the recovered trace, under each checker's
   header), one digest per input: it pins which representative each
   warning prints and in what order, whatever layout the engine's
   partitions take. *)
let test_golden_reports () =
  let figure3b =
    let path =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../examples/figure3b.jir"
    in
    In_channel.with_open_bin path In_channel.input_all
    |> Jir.Resolve.parse_exn ~file:"figure3b.jir"
  in
  let cs =
    List.map Checkers.resolve
      [ "io"; "lock"; "exception"; "socket"; "null"; "lock_order"; "taint";
        "close"; "exc_twr" ]
  in
  List.iter
    (fun (name, program, want) ->
      let workdir = fresh_workdir () in
      let config =
        { (Grapple.Pipeline.default_config ~workdir) with
          Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
          track_null = Checkers.tracks_null cs;
          prefilter_properties = Checkers.fsms cs }
      in
      let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
      let results, props, _ = Checkers.run_all_scheduled prepared cs in
      Grapple.Pipeline.cleanup prepared props;
      let text = Buffer.create 4096 in
      List.iter
        (fun (c, rs) ->
          Printf.bprintf text "== checker %s: %d warning(s)\n" c
            (List.length rs);
          List.iter
            (fun r ->
              Printf.bprintf text "  %s\n"
                (Fmt.str "%a" Grapple.Report.pp_with_trace r))
            rs)
        results;
      let text = Buffer.contents text in
      Alcotest.(check string) (name ^ ": digest of\n" ^ text) want
        (Digest.to_hex (Digest.string text)))
    [ ("figure3b", figure3b, "8b01913be59c63c7d5e4c3940c9ef524");
      ("minizk",
       (Workload.Generator.mini_zookeeper ()).Workload.Generator.program,
       "55ef44a316da7d0388544167bd58407d");
      ("minihdfs", (Workload.Generator.mini_hdfs ()).Workload.Generator.program,
       "2afd89c3a00f0b39abf39dd172f46c84");
      ("minilocks",
       (Workload.Generator.mini_locks ()).Workload.Generator.program,
       "481619598a80459ca831823c746ad05c");
      ("miniclose",
       (Workload.Generator.mini_close ()).Workload.Generator.program,
       "60cac887434ef00fff7be8febcb4faff");
      ("minitaint",
       (Workload.Generator.mini_taint ()).Workload.Generator.program,
       "82726655de8945b22a9ae9d6758df7a9") ]

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
    Alcotest.test_case "site: first event of a segment" `Quick
      test_site_first_event_of_segment;
    Alcotest.test_case "site: sink store before a callee's event" `Quick
      test_site_sink_store_before_callee_event;
    Alcotest.test_case "site: lock_order product" `Quick
      test_site_lock_order_product;
    Alcotest.test_case "report dedup" `Quick test_report_dedup;
    Alcotest.test_case "golden reports" `Quick test_golden_reports ]
