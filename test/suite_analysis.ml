(* Tests for the lib/analysis dataflow layer: CFG construction, the generic
   solver's client analyses, the lint diagnostics, and the escape-based
   instance pre-filter. *)

let parse src = Jir.Resolve.parse_exn src

let meth_named program id =
  match
    List.find_opt
      (fun m -> Jir.Ast.meth_id m = id)
      (Jir.Ast.all_methods program)
  with
  | Some m -> m
  | None -> Alcotest.fail ("no such method: " ^ id)

let cfg_of src id = Analysis.Cfg.build (meth_named (parse src) id)

(* First node whose kind satisfies [pred]. *)
let find_node (g : Analysis.Cfg.t) pred =
  let n = Analysis.Cfg.n_nodes g in
  let rec go i =
    if i >= n then Alcotest.fail "node not found"
    else if pred g.Analysis.Cfg.kinds.(i) then i
    else go (i + 1)
  in
  go 0

let lint_names diags = List.map (fun d -> d.Analysis.Lint.lint) diags

(* ---------------- CFG shape ---------------- *)

let branchy = {|
class Main {
  void main(int p) {
    int x = 0;
    if (p > 0) {
      x = 1;
    } else {
      x = 2;
    }
    int y = x + 1;
    return;
  }
}
entry Main.main;
|}

let test_cfg_shape () =
  let g = cfg_of branchy "Main.main" in
  let branch =
    find_node g (function Analysis.Cfg.Branch _ -> true | _ -> false)
  in
  let kinds = List.map snd g.Analysis.Cfg.succs.(branch) in
  Alcotest.(check bool) "branch has true edge" true
    (List.mem Analysis.Cfg.True kinds);
  Alcotest.(check bool) "branch has false edge" true
    (List.mem Analysis.Cfg.False kinds);
  let reach = Analysis.Cfg.reachable g in
  Alcotest.(check bool) "exit reachable" true reach.(g.Analysis.Cfg.exit_);
  Alcotest.(check bool) "declared vars include param and locals" true
    (List.for_all
       (fun v -> List.mem v (Analysis.Cfg.declared_vars g))
       [ "p"; "x"; "y" ])

let test_cfg_exc_edges () =
  let g =
    cfg_of {|
class H { void helper(int n) { return; } }
class Main {
  void main(int p) {
    try {
      H.helper(p);
    } catch (Boom b) {
      int logged = 1;
    }
    return;
  }
}
entry Main.main;
|} "Main.main"
  in
  let call =
    find_node g (fun k -> Analysis.Cfg.node_call k <> None)
  in
  let exc_succs =
    List.filter (fun (_, k) -> k = Analysis.Cfg.Exc) g.Analysis.Cfg.succs.(call)
  in
  Alcotest.(check int) "call has one exceptional successor" 1
    (List.length exc_succs);
  let bind, _ = List.hd exc_succs in
  (match g.Analysis.Cfg.kinds.(bind) with
  | Analysis.Cfg.Bind (_, cls, v) ->
      Alcotest.(check string) "handler class" "Boom" cls;
      Alcotest.(check string) "bound var" "b" v
  | _ -> Alcotest.fail "Exc edge should target the catch binder")

(* ---------------- lints ---------------- *)

let test_use_before_init () =
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    int x;
    int y = x + 1;
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list string)) "flagged" [ "use-before-init" ]
    (lint_names diags)

let test_use_before_init_negative () =
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    int x;
    if (p > 0) {
      x = 1;
    } else {
      x = 2;
    }
    int y = x + 1;
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list string)) "assigned on both branches" []
    (lint_names diags)

let test_null_deref () =
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    FileWriter w = null;
    w.write(p);
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list string)) "definite null deref" [ "null-deref" ]
    (lint_names diags)

let test_null_deref_guarded_join_negative () =
  (* after the join w is only *maybe* null; the lint stays quiet (the
     path-sensitive null checker owns that case) *)
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    FileWriter w = null;
    if (p > 0) {
      w = new FileWriter();
    }
    w.write(p);
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list string)) "maybe-null is not flagged" []
    (lint_names diags)

let test_dead_branch () =
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    int z = p - p;
    if (z > 0) {
      z = z + 1;
    }
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list string)) "z - z is never positive" [ "dead-branch" ]
    (lint_names diags)

let test_dead_branch_undecidable_negative () =
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    int z = p;
    if (z > 0) {
      z = z + 1;
    }
    return;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list string)) "data-dependent branch kept" []
    (lint_names diags)

let test_unreachable_after_return () =
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    return;
    int x = 1;
  }
}
entry Main.main;
|})
  in
  Alcotest.(check (list string)) "code after return" [ "unreachable" ]
    (lint_names diags)

let test_clean_program_no_diags () =
  (* the paper's Figure 3b program is lint-clean: all its defects need the
     path-sensitive engine *)
  let diags =
    Analysis.Lint.check_program (parse {|
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
|})
  in
  Alcotest.(check (list string)) "no diagnostics" [] (lint_names diags)

let test_clean_examples_no_diags () =
  (* the other two shipped examples — they exercise while loops, try/catch
     and throws, none of which may produce a lint diagnostic *)
  let zookeeper = {|
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
  in
  let hdfs = {|
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
  in
  List.iter
    (fun (name, src) ->
      Alcotest.(check (list string))
        (name ^ " is lint-clean") []
        (lint_names (Analysis.Lint.check_program (parse src))))
    [ ("zookeeper_reconfigure", zookeeper); ("hdfs_shutdown", hdfs) ]

let test_lint_json () =
  let diags =
    Analysis.Lint.check_program (parse {|
class Main {
  void main(int p) {
    FileWriter w = null;
    w.write(p);
    return;
  }
}
entry Main.main;
|})
  in
  match diags with
  | [ d ] ->
      let j = Analysis.Lint.to_json d in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "json contains %s" needle)
            true
            (let rec search i =
               i + String.length needle <= String.length j
               && (String.sub j i (String.length needle) = needle
                  || search (i + 1))
             in
             search 0))
        [ {|"tool":"lint"|}; {|"lint":"null-deref"|}; {|"method":"Main.main"|} ]
  | ds ->
      Alcotest.fail (Printf.sprintf "expected one diag, got %d" (List.length ds))

(* ---------------- escape pre-filter ---------------- *)

let tracked_fw cls = cls = "FileWriter"

(* The escape tier over [program], each method's CFET built on its first
   lookup: a method with a loop must be rejected without one. *)
let escape program =
  let config = Symexec.Cfet.default_config program in
  Analysis.Escape.analyze ~tracked:tracked_fw program ~cfet:(fun id ->
      Symexec.Cfet.build ~config ~meth_idx:0 (meth_named program id))

let callee_name (s : Jir.Ast.stmt) =
  match s.Jir.Ast.kind with
  | Jir.Ast.Expr c
  | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rcall c))
  | Jir.Ast.Assign (_, Jir.Ast.Rcall c) ->
      c.Jir.Ast.mname
  | _ -> Alcotest.fail "an event that is not a call"

let test_escape_qualifies () =
  let program = parse {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    if (p > 0) {
      w.close();
    }
    return;
  }
}
entry Main.main;
|}
  in
  match escape program with
  | [ r ] ->
      Alcotest.(check string) "class" "FileWriter" r.Analysis.Escape.cls;
      Alcotest.(check string) "variable" "w" r.Analysis.Escape.var;
      Alcotest.(check int) "both sides of the branch enumerated" 2
        (List.length r.Analysis.Escape.paths);
      let events =
        List.map
          (fun (p : Analysis.Escape.path) ->
            List.map callee_name p.Analysis.Escape.events)
          r.Analysis.Escape.paths
        |> List.sort compare
      in
      Alcotest.(check (list (list string))) "event sequences"
        [ []; [ "close" ] ] events
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected one resolved alloc, got %d" (List.length rs))

let test_escape_disqualified_by_aliasing () =
  let program = parse {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    FileWriter u = w;
    u.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "aliased alloc stays on the engine path" 0
    (List.length (escape program))

let test_escape_disqualified_by_call_arg () =
  let program = parse {|
class H { void take(FileWriter f) { f.close(); return; } }
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    H.take(w);
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "escaping arg stays on the engine path" 0
    (List.length (escape program))

let test_escape_disqualified_by_store () =
  let program = parse {|
class Main {
  void main(int p) {
    Holder h = new Holder();
    FileWriter w = new FileWriter();
    h.res = w;
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "field store escapes" 0
    (List.length (escape program))

let test_escape_disqualified_by_loop () =
  let program = parse {|
class Main {
  void main(int p) {
    FileWriter w = new FileWriter();
    int i = 0;
    while (i < 2) {
      i = i + 1;
    }
    w.close();
    return;
  }
}
entry Main.main;
|}
  in
  Alcotest.(check int) "looping method not enumerated" 0
    (List.length (escape program))

let suite =
  [ Alcotest.test_case "cfg shape" `Quick test_cfg_shape;
    Alcotest.test_case "cfg exceptional edges" `Quick test_cfg_exc_edges;
    Alcotest.test_case "use before init" `Quick test_use_before_init;
    Alcotest.test_case "use before init negative" `Quick
      test_use_before_init_negative;
    Alcotest.test_case "null deref" `Quick test_null_deref;
    Alcotest.test_case "null deref guarded join" `Quick
      test_null_deref_guarded_join_negative;
    Alcotest.test_case "dead branch" `Quick test_dead_branch;
    Alcotest.test_case "dead branch undecidable" `Quick
      test_dead_branch_undecidable_negative;
    Alcotest.test_case "unreachable after return" `Quick
      test_unreachable_after_return;
    Alcotest.test_case "clean program" `Quick test_clean_program_no_diags;
    Alcotest.test_case "clean examples" `Quick test_clean_examples_no_diags;
    Alcotest.test_case "lint json" `Quick test_lint_json;
    Alcotest.test_case "escape qualifies" `Quick test_escape_qualifies;
    Alcotest.test_case "escape aliasing" `Quick
      test_escape_disqualified_by_aliasing;
    Alcotest.test_case "escape call arg" `Quick
      test_escape_disqualified_by_call_arg;
    Alcotest.test_case "escape field store" `Quick
      test_escape_disqualified_by_store;
    Alcotest.test_case "escape loop" `Quick test_escape_disqualified_by_loop ]
