(* Tests for the lib/analysis dataflow layer: CFG construction, the generic
   solver's client analyses, and the lint diagnostics. *)

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

let test_null_deref_guarded_join_negative () =
  (* a dereference of a variable that is null on one path: the lints stay
     quiet, because nulls are the path-sensitive null checker's *)
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
    return;
    int x = 1;
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
        [ {|"tool":"lint"|}; {|"lint":"unreachable"|};
          {|"method":"Main.main"|} ]
  | ds ->
      Alcotest.fail (Printf.sprintf "expected one diag, got %d" (List.length ds))

(* Everything [grapple lint --interproc] reports (the intraprocedural lints
   and the points-to lints), one digest per subject over the rendered
   diagnostics, so a change to any lint's findings shows here. *)
let lint_surface_digests =
  [ ("figure3b.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("minizk", "2210fa551491c4c450898717c62ccb62");
    ("minihadoop", "863e848374cafd6affaeb00b0997672d");
    ("minihdfs", "f687113b47445efc82af1813adfe4277");
    ("minihbase", "7a79e88f02d0fb26e1a1d5f79d4250ad");
    ("minilocks", "bc17425535647c44aac80dd029534775");
    ("minitaint", "a8fa8653aa40aeb41c1da46d17e0c9ab");
    ("miniclose", "52cf0cf56e4e0eb516eebe00981d8c66");
    ("minitwr", "d41d8cd98f00b204e9800998ecf8427e");
    ("alias_close.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("alias_lock_order.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("alias_socket.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("alias_taint.jir", "6f95d3a135613a89edf2ce9cc4600e80");
    ("escape_close.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("escape_io.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("escape_lock.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("exc_twr_undeclared.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("exception_unhandled.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("summary_io.jir", "71c8a2f478c84a8ec62cb998575cda6f");
    ("summary_socket.jir", "d41d8cd98f00b204e9800998ecf8427e");
    ("summary_taint.jir", "c75077fde9909704ffbf641fa972ca9a") ]

let test_lint_surface_golden () =
  let dir = Filename.dirname Sys.executable_name in
  let of_file path =
    let file = Filename.basename path in
    let src = In_channel.with_open_bin path In_channel.input_all in
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
  let subjects =
    (of_file (Filename.concat dir "../examples/figure3b.jir")
    :: List.map subject
         (Workload.Generator.all_subjects ()
         @ Workload.Generator.dsl_subjects ()))
    @ corpus
  in
  Alcotest.(check (list string)) "every pinned subject is checked"
    (List.map fst lint_surface_digests) (List.map fst subjects);
  List.iter
    (fun (name, program) ->
      let text =
        Analysis.Lint.check_program program
        @ Analysis.Pointsto.diags (Analysis.Pointsto.analyze program)
        |> List.map (fun d -> Analysis.Lint.to_string d ^ "\n")
        |> String.concat ""
      in
      Alcotest.(check string) (name ^ ": digest of\n" ^ text)
        (List.assoc name lint_surface_digests)
        (Digest.to_hex (Digest.string text)))
    subjects

let suite =
  [ Alcotest.test_case "cfg shape" `Quick test_cfg_shape;
    Alcotest.test_case "cfg exceptional edges" `Quick test_cfg_exc_edges;
    Alcotest.test_case "use before init" `Quick test_use_before_init;
    Alcotest.test_case "use before init negative" `Quick
      test_use_before_init_negative;
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
    Alcotest.test_case "lint surface golden" `Quick test_lint_surface_golden ]
