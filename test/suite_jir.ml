(* Tests for the JIR frontend: lexer, parser, resolver, pretty-printer
   round-trips, loop unrolling, and the call graph / SCC machinery. *)

let parse = Jir.Resolve.parse_exn

let simple_program = {|
class Util {
  int double_(int n) {
    int r = n * 2;
    return r;
  }
}
class Main {
  void main(int a) {
    int b = Util.double_(a);
    if (b > 10) {
      b = b - 1;
    } else {
      b = b + 1;
    }
    return;
  }
}
entry Main.main;
|}

let test_parse_simple () =
  let p = parse simple_program in
  Alcotest.(check int) "two classes" 2 (List.length p.Jir.Ast.classes);
  Alcotest.(check int) "one entry" 1 (List.length p.Jir.Ast.entries);
  Alcotest.(check bool) "finds Util.double_" true
    (Jir.Ast.find_method p ~cls:"Util" ~meth:"double_" <> None)

let test_parse_statements () =
  let src = {|
class C {
  void m(int p) {
    FileWriter w = new FileWriter();
    C other = null;
    w.write(p + 1);
    other.field = w;
    FileWriter u = other.field;
    u.close();
    int x = 3 * p - 2;
    while (x > 0) {
      x = x - 1;
    }
    try {
      throw new Boom();
    } catch (Boom b) {
      x = 0;
    }
    return;
  }
}
entry C.m;
|} in
  let p = parse src in
  let m = Option.get (Jir.Ast.find_method p ~cls:"C" ~meth:"m") in
  Alcotest.(check int) "statement count" 13
    (List.length (Jir.Ast.block_stmts m.Jir.Ast.body))

(* [block_stmts] order: a statement before the blocks it contains, a
   then-branch before its else-branch, a try body before its handlers.
   The call graph's callee order and the points-to constraint order
   follow it. *)
let test_block_stmts_order () =
  let p = parse {|
class C {
  void m(int p) {
    int x = p;
    if (x > 0) {
      x = x + 1;
      if (x > 2) {
        x = 2;
      } else {
        x = 3;
      }
    } else {
      x = 4;
    }
    while (x > 0) {
      x = x - 1;
    }
    try {
      x = 5;
    } catch (Boom b) {
      x = 6;
    } catch (Bang c) {
      x = 7;
    }
    return;
  }
}
entry C.m;
|} in
  let m = Option.get (Jir.Ast.find_method p ~cls:"C" ~meth:"m") in
  Alcotest.(check (list int)) "source order"
    [ 4; 5; 6; 7; 8; 10; 13; 15; 16; 18; 19; 21; 23; 25 ]
    (List.map
       (fun (s : Jir.Ast.stmt) -> s.Jir.Ast.at.Jir.Ast.line)
       (Jir.Ast.block_stmts m.Jir.Ast.body))

let test_parse_static_vs_instance () =
  let src = {|
class Svc {
  void op(int k) {
    return;
  }
}
class Main {
  void main(int a) {
    Svc s = new Svc();
    s.op(a);
    Svc.op(a);
    return;
  }
}
entry Main.main;
|} in
  let p = parse src in
  let m = Option.get (Jir.Ast.find_method p ~cls:"Main" ~meth:"main") in
  let calls =
    List.filter_map
      (fun (s : Jir.Ast.stmt) ->
        match s.Jir.Ast.kind with Jir.Ast.Expr c -> Some c | _ -> None)
      m.Jir.Ast.body
  in
  match calls with
  | [ inst; static ] ->
      Alcotest.(check bool) "instance has receiver" true
        (inst.Jir.Ast.recv = Some "s");
      Alcotest.(check string) "instance resolved to Svc" "Svc"
        inst.Jir.Ast.target_class;
      Alcotest.(check bool) "static has no receiver" true
        (static.Jir.Ast.recv = None);
      Alcotest.(check string) "static class" "Svc" static.Jir.Ast.target_class
  | _ -> Alcotest.fail "expected two call statements"

let test_parse_errors () =
  let bad = "class C { void m() { int x = ; } }" in
  Alcotest.check_raises "parse error"
    (Jir.Parser.Parse_error ("expected expression (got ';')", 1))
    (fun () -> ignore (Jir.Parser.parse bad))

(* parse/lex failures must carry the line of the offending token, not the
   line the parser started the enclosing construct on *)
let test_parse_error_lines () =
  let bad = "class C {\n  void m(int p) {\n    int x = ;\n  }\n}\n" in
  Alcotest.check_raises "missing expression on line 3"
    (Jir.Parser.Parse_error ("expected expression (got ';')", 3))
    (fun () -> ignore (Jir.Parser.parse bad));
  let bad = "class C {\n  void m(int p) {\n    int x = 1\n    return;\n  }\n}\n" in
  Alcotest.check_raises "missing semicolon reported at the next token"
    (Jir.Parser.Parse_error ("expected ';' (got keyword \"return\")", 4))
    (fun () -> ignore (Jir.Parser.parse bad));
  let bad = "class C {\n  void m(int p) {\n    if (p) {\n    }\n  }\n}\n" in
  Alcotest.check_raises "non-comparison condition on line 3"
    (Jir.Parser.Parse_error ("expected comparison operator (got ')')", 3))
    (fun () -> ignore (Jir.Parser.parse bad))

let test_lexer_error_lines () =
  Alcotest.check_raises "unexpected character"
    (Jir.Lexer.Lex_error ("unexpected character '#'", 2))
    (fun () -> ignore (Jir.Parser.parse "class C {\n# }\n"));
  (* the unterminated comment is reported at the line the scan ends on *)
  Alcotest.check_raises "unterminated comment"
    (Jir.Lexer.Lex_error ("unterminated comment", 3))
    (fun () -> ignore (Jir.Parser.parse "class C {\n/* lost\ncomment"))

(* [int_of_string]'s range: max_int lexes, one more is a positioned
   lexical error, also when it follows a parse error *)
let test_integer_out_of_range () =
  let lit = string_of_int max_int in
  let last = String.length lit - 1 in
  let over =
    String.mapi (fun i c -> if i = last then Char.chr (Char.code c + 1) else c)
      lit
  in
  let src lit =
    Printf.sprintf "class C {\n  void m() {\n    int x = %s;\n  }\n}\n" lit
  in
  let p = Jir.Parser.parse (src lit) in
  let m = Option.get (Jir.Ast.find_method p ~cls:"C" ~meth:"m") in
  Alcotest.(check bool) "max_int lexes" true
    (match m.Jir.Ast.body with
     | [ { Jir.Ast.kind = Decl (_, _, Some (Rexpr (Const n))); _ } ] ->
         n = max_int
     | _ -> false);
  Alcotest.check_raises "one past max_int"
    (Jir.Lexer.Lex_error ("integer literal out of range", 3))
    (fun () -> ignore (Jir.Parser.parse (src over)));
  Alcotest.check_raises "after a parse error"
    (Jir.Lexer.Lex_error ("integer literal out of range", 4))
    (fun () ->
      ignore
        (Jir.Parser.parse
           ("class C {\n  void m() {\n    int x = ;\n"
           ^ "    x = 99999999999999999999;\n  }\n}\n")))

let test_resolve_errors () =
  let src = {|
class C {
  void m(int p) {
    C c = new C();
    c.nosuch(p);
    return;
  }
}
|} in
  let _, errs = Jir.Resolve.run (Jir.Parser.parse src) in
  Alcotest.(check int) "one error" 1 (List.length errs);
  Alcotest.(check bool) "mentions nosuch" true
    (String.length (Jir.Resolve.error_to_string (List.hd errs)) > 0)

let test_library_classes_allowed () =
  let src = {|
class C {
  void m(int p) {
    FileWriter w = new FileWriter();
    w.write(p);
    w.close();
    return;
  }
}
entry C.m;
|} in
  let _, errs = Jir.Resolve.run (Jir.Parser.parse src) in
  Alcotest.(check int) "library calls are fine" 0 (List.length errs)

let test_pp_roundtrip () =
  let p = parse simple_program in
  let text = Jir.Pp.program_to_string p in
  let p2 = parse text in
  let text2 = Jir.Pp.program_to_string p2 in
  Alcotest.(check string) "pp . parse . pp fixpoint" text text2

(* [Const min_int] has no literal: it prints as an expression with the same
   value, and the text is a pp . parse fixpoint *)
let test_pp_min_int () =
  let text = Fmt.str "%a" Jir.Pp.expr (Jir.Ast.Const min_int) in
  let p =
    parse
      (Printf.sprintf
         "class C {\n  int m() {\n    return %s;\n  }\n}\nentry C.m;\n" text)
  in
  let rec eval = function
    | Jir.Ast.Const n -> n
    | Jir.Ast.Binop (Jir.Ast.Add, a, b) -> eval a + eval b
    | Jir.Ast.Binop (Jir.Ast.Sub, a, b) -> eval a - eval b
    | Jir.Ast.Binop (Jir.Ast.Mul, a, b) -> eval a * eval b
    | Jir.Ast.Var v -> Alcotest.failf "variable %s" v
  in
  match (List.hd (List.hd p.Jir.Ast.classes).Jir.Ast.methods).Jir.Ast.body with
  | [ { Jir.Ast.kind = Jir.Ast.Return (Some e); _ } ] ->
      Alcotest.(check int) "same value" min_int (eval e);
      Alcotest.(check string) "pp . parse . pp fixpoint" text
        (Fmt.str "%a" Jir.Pp.expr e)
  | _ -> Alcotest.fail "expected one return"

let test_unroll_removes_loops () =
  let src = {|
class C {
  void m(int p) {
    int i = 0;
    while (i < p) {
      i = i + 1;
      while (i < 3) {
        i = i + 2;
      }
    }
    return;
  }
}
entry C.m;
|} in
  let p = parse src in
  Alcotest.(check bool) "has loops before" false (Jir.Unroll.is_loop_free p);
  let u = Jir.Unroll.unroll_program ~bound:2 p in
  Alcotest.(check bool) "loop free after" true (Jir.Unroll.is_loop_free u)

let test_unroll_size_growth () =
  let src = {|
class C {
  void m(int p) {
    int i = 0;
    while (i < p) {
      i = i + 1;
    }
    return;
  }
}
entry C.m;
|} in
  let p = parse src in
  let u1 = Jir.Unroll.unroll_program ~bound:1 p in
  let u3 = Jir.Unroll.unroll_program ~bound:3 p in
  Alcotest.(check bool) "more copies with higher bound" true
    (Jir.Ast.program_size u3 > Jir.Ast.program_size u1)

let test_unroll_fresh_sids () =
  let src = {|
class C {
  void m(int p) {
    while (p > 0) {
      p = p - 1;
    }
    return;
  }
}
entry C.m;
|} in
  let u = Jir.Unroll.unroll_program ~bound:3 (parse src) in
  let sids = ref [] in
  let rec collect (b : Jir.Ast.block) =
    List.iter
      (fun (s : Jir.Ast.stmt) ->
        sids := s.Jir.Ast.sid :: !sids;
        match s.Jir.Ast.kind with
        | Jir.Ast.If (_, t, f) -> collect t; collect f
        | Jir.Ast.While (_, b) -> collect b
        | Jir.Ast.Try (b, cs) ->
            collect b;
            List.iter (fun c -> collect c.Jir.Ast.handler) cs
        | _ -> ())
      b
  in
  List.iter (fun m -> collect m.Jir.Ast.body) (Jir.Ast.all_methods u);
  let unique = List.sort_uniq compare !sids in
  Alcotest.(check int) "statement ids unique after unrolling"
    (List.length !sids) (List.length unique)

(* Unrolling rewrites loops into nested Ifs but must keep every statement's
   source position: downstream diagnostics (reports, lints) cite original
   lines. *)
let test_unroll_preserves_positions () =
  let src = "class C {\n  void m(int p) {\n    int i = 0;\n    while (i < p) {\n      i = i + 1;\n    }\n    return;\n  }\n}\nentry C.m;\n" in
  let original_lines = [ 3; 4; 5; 7 ] in
  let u = Jir.Unroll.unroll_program ~bound:3 (parse src) in
  let lines = ref [] in
  let rec collect (b : Jir.Ast.block) =
    List.iter
      (fun (s : Jir.Ast.stmt) ->
        lines := s.Jir.Ast.at.Jir.Ast.line :: !lines;
        match s.Jir.Ast.kind with
        | Jir.Ast.If (_, t, f) -> collect t; collect f
        | Jir.Ast.While (_, b) -> collect b
        | Jir.Ast.Try (b, cs) ->
            collect b;
            List.iter (fun c -> collect c.Jir.Ast.handler) cs
        | _ -> ())
      b
  in
  List.iter (fun m -> collect m.Jir.Ast.body) (Jir.Ast.all_methods u);
  let seen = List.sort_uniq compare !lines in
  Alcotest.(check (list int)) "every original line survives, nothing invented"
    original_lines seen;
  Alcotest.(check bool) "unrolled copies multiply the loop lines" true
    (List.length !lines > List.length original_lines)

(* ---------------- call graph and SCC ---------------- *)

let callgraph_program = {|
class A {
  void a1(int x) { B.b1(x); return; }
  void a2(int x) { A.a1(x); B.b2(x); return; }
}
class B {
  void b1(int x) { B.b2(x); return; }
  void b2(int x) { B.b1(x); return; }
}
class Main {
  void main(int x) { A.a2(x); return; }
}
entry Main.main;
|}

let test_callgraph_edges () =
  let p = parse callgraph_program in
  let cg = Jir.Callgraph.build p in
  Alcotest.(check (list string)) "a2 calls" [ "A.a1"; "B.b2" ]
    (Jir.Callgraph.callees cg "A.a2");
  Alcotest.(check (list string)) "b1 callers" [ "B.b2"; "A.a1" ]
    (List.sort compare (Jir.Callgraph.callers cg "B.b1")
     |> List.sort (fun a b -> compare b a))

let test_scc_detection () =
  let p = parse callgraph_program in
  let cg = Jir.Callgraph.build p in
  let scc = Jir.Callgraph.tarjan cg in
  let comp m = Hashtbl.find scc.Jir.Callgraph.component_of m in
  Alcotest.(check bool) "b1 and b2 share a component" true
    (comp "B.b1" = comp "B.b2");
  Alcotest.(check bool) "a1 is alone" true (comp "A.a1" <> comp "B.b1");
  Alcotest.(check bool) "b1 recursive" true
    (Jir.Callgraph.is_recursive cg scc "B.b1");
  Alcotest.(check bool) "a1 not recursive" false
    (Jir.Callgraph.is_recursive cg scc "A.a1")

let test_reverse_topological () =
  let p = parse callgraph_program in
  let cg = Jir.Callgraph.build p in
  let order = Jir.Callgraph.reverse_topological cg in
  let pos m =
    let rec go i = function
      | [] -> Alcotest.fail (m ^ " missing from order")
      | x :: _ when x = m -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  Alcotest.(check bool) "callees before callers: b1 before a1" true
    (pos "B.b1" < pos "A.a1");
  Alcotest.(check bool) "a1 before a2" true (pos "A.a1" < pos "A.a2");
  Alcotest.(check bool) "a2 before main" true (pos "A.a2" < pos "Main.main")

(* round-trip property over generated subjects *)
let prop_generator_roundtrip =
  QCheck.Test.make ~name:"generated subjects parse back" ~count:4
    QCheck.(make (Gen.int_range 1 1000))
    (fun seed ->
      let subj =
        Workload.Generator.generate
          { Workload.Generator.name = Printf.sprintf "prop%d" seed;
            description = "roundtrip";
            seed;
            layers = 2;
            classes_per_layer = 1;
            methods_per_class = 2;
            patterns_per_method = 2;
            calls_per_method = 1;
            bugs = [ ("io", 1) ];
            lint_bugs = [];
            loops_per_subject = 1 }
      in
      let text = Jir.Pp.program_to_string subj.Workload.Generator.program in
      let p2 = parse text in
      Jir.Pp.program_to_string p2 = text)

(* ---- frontend goldens ---- *)

(* A rendering of a resolved parse that covers everything downstream reads:
   classes, fields, method signatures and throws lists, entries, resolve
   errors, and each statement's kind, line and sid.  Sids are taken
   relative to the parse's first one, so the rendering does not depend on
   what was parsed before. *)
let render_parse ~file text =
  let first = !Jir.Ast.sid_counter + 1 in
  let p, errs = Jir.Resolve.run (Jir.Parser.parse ~file text) in
  let open Jir.Ast in
  let b = Buffer.create 65536 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let exprs = Fmt.(list ~sep:(any ", ") Jir.Pp.expr) in
  let call ppf (c : call) =
    Fmt.pf ppf "%s>%s.%s(%a)" (Option.value c.recv ~default:"-")
      c.target_class c.mname exprs c.args
  in
  let rhs ppf = function
    | Rcall c -> Fmt.pf ppf "call %a" call c
    | r -> Jir.Pp.rhs ppf r
  in
  let rec block d = List.iter (stmt d)
  and stmt d s =
    let at =
      Fmt.str "%s%d @%d" (String.make d ' ') (s.sid - first) s.at.line
    in
    match s.kind with
    | Decl (t, v, r) ->
        line "%s decl %a %s = %a" at Jir.Pp.typ t v
          Fmt.(option ~none:(any "-") rhs) r
    | Assign (v, r) -> line "%s assign %s = %a" at v rhs r
    | Store (x, f, y) -> line "%s store %s.%s = %s" at x f y
    | If (c, t, f) ->
        line "%s if %a" at Jir.Pp.cond c;
        block (d + 1) t;
        line "%s else" at;
        block (d + 1) f
    | While (c, body) ->
        line "%s while %a" at Jir.Pp.cond c;
        block (d + 1) body
    | Try (body, catches) ->
        line "%s try" at;
        block (d + 1) body;
        List.iter
          (fun cc ->
            line "%s catch %s %s" at cc.exn_class cc.exn_var;
            block (d + 1) cc.handler)
          catches
    | Throw e -> line "%s throw %s" at e
    | Return r ->
        line "%s return %a" at Fmt.(option ~none:(any "-") Jir.Pp.expr) r
    | Expr c -> line "%s expr %a" at call c
  in
  List.iter
    (fun c ->
      line "class %s" c.cname;
      List.iter (fun (t, f) -> line " field %a %s" Jir.Pp.typ t f) c.fields;
      List.iter
        (fun m ->
          line " method %s.%s(%a) : %a throws [%s]" m.mclass m.mname
            Fmt.(list ~sep:(any ", ") (pair ~sep:(any " ") Jir.Pp.typ string))
            m.params Jir.Pp.typ m.ret (String.concat "," m.throws);
          block 2 m.body)
        c.methods)
    p.classes;
  List.iter (fun (c, m) -> line "entry %s.%s" c m) p.entries;
  List.iter (fun e -> line "error %s" (Jir.Resolve.error_to_string e)) errs;
  Buffer.contents b

(* Comments, nested parenthesised conditions (the parser's one backtrack),
   negative literals, static and instance calls, field traffic, throws
   lists and a try with two handlers; [h.nosuch] is a resolve error. *)
let frontend_source = {|// leading line comment
class Helper {
  FileWriter out;
  int twice(int n) throws IOError, Boom {
    /* block comment
       over two lines */
    int r = n * 2 - -3;
    return r;
  }
}
class Main {
  int count;
  void main(int a, int b, int c) throws Boom {
    Helper h = new Helper(); // trailing comment
    FileWriter w = new FileWriter(a, -7);
    h.out = w;
    FileWriter v = h.out;
    int d = Helper.twice(a + -1);
    int e = h.twice((a + b) * c);
    if ((a + b) > c && (a < b)) {
      v.write(d);
    } else {
      d = -(a - 2);
    }
    if (((a > b)) || !(a == 1)) {
      w.close();
    }
    while (!(d <= 0) && true) {
      d = d - 1;
    }
    try {
      h.nosuch();
      throw new Boom();
    } catch (Boom x) {
      w.close();
    } catch (IOError y) {
      return;
    }
    return;
  }
}
entry Main.main;
|}

(* The pp/parse round trip cannot see sids, lines or call resolution
   drift; these digests of [render_parse] can. *)
let golden_parse_digests =
  [ ("figure3b", "404cc968159f7234e22e375e9d2b1325");
    ("minizk", "bef33c3d6b6f4ef6dee43195b6ac9e08");
    ("minihadoop", "cd828bef3b1bf3f00bde9ca844568552");
    ("minihdfs", "e0ae966686f97184af7e1cd0e1e3a932");
    ("minihbase", "0d482f37ab36382a5a26f7778d5cc50a");
    ("minilocks", "d20166a1c73f1ba065b642bed64a6483");
    ("minitaint", "7d7d383e171b8c8b02d40f0b071e34b2");
    ("miniclose", "3c02e1fff3bc6aac75bbe5b595e1f216");
    ("minitwr", "f3ea9702e82d2dc08bca59a28b9fee9c");
    ("mega24", "f70995c5ad82141aea051731371fbf69");
    ("frontend", "bac4c576434d86565341a123e49d864b") ]

let test_golden_parse () =
  let figure3b =
    In_channel.with_open_bin
      (Filename.concat (Filename.dirname Sys.executable_name)
         "../examples/figure3b.jir")
      In_channel.input_all
  in
  let module G = Workload.Generator in
  let pp (s : G.subject) = Jir.Pp.program_to_string s.G.program in
  let inputs =
    [ ("figure3b", figure3b);
      ("minizk", pp (G.mini_zookeeper ()));
      ("minihadoop", pp (G.mini_hadoop ()));
      ("minihdfs", pp (G.mini_hdfs ()));
      ("minihbase", pp (G.mini_hbase ()));
      ("minilocks", pp (G.mini_locks ()));
      ("minitaint", pp (G.mini_taint ()));
      ("miniclose", pp (G.mini_close ()));
      ("minitwr", pp (G.mini_twr ()));
      ("mega24", pp (G.mega_100k ~units:24 ()));
      ("frontend", frontend_source) ]
  in
  let digests =
    List.map
      (fun (name, text) ->
        (name, Digest.to_hex (Digest.string (render_parse ~file:name text))))
      inputs
  in
  Alcotest.(check (list (pair string string)))
    "rendering digests" golden_parse_digests digests

(* Malformed inputs and the exact diagnostic each one raises.  A lexical
   error anywhere in the file wins over a parse error before it. *)
let diagnostics =
  [ ("class C { void m() { int x = ; } }",
     "parse error at 1: expected expression (got ';')");
    ("class C {\n  void m(int p) {\n    int x = 1\n    return;\n  }\n}\n",
     "parse error at 4: expected ';' (got keyword \"return\")");
    ("class C {\n  void m(int p) {\n    if (p) {\n    }\n  }\n}\n",
     "parse error at 3: expected comparison operator (got ')')");
    ("class C {\n  void m(int a, int b, int c) {\n"
     ^ "    if ((a > b) > c) {\n    }\n  }\n}\n",
     "parse error at 3: expected ')' (got '>')");
    (* the backtracked attempt crosses a line break *)
    ("class C {\n  void m(int a, int b, int c) {\n    if ((a +\n"
     ^ "         b) > c) {\n    }\n    int x = ;\n  }\n}\n",
     "parse error at 6: expected expression (got ';')");
    ("class C {\n  void m() {\n    try {\n    }\n    return;\n  }\n}\n",
     "parse error at 5: try without catch (got keyword \"return\")");
    ("class C {\n  void m(C o) {\n    o.f = 3;\n  }\n}\n",
     "parse error at 3: field store expects a variable right-hand side \
      (got integer 3)");
    ("class C {\n}\nentry C;\n",
     "parse error at 3: expected '.' in entry (got ';')");
    ("class C {\n  void m() {\n    return;\n  }\n",
     "parse error at 5: expected type (got end of input)");
    ("class C {\n# }\n", "lexical error at 2: unexpected character '#'");
    ("class C {\n/* lost\ncomment",
     "lexical error at 3: unterminated comment");
    ("class C {\n  void m(int a, int b) {\n"
     ^ "    if ((a & b) > 0) {\n    }\n  }\n}\n",
     "lexical error at 3: unexpected character '&'");
    ("class C {\n  void m(int p) {\n    int x = ;\n    return;\n  }\n  #\n}\n",
     "lexical error at 6: unexpected character '#'");
    ("class C {\n  void m(int p) {\n    int x = ;\n  }\n}\n/* never\nclosed\n",
     "lexical error at 8: unterminated comment");
    ("class C {\n  void m() {\n    C.nosuch();\n    return;\n  }\n}\n",
     "resolve error: bad.jir:3: class C has no method nosuch") ]

let diagnose src =
  match Jir.Resolve.parse_exn ~file:"bad.jir" src with
  | _ -> "no diagnostic"
  | exception Jir.Parser.Parse_error (msg, line) ->
      Printf.sprintf "parse error at %d: %s" line msg
  | exception Jir.Lexer.Lex_error (msg, line) ->
      Printf.sprintf "lexical error at %d: %s" line msg
  | exception Jir.Resolve.Resolve_error errs ->
      "resolve error: "
      ^ String.concat "; " (List.map Jir.Resolve.error_to_string errs)

let test_golden_diagnostics () =
  List.iter
    (fun (src, want) ->
      Alcotest.(check string) (String.escaped src) want (diagnose src))
    diagnostics

let suite =
  [ Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse statements" `Quick test_parse_statements;
    Alcotest.test_case "block_stmts order" `Quick test_block_stmts_order;
    Alcotest.test_case "static vs instance calls" `Quick test_parse_static_vs_instance;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse error lines" `Quick test_parse_error_lines;
    Alcotest.test_case "lexer error lines" `Quick test_lexer_error_lines;
    Alcotest.test_case "integer out of range" `Quick test_integer_out_of_range;
    Alcotest.test_case "resolve errors" `Quick test_resolve_errors;
    Alcotest.test_case "library classes allowed" `Quick test_library_classes_allowed;
    Alcotest.test_case "pretty-print round trip" `Quick test_pp_roundtrip;
    Alcotest.test_case "pretty-print min_int round trip" `Quick
      test_pp_min_int;
    Alcotest.test_case "unroll removes loops" `Quick test_unroll_removes_loops;
    Alcotest.test_case "unroll size growth" `Quick test_unroll_size_growth;
    Alcotest.test_case "unroll fresh sids" `Quick test_unroll_fresh_sids;
    Alcotest.test_case "unroll preserves positions" `Quick
      test_unroll_preserves_positions;
    Alcotest.test_case "callgraph edges" `Quick test_callgraph_edges;
    Alcotest.test_case "scc detection" `Quick test_scc_detection;
    Alcotest.test_case "reverse topological order" `Quick test_reverse_topological;
    Alcotest.test_case "golden parse" `Quick test_golden_parse;
    Alcotest.test_case "diagnostics golden" `Quick test_golden_diagnostics;
    QCheck_alcotest.to_alcotest prop_generator_roundtrip ]
