(* Tests for the comparison implementations: the formula string parser, the
   string-constraint engine (Table 5) and the in-memory worklist baseline
   (§5.3). *)

module Formula = Smt.Formula
module Linexpr = Smt.Linexpr
module Solver = Smt.Solver
module Symbol = Smt.Symbol
module Fp = Baseline.Formula_parser
module SEngine = Baseline.String_engine.Make (Cfl.Pointer_grammar)
module Pg = Cfl.Pointer_grammar
module E = Pathenc.Encoding

(* ---------------- formula parser ---------------- *)

let roundtrip f =
  let s = Formula.to_string f in
  let f' = Fp.parse s in
  Alcotest.(check string) ("roundtrip " ^ s) s (Formula.to_string f')

let test_parser_atoms () =
  let x = Linexpr.var (Symbol.intern "x") in
  let y = Linexpr.var (Symbol.intern "y") in
  roundtrip (Formula.le x (Linexpr.const 0));
  roundtrip (Formula.eq x y);
  roundtrip (Formula.lt (Linexpr.scale 3 x) (Linexpr.add y (Linexpr.const 7)));
  roundtrip (Formula.ge x (Linexpr.const (-5)))

let test_parser_structure () =
  let x = Linexpr.var (Symbol.intern "x") in
  roundtrip Formula.True;
  roundtrip Formula.False;
  roundtrip
    (Formula.And
       ( Formula.le x (Linexpr.const 3),
         Formula.Or (Formula.eq x (Linexpr.const 0), Formula.True) ));
  roundtrip (Formula.Not (Formula.eq x (Linexpr.const 2)))

let test_parser_qualified_names () =
  let v = Linexpr.var (Symbol.intern "Main.main::a") in
  let w = Linexpr.var (Symbol.intern "C.<init>::p@17") in
  roundtrip (Formula.le (Linexpr.add v w) (Linexpr.const 1))

let test_parser_rejects_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (try ignore (Fp.parse "x <= 0 leftover"); false
     with Fp.Parse_error _ -> true)

let prop_parser_roundtrip =
  let arb =
    let open QCheck in
    let linexpr =
      Gen.map2
        (fun pairs const ->
          List.fold_left
            (fun acc (i, c) ->
              Linexpr.add acc
                (Linexpr.var ~coeff:c (Symbol.intern (Printf.sprintf "pv%d" i))))
            (Linexpr.const const) pairs)
        (Gen.small_list (Gen.pair (Gen.int_bound 3) (Gen.int_range (-4) 4)))
        (Gen.int_range (-9) 9)
    in
    let atom =
      Gen.map2
        (fun e k -> if k then Formula.atom_le e else Formula.atom_eq e)
        linexpr Gen.bool
    in
    let rec formula depth =
      if depth = 0 then atom
      else
        Gen.frequency
          [ (3, atom);
            (1, Gen.return Formula.True);
            (1, Gen.return Formula.False);
            (2, Gen.map2 (fun a b -> Formula.And (a, b)) (formula (depth - 1))
                  (formula (depth - 1)));
            (2, Gen.map2 (fun a b -> Formula.Or (a, b)) (formula (depth - 1))
                  (formula (depth - 1)));
            (1, Gen.map (fun a -> Formula.Not a) (formula (depth - 1))) ]
    in
    make ~print:Formula.to_string (formula 3)
  in
  QCheck.Test.make ~name:"formula parser roundtrip" ~count:300 arb (fun f ->
      Formula.to_string (Fp.parse (Formula.to_string f)) = Formula.to_string f)

(* ---------------- string engine ---------------- *)

let seed_chain t n =
  SEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~cstr:"true";
  for i = 1 to n - 1 do
    SEngine.add_seed t ~src:i ~dst:(i + 1) ~label:Pg.Assign ~cstr:"true"
  done

let test_string_engine_closure () =
  let workdir = Testdir.fresh () in
  let t = SEngine.create ~workdir () in
  seed_chain t 5;
  SEngine.run t;
  let s = SEngine.stats t in
  Alcotest.(check bool) "did iterations" true
    (s.Baseline.String_engine.iterations > 0);
  Alcotest.(check bool) "edges grew" true
    (s.Baseline.String_engine.edges_after > SEngine.n_seed_edges t)

let test_string_engine_prunes () =
  let workdir = Testdir.fresh () in
  let t = SEngine.create ~workdir () in
  let x = "x" in
  SEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~cstr:(x ^ " <= 0");
  SEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~cstr:("1 - " ^ x ^ " <= 0");
  SEngine.run t;
  (* x <= 0 & x >= 1 is unsat: no flowsTo to vertex 2 *)
  let s = SEngine.stats t in
  Alcotest.(check bool) "constraint was solved" true
    (s.Baseline.String_engine.constraints_solved > 0);
  (* seeds (4 incl. unary/mirror of new) + the alias self-edge on vertex 1;
     the pruned composition adds nothing towards vertex 2 *)
  Alcotest.(check int) "no transitive edge past the conflict" 5
    s.Baseline.String_engine.edges_after

let test_string_engine_more_partitions_than_grapple () =
  (* the Table 5 shape: with the same byte budget, string constraints force
     more partitions than interval encodings on a branchy chain *)
  let workdir = Testdir.fresh () in
  let config =
    { (Baseline.String_engine.default_config ~workdir) with
      Baseline.String_engine.max_bytes_per_partition = 600 }
  in
  let t = SEngine.create ~config ~workdir () in
  let long = String.concat " & " (List.init 6 (fun i ->
      Printf.sprintf "(c%d <= 0)" i)) in
  let long = "(" ^ long ^ ")" in
  ignore long;
  SEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~cstr:"true";
  for i = 1 to 9 do
    SEngine.add_seed t ~src:i ~dst:(i + 1) ~label:Pg.Assign
      ~cstr:(Printf.sprintf "cv%d <= 0" i)
  done;
  SEngine.run t;
  let s = SEngine.stats t in
  Alcotest.(check bool) "splits under byte pressure" true
    (s.Baseline.String_engine.n_partitions > 1)

(* ---------------- worklist baseline ---------------- *)

let prepare src =
  let p = Jir.Unroll.unroll_program ~bound:2 (Jir.Resolve.parse_exn src) in
  let icfet = Symexec.Icfet.build p in
  let cg = Jir.Callgraph.build p in
  let clones = Graphgen.Clone_tree.build icfet cg in
  let ag = Graphgen.Alias_graph.build icfet clones in
  (icfet, ag)

let small_src = {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    FileWriter u = w;
    if (a > 0) {
      u.close();
    }
    return;
  }
}
entry Main.main;
|}

let test_worklist_completes_small () =
  let icfet, ag = prepare small_src in
  let r = Baseline.Worklist.run icfet ag in
  Alcotest.(check bool) "completes" true
    (r.Baseline.Worklist.outcome = Baseline.Worklist.Completed);
  Alcotest.(check bool) "did work" true (r.Baseline.Worklist.edges_processed > 0);
  Alcotest.(check bool) "tracked memory" true (r.Baseline.Worklist.peak_bytes > 0)

let test_worklist_oom_under_budget () =
  let icfet, ag = prepare small_src in
  let r =
    Baseline.Worklist.run
      ~config:{ Baseline.Worklist.memory_budget_bytes = 200; max_seconds = 10. }
      icfet ag
  in
  Alcotest.(check bool) "runs out of memory" true
    (r.Baseline.Worklist.outcome = Baseline.Worklist.Ran_out_of_memory)

let suite =
  [ Alcotest.test_case "parser atoms" `Quick test_parser_atoms;
    Alcotest.test_case "parser structure" `Quick test_parser_structure;
    Alcotest.test_case "parser qualified names" `Quick test_parser_qualified_names;
    Alcotest.test_case "parser rejects garbage" `Quick test_parser_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_parser_roundtrip;
    Alcotest.test_case "string engine closure" `Quick test_string_engine_closure;
    Alcotest.test_case "string engine prunes" `Quick test_string_engine_prunes;
    Alcotest.test_case "string engine partitions" `Quick
      test_string_engine_more_partitions_than_grapple;
    Alcotest.test_case "worklist completes" `Quick test_worklist_completes_small;
    Alcotest.test_case "worklist oom" `Quick test_worklist_oom_under_budget ]
