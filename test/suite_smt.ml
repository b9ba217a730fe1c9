(* Tests for the SMT substrate: linear expressions, formulas, the theory
   solver, the SAT core, and the DPLL(T) driver. *)

module Linexpr = Smt.Linexpr
module Formula = Smt.Formula
module Theory = Smt.Theory
module Sat = Smt.Sat
module Solver = Smt.Solver
module Symbol = Smt.Symbol

let sym = Symbol.intern
let x () = Linexpr.var (sym "x")
let y () = Linexpr.var (sym "y")
let z () = Linexpr.var (sym "z")
let c = Linexpr.const

let check_result = Alcotest.testable
    (fun ppf -> function
      | Solver.Sat -> Fmt.string ppf "Sat"
      | Solver.Unsat -> Fmt.string ppf "Unsat"
      | Solver.Unknown -> Fmt.string ppf "Unknown")
    ( = )

let solve = Solver.check

(* ---------------- Linexpr ---------------- *)

let test_linexpr_add () =
  let e = Linexpr.add (x ()) (Linexpr.add (x ()) (c 3)) in
  Alcotest.(check int) "coeff of x" 2 (Linexpr.coeff_of (sym "x") e);
  Alcotest.(check int) "const" 3 e.Linexpr.const

let test_linexpr_sub_cancel () =
  let e = Linexpr.sub (Linexpr.add (x ()) (y ())) (x ()) in
  Alcotest.(check int) "x cancelled" 0 (Linexpr.coeff_of (sym "x") e);
  Alcotest.(check int) "y kept" 1 (Linexpr.coeff_of (sym "y") e)

let test_linexpr_sub_empty_left () =
  (* regression: subtracting from a constant must negate the coefficients *)
  let e = Linexpr.sub (c 5) (x ()) in
  Alcotest.(check int) "-x" (-1) (Linexpr.coeff_of (sym "x") e);
  Alcotest.(check int) "const 5" 5 e.Linexpr.const

let test_linexpr_scale () =
  let e = Linexpr.scale (-3) (Linexpr.add (x ()) (c 2)) in
  Alcotest.(check int) "-3x" (-3) (Linexpr.coeff_of (sym "x") e);
  Alcotest.(check int) "-6" (-6) e.Linexpr.const;
  Alcotest.(check bool) "scale 0 is zero" true
    (Linexpr.equal Linexpr.zero (Linexpr.scale 0 (x ())))

let test_linexpr_subst () =
  (* x := y + 1 in 2x + 3 gives 2y + 5 *)
  let e = Linexpr.add (Linexpr.scale 2 (x ())) (c 3) in
  let e = Linexpr.subst ~v:(sym "x") ~by:(Linexpr.add (y ()) (c 1)) e in
  Alcotest.(check int) "2y" 2 (Linexpr.coeff_of (sym "y") e);
  Alcotest.(check int) "x gone" 0 (Linexpr.coeff_of (sym "x") e);
  Alcotest.(check int) "const 5" 5 e.Linexpr.const

let test_linexpr_eval () =
  let e = Linexpr.add (Linexpr.scale 2 (x ())) (Linexpr.sub (y ()) (c 7)) in
  let assignment v = if v = sym "x" then 3 else 4 in
  Alcotest.(check int) "2*3 + 4 - 7" 3 (Linexpr.eval assignment e)

(* ---------------- Formula construction ---------------- *)

let test_formula_constant_folding () =
  Alcotest.(check bool) "0 <= 1 is true" true (Formula.le (c 0) (c 1) = Formula.True);
  Alcotest.(check bool) "1 <= 0 is false" true (Formula.le (c 1) (c 0) = Formula.False);
  Alcotest.(check bool) "x < x is false" true (Formula.lt (x ()) (x ()) = Formula.False);
  Alcotest.(check bool) "x = x is true" true (Formula.eq (x ()) (x ()) = Formula.True)

let test_formula_gcd_tightening () =
  (* 2x <= 1 tightens to x <= 0 over the integers *)
  match Formula.le (Linexpr.scale 2 (x ())) (c 1) with
  | Formula.Atom (Formula.Le e) ->
      Alcotest.(check int) "coeff 1" 1 (Linexpr.coeff_of (sym "x") e);
      Alcotest.(check int) "const 0" 0 e.Linexpr.const
  | _ -> Alcotest.fail "expected an atom"

let test_formula_infeasible_eq () =
  (* 2x = 1 has no integer solution; folded to False at construction *)
  Alcotest.(check bool) "2x = 1 is false" true
    (Formula.eq (Linexpr.scale 2 (x ())) (c 1) = Formula.False)

let test_nnf_no_negation () =
  let f =
    Formula.not_
      (Formula.and_
         (Formula.le (x ()) (c 0))
         (Formula.not_ (Formula.eq (y ()) (c 2))))
  in
  let rec no_not = function
    | Formula.Not _ -> false
    | Formula.And (a, b) | Formula.Or (a, b) -> no_not a && no_not b
    | Formula.True | Formula.False | Formula.Atom _ -> true
  in
  Alcotest.(check bool) "nnf eliminates negation" true (no_not (Formula.nnf f))

(* ---------------- Theory solver ---------------- *)

let test_theory_simple_sat () =
  (* x <= 0 and x >= -5 *)
  let atoms =
    [ Formula.Le (x ()); Formula.Le (Linexpr.sub (c (-5)) (x ())) ]
  in
  Alcotest.(check bool) "sat" true (Theory.check atoms ~neg_eqs:[] = Theory.Sat)

let test_theory_simple_unsat () =
  (* x <= 0 and x >= 1, i.e. x <= 0 and 1 - x <= 0 *)
  let atoms = [ Formula.Le (x ()); Formula.Le (Linexpr.sub (c 1) (x ())) ] in
  Alcotest.(check bool) "unsat" true
    (Theory.check atoms ~neg_eqs:[] = Theory.Unsat)

let test_theory_equality_substitution () =
  (* x = y + 1, y = 3, x <= 2 is unsat *)
  let atoms =
    [ Formula.Eq (Linexpr.sub (x ()) (Linexpr.add (y ()) (c 1)));
      Formula.Eq (Linexpr.sub (y ()) (c 3));
      Formula.Le (Linexpr.sub (x ()) (c 2)) ]
  in
  Alcotest.(check bool) "unsat" true
    (Theory.check atoms ~neg_eqs:[] = Theory.Unsat)

let test_theory_transitive_chain () =
  (* x <= y, y <= z, z <= x - 1 is unsat (cycle with slack) *)
  let le a b = Formula.Le (Linexpr.sub a b) in
  let atoms =
    [ le (x ()) (y ()); le (y ()) (z ());
      le (z ()) (Linexpr.sub (x ()) (c 1)) ]
  in
  Alcotest.(check bool) "unsat" true
    (Theory.check atoms ~neg_eqs:[] = Theory.Unsat);
  let atoms_ok = [ le (x ()) (y ()); le (y ()) (z ()); le (z ()) (x ()) ] in
  Alcotest.(check bool) "sat without slack" true
    (Theory.check atoms_ok ~neg_eqs:[] = Theory.Sat)

let test_theory_neg_eq_split () =
  (* 0 <= x <= 1 and x <> 0 and x <> 1 is unsat over the integers *)
  let atoms =
    [ Formula.Le (Linexpr.neg (x ())); Formula.Le (Linexpr.sub (x ()) (c 1)) ]
  in
  Alcotest.(check bool) "x in {0,1} minus both" true
    (Theory.check atoms ~neg_eqs:[ x (); Linexpr.sub (x ()) (c 1) ]
     = Theory.Unsat);
  Alcotest.(check bool) "x in {0,1} minus one" true
    (Theory.check atoms ~neg_eqs:[ x () ] = Theory.Sat)

(* ---------------- SAT core ---------------- *)

let test_sat_basic () =
  (* (a | b) & (!a | b) & (a | !b) forces a=b=true *)
  match Sat.solve ~nvars:2 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ] with
  | Sat.Sat model ->
      Alcotest.(check bool) "a" true model.(1);
      Alcotest.(check bool) "b" true model.(2)
  | Sat.Unsat -> Alcotest.fail "expected sat"

let test_sat_unsat () =
  let clauses = [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ] in
  Alcotest.(check bool) "unsat" true (Sat.solve ~nvars:2 clauses = Sat.Unsat)

let test_sat_empty_clause () =
  Alcotest.(check bool) "empty clause unsat" true
    (Sat.solve ~nvars:1 [ [] ] = Sat.Unsat)

let test_sat_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: vars p_ij = pigeon i in hole j, 1-indexed *)
  let v i j = ((i - 1) * 2) + j in
  let clauses =
    (* each pigeon somewhere *)
    [ [ v 1 1; v 1 2 ]; [ v 2 1; v 2 2 ]; [ v 3 1; v 3 2 ] ]
    (* no two pigeons share a hole *)
    @ List.concat_map
        (fun j ->
          [ [ -v 1 j; -v 2 j ]; [ -v 1 j; -v 3 j ]; [ -v 2 j; -v 3 j ] ])
        [ 1; 2 ]
  in
  Alcotest.(check bool) "pigeonhole unsat" true
    (Sat.solve ~nvars:6 clauses = Sat.Unsat)

(* ---------------- DPLL(T) ---------------- *)

let test_solver_conjunction_fastpath () =
  let f =
    Formula.conj
      [ Formula.ge (x ()) (c 0); Formula.le (x ()) (c 10);
        Formula.eq (y ()) (Linexpr.add (x ()) (c 1));
        Formula.gt (y ()) (c 10) ]
  in
  (* x <= 10 and y = x+1 > 10 forces x = 10: satisfiable *)
  Alcotest.check check_result "sat" Solver.Sat (solve f);
  let g = Formula.and_ f (Formula.lt (x ()) (c 10)) in
  Alcotest.check check_result "then unsat" Solver.Unsat (solve g)

let test_solver_disjunction () =
  (* (x <= 0 | x >= 5) & x = 3  is unsat; with x = 6 sat *)
  let disj = Formula.or_ (Formula.le (x ()) (c 0)) (Formula.ge (x ()) (c 5)) in
  Alcotest.check check_result "unsat" Solver.Unsat
    (solve (Formula.and_ disj (Formula.eq (x ()) (c 3))));
  Alcotest.check check_result "sat" Solver.Sat
    (solve (Formula.and_ disj (Formula.eq (x ()) (c 6))))

let test_solver_paper_example () =
  (* the infeasible third path of Figure 3b: x < 0, y = x + 1, y > 0 *)
  let f =
    Formula.conj
      [ Formula.lt (x ()) (c 0);
        Formula.eq (y ()) (Linexpr.add (x ()) (c 1));
        Formula.gt (y ()) (c 0) ]
  in
  Alcotest.check check_result "infeasible path" Solver.Unsat (solve f);
  (* the feasible first path: x >= 0, y = x - 1, y > 0 *)
  let g =
    Formula.conj
      [ Formula.ge (x ()) (c 0);
        Formula.eq (y ()) (Linexpr.sub (x ()) (c 1));
        Formula.gt (y ()) (c 0) ]
  in
  Alcotest.check check_result "feasible path" Solver.Sat (solve g)

let test_model_extraction () =
  (* x >= 3, y = x + 2, y <= 6 has exactly x in {3,4} *)
  let f =
    Formula.conj
      [ Formula.ge (x ()) (c 3);
        Formula.eq (y ()) (Linexpr.add (x ()) (c 2));
        Formula.le (y ()) (c 6) ]
  in
  (match Solver.check_with_model f with
  | Solver.Model_sat (Some model) ->
      let value v = match List.assoc_opt v model with Some n -> n | None -> 0 in
      Alcotest.(check bool) "witness satisfies formula" true
        (Formula.eval value f);
      Alcotest.(check bool) "x in range" true
        (value (sym "x") >= 3 && value (sym "x") <= 4)
  | Solver.Model_sat None -> Alcotest.fail "expected a concrete witness"
  | Solver.Model_unsat | Solver.Model_unknown -> Alcotest.fail "expected sat");
  (* unsat formulas have no model *)
  let g = Formula.and_ f (Formula.ge (x ()) (c 10)) in
  Alcotest.(check bool) "unsat has no model" true
    (Solver.check_with_model g = Solver.Model_unsat)

let test_model_disconnected_components () =
  (* two independent constraint groups merge into one witness *)
  let f =
    Formula.conj
      [ Formula.ge (x ()) (c 5);
        Formula.le (y ()) (c (-2));
        Formula.eq (z ()) (c 7) ]
  in
  match Solver.check_with_model f with
  | Solver.Model_sat (Some model) ->
      let value v = match List.assoc_opt v model with Some n -> n | None -> 0 in
      Alcotest.(check bool) "holds" true (Formula.eval value f)
  | _ -> Alcotest.fail "expected a witness"

(* x = 0 and x <> 0: every sign choice of the disequality conflicts with
   the equality.  At budget 1, DPLL(T) spends its one extra round and gives
   up, and [check] must do exactly the same; at the default budget the
   theory splits the disequality and answers Unsat with no budget hit. *)
let test_solver_budget_one_disequality () =
  let f = Formula.and_ (Formula.eq (x ()) (c 0)) (Formula.ne (x ()) (c 0)) in
  let hits () = Solver.stats.Solver.budget_hits in
  let saved = !Solver.round_budget in
  Fun.protect ~finally:(fun () -> Solver.round_budget := saved) @@ fun () ->
  Solver.set_budget 1;
  let h0 = hits () in
  let direct = Solver.solve_with_skeleton (Formula.nnf f) in
  let h1 = hits () in
  let checked = solve f in
  let h2 = hits () in
  Alcotest.check check_result "DPLL(T) runs out of rounds" Solver.Unknown
    direct;
  Alcotest.check check_result "check answers as DPLL(T)" direct checked;
  Alcotest.(check int) "the same budget hits" (h1 - h0) (h2 - h1);
  Solver.set_budget 0;
  Alcotest.check check_result "split by the theory" Solver.Unsat (solve f);
  Alcotest.(check int) "no budget hit" h2 (hits ())

let test_solver_entailment () =
  let f = Formula.ge (x ()) (c 5) in
  let g = Formula.ge (x ()) (c 0) in
  Alcotest.(check bool) "x>=5 entails x>=0" true (Solver.entails f g);
  Alcotest.(check bool) "x>=0 does not entail x>=5" false (Solver.entails g f)

(* ---------------- properties ---------------- *)

let arb_linexpr =
  let open QCheck in
  let gen =
    Gen.map2
      (fun coeffs const ->
        List.fold_left
          (fun acc (i, c) ->
            Linexpr.add acc (Linexpr.var ~coeff:c (sym (Printf.sprintf "q%d" i))))
          (Linexpr.const const) coeffs)
      (Gen.small_list (Gen.pair (Gen.int_bound 4) (Gen.int_range (-5) 5)))
      (Gen.int_range (-20) 20)
  in
  make ~print:Linexpr.to_string gen

let prop_add_comm =
  QCheck.Test.make ~name:"linexpr add commutative" ~count:200
    (QCheck.pair arb_linexpr arb_linexpr) (fun (a, b) ->
      Linexpr.equal (Linexpr.add a b) (Linexpr.add b a))

let prop_sub_self_zero =
  QCheck.Test.make ~name:"linexpr a - a = 0" ~count:200 arb_linexpr (fun a ->
      Linexpr.equal (Linexpr.sub a a) Linexpr.zero)

let prop_neg_involution =
  QCheck.Test.make ~name:"linexpr neg involutive" ~count:200 arb_linexpr
    (fun a -> Linexpr.equal (Linexpr.neg (Linexpr.neg a)) a)

(* random small conjunctions: solver agrees with brute-force evaluation
   over a small box of integer assignments *)
let arb_small_formula =
  let open QCheck in
  let atom =
    Gen.map2
      (fun e k ->
        match k mod 3 with
        | 0 -> Formula.atom_le e
        | 1 -> Formula.atom_eq e
        | _ -> Formula.not_ (Formula.atom_le e))
      (Gen.map2
         (fun cx rest -> Linexpr.add (Linexpr.var ~coeff:cx (sym "q0")) rest)
         (Gen.int_range (-2) 2)
         (Gen.map2
            (fun cy const ->
              Linexpr.add (Linexpr.var ~coeff:cy (sym "q1")) (Linexpr.const const))
            (Gen.int_range (-2) 2)
            (Gen.int_range (-4) 4)))
      Gen.int
  in
  let gen =
    Gen.map
      (fun atoms -> Formula.conj atoms)
      (Gen.list_size (Gen.int_range 1 4) atom)
  in
  make ~print:Formula.to_string gen

(* witness extraction agrees with brute force over the box *)
let prop_model_valid =
  QCheck.Test.make ~name:"extracted models satisfy the formula" ~count:150
    arb_small_formula (fun f ->
      match Solver.check_with_model f with
      | Solver.Model_sat (Some model) ->
          let value v =
            match List.assoc_opt v model with Some n -> n | None -> 0
          in
          Formula.eval value f
      | Solver.Model_sat None | Solver.Model_unsat | Solver.Model_unknown ->
          true)

let prop_solver_sound_on_box =
  (* if brute force finds a model in [-8,8]^2, the solver must say Sat *)
  QCheck.Test.make ~name:"solver finds box models" ~count:150 arb_small_formula
    (fun f ->
      let has_model = ref false in
      for a = -8 to 8 do
        for b = -8 to 8 do
          let assignment v =
            if v = sym "q0" then a else if v = sym "q1" then b else 0
          in
          if Formula.eval assignment f then has_model := true
        done
      done;
      if !has_model then Solver.check f <> Solver.Unsat else true)

let prop_unsat_has_no_box_model =
  QCheck.Test.make ~name:"unsat formulas have no box models" ~count:150
    arb_small_formula (fun f ->
      if Solver.check f = Solver.Unsat then begin
        let ok = ref true in
        for a = -8 to 8 do
          for b = -8 to 8 do
            let assignment v =
              if v = sym "q0" then a else if v = sym "q1" then b else 0
            in
            if Formula.eval assignment f then ok := false
          done
        done;
        !ok
      end
      else true)

(* Conjunctions of 0-3 atoms or negated inequalities and 1-4 disequalities
   over q0..q2.  Each disequality has a unit coefficient, so it stays a
   negated equality after normalization. *)
let arb_diseq_conjunction =
  let open QCheck in
  let var i = sym (Printf.sprintf "q%d" i) in
  let term =
    Gen.map2
      (fun coeffs k ->
        List.fold_left
          (fun acc (i, coeff) -> Linexpr.add acc (Linexpr.var ~coeff (var i)))
          (Linexpr.const k)
          (List.mapi (fun i coeff -> (i, coeff)) coeffs))
      (Gen.list_repeat 3 (Gen.int_range (-2) 2))
      (Gen.int_range (-4) 4)
  in
  let atom =
    Gen.map2
      (fun e k ->
        match k mod 3 with
        | 0 -> Formula.atom_le e
        | 1 -> Formula.atom_eq e
        | _ -> Formula.not_ (Formula.atom_le e))
      term Gen.nat
  in
  let diseq =
    Gen.map3
      (fun (i, di) (sign, c) k ->
        let j = (i + 1 + di) mod 3 in
        Formula.ne
          (Linexpr.add (Linexpr.var ~coeff:sign (var i))
             (Linexpr.var ~coeff:c (var j)))
          (Linexpr.const k))
      (Gen.pair (Gen.int_bound 2) (Gen.int_bound 1))
      (Gen.pair (Gen.oneofl [ -1; 1 ]) (Gen.int_range (-2) 2))
      (Gen.int_range (-4) 4)
  in
  let gen =
    Gen.map2
      (fun atoms diseqs -> Formula.conj (atoms @ diseqs))
      (Gen.list_size (Gen.int_bound 3) atom)
      (Gen.list_size (Gen.int_range 1 4) diseq)
  in
  make ~print:Formula.to_string gen

(* brute force over [-6,6]^3 *)
let has_box_model f =
  let found = ref false in
  for a = -6 to 6 do
    for b = -6 to 6 do
      for d = -6 to 6 do
        let assignment v =
          if v = sym "q0" then a
          else if v = sym "q1" then b
          else if v = sym "q2" then d
          else 0
        in
        if Formula.eval assignment f then found := true
      done
    done
  done;
  !found

(* the theory's split of each disequality decides what DPLL(T) decides
   over the Tseitin skeleton, and neither misses a model in the box *)
let prop_disequalities_split_by_theory =
  QCheck.Test.make ~name:"disequalities: theory split = DPLL(T)" ~count:200
    arb_diseq_conjunction (fun f ->
      let checked = Solver.check f in
      checked = Solver.solve_with_skeleton (Formula.nnf f)
      && ((not (has_box_model f)) || checked <> Solver.Unsat))

let suite =
  [ Alcotest.test_case "linexpr add" `Quick test_linexpr_add;
    Alcotest.test_case "linexpr sub cancels" `Quick test_linexpr_sub_cancel;
    Alcotest.test_case "linexpr sub from const" `Quick test_linexpr_sub_empty_left;
    Alcotest.test_case "linexpr scale" `Quick test_linexpr_scale;
    Alcotest.test_case "linexpr subst" `Quick test_linexpr_subst;
    Alcotest.test_case "linexpr eval" `Quick test_linexpr_eval;
    Alcotest.test_case "formula constant folding" `Quick test_formula_constant_folding;
    Alcotest.test_case "formula gcd tightening" `Quick test_formula_gcd_tightening;
    Alcotest.test_case "formula infeasible equality" `Quick test_formula_infeasible_eq;
    Alcotest.test_case "nnf eliminates negations" `Quick test_nnf_no_negation;
    Alcotest.test_case "theory sat" `Quick test_theory_simple_sat;
    Alcotest.test_case "theory unsat" `Quick test_theory_simple_unsat;
    Alcotest.test_case "theory equality subst" `Quick test_theory_equality_substitution;
    Alcotest.test_case "theory transitive chain" `Quick test_theory_transitive_chain;
    Alcotest.test_case "theory disequality split" `Quick test_theory_neg_eq_split;
    Alcotest.test_case "sat basic" `Quick test_sat_basic;
    Alcotest.test_case "sat unsat" `Quick test_sat_unsat;
    Alcotest.test_case "sat empty clause" `Quick test_sat_empty_clause;
    Alcotest.test_case "sat pigeonhole" `Quick test_sat_pigeonhole_3_2;
    Alcotest.test_case "solver conjunction" `Quick test_solver_conjunction_fastpath;
    Alcotest.test_case "solver disjunction" `Quick test_solver_disjunction;
    Alcotest.test_case "solver figure 3b paths" `Quick test_solver_paper_example;
    Alcotest.test_case "model extraction" `Quick test_model_extraction;
    Alcotest.test_case "model across components" `Quick test_model_disconnected_components;
    Alcotest.test_case "solver entailment" `Quick test_solver_entailment;
    Alcotest.test_case "solver one-round budget with a disequality" `Quick
      test_solver_budget_one_disequality;
    QCheck_alcotest.to_alcotest prop_add_comm;
    QCheck_alcotest.to_alcotest prop_sub_self_zero;
    QCheck_alcotest.to_alcotest prop_neg_involution;
    QCheck_alcotest.to_alcotest prop_model_valid;
    QCheck_alcotest.to_alcotest prop_solver_sound_on_box;
    QCheck_alcotest.to_alcotest prop_unsat_has_no_box_model;
    QCheck_alcotest.to_alcotest prop_disequalities_split_by_theory ]
