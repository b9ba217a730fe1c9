(* DPLL(T) satisfiability for quantifier-free linear integer arithmetic:
   the boolean skeleton of the (negation-free, after NNF) formula is encoded
   with polarity-aware Tseitin clauses and enumerated by the SAT core; each
   propositional model is checked by the Fourier-Motzkin theory solver, and
   theory conflicts are returned to the SAT core as blocking clauses.

   The common case in Grapple -- a path constraint that is one big
   conjunction -- bypasses the SAT core entirely. *)

type result = Sat | Unsat | Unknown

(* Witness produced by [check_with_model]: an integer assignment for the
   formula's variables, verified by evaluation before being returned. *)
type model = (Symbol.t * int) list

type model_result = Model_sat of model option | Model_unsat | Model_unknown

(* Statistics across the whole process, reported by the benchmarks.  The
   counters are atomic because engines solve from several domains (the
   parallel instance scheduler's workers); totals are sums of per-call
   increments, so they are independent of interleaving — a run
   performing the same solver calls reports the same counts at any worker
   count. *)
type stats = {
  calls : int Atomic.t;
  sat_answers : int Atomic.t;
  unsat_answers : int Atomic.t;
  unknown_answers : int Atomic.t;
  theory_checks : int Atomic.t;
  sat_rounds : int Atomic.t;
  budget_hits : int Atomic.t;  (* DPLL(T) round budget exhausted -> Unknown *)
}

let stats = {
  calls = Atomic.make 0;
  sat_answers = Atomic.make 0;
  unsat_answers = Atomic.make 0;
  unknown_answers = Atomic.make 0;
  theory_checks = Atomic.make 0;
  sat_rounds = Atomic.make 0;
  budget_hits = Atomic.make 0;
}

let max_dpllt_rounds = 10_000

(* The DPLL(T) decision budget: how many SAT-model/theory-conflict rounds a
   single [check] may spend before giving up with [Unknown].  Exposed as
   [--smt-budget] on the CLI.  Exhausting it is *sound* for the analysis:
   every caller in the engine and the pre-filters treats [Unknown] exactly
   like [Sat] (the path is assumed feasible), so a tighter budget can only
   over-approximate — it may admit an infeasible path (a potential false
   positive), never suppress a feasible one (no missed bugs).  The same
   over-approximation argument appears at [check_with_model]'s
   reconstruction fallback below. *)
let round_budget = ref max_dpllt_rounds

let set_budget n = round_budget := if n <= 0 then max_dpllt_rounds else n

(* Collect the conjuncts of a purely conjunctive NNF formula, or return
   [None] if a disjunction occurs. *)
let rec conjuncts acc (f : Formula.t) =
  match f with
  | Formula.True -> Some acc
  | Formula.False -> None
  | Formula.Atom a -> Some (a :: acc)
  | Formula.And (x, y) -> (
      match conjuncts acc x with None -> None | Some acc -> conjuncts acc y)
  | Formula.Or _ | Formula.Not _ -> None

let check_conjunction (atoms : Formula.atom list) : result =
  Atomic.incr stats.theory_checks;
  match Theory.check atoms ~neg_eqs:[] with
  | Theory.Sat -> Sat
  | Theory.Unsat -> Unsat

(* ------------------------------------------------------------------ *)
(* Tseitin encoding (positive polarity only: the NNF is negation-free). *)
(* ------------------------------------------------------------------ *)

type skeleton = {
  mutable nvars : int;
  atom_of_var : (int, Formula.atom) Hashtbl.t;
  var_of_atom : (Formula.atom, int) Hashtbl.t;  (* structural equality keys *)
  mutable clauses : int list list;
}

let fresh_var sk =
  sk.nvars <- sk.nvars + 1;
  sk.nvars

let var_for_atom sk a =
  match Hashtbl.find_opt sk.var_of_atom a with
  | Some v -> v
  | None ->
      let v = fresh_var sk in
      Hashtbl.replace sk.var_of_atom a v;
      Hashtbl.replace sk.atom_of_var v a;
      v

(* Returns the literal representing [f]; emits clauses of the form
   lit -> encoding(f). *)
let rec encode sk (f : Formula.t) : int =
  match f with
  | Formula.Atom a -> var_for_atom sk a
  | Formula.True ->
      let v = fresh_var sk in
      sk.clauses <- [ v ] :: sk.clauses;
      v
  | Formula.False ->
      let v = fresh_var sk in
      sk.clauses <- [ -v ] :: sk.clauses;
      v
  | Formula.And (x, y) ->
      let a = encode sk x and b = encode sk y in
      let v = fresh_var sk in
      sk.clauses <- [ -v; a ] :: [ -v; b ] :: sk.clauses;
      v
  | Formula.Or (x, y) ->
      let a = encode sk x and b = encode sk y in
      let v = fresh_var sk in
      sk.clauses <- [ -v; a; b ] :: sk.clauses;
      v
  | Formula.Not _ ->
      (* NNF leaves no negations (negated equalities are expanded into
         disjunctions of strict inequalities). *)
      invalid_arg "Solver.encode: negation survived NNF"

(* Atoms implied by a propositional model: positive literals keep their atom,
   negative Le literals flip into the complementary inequality, negative Eq
   literals become disequalities for the theory split. *)
let model_to_theory sk (model : bool array) :
    Formula.atom list * Linexpr.t list =
  Hashtbl.fold
    (fun v a (pos, neg_eqs) ->
      if model.(v) then (a :: pos, neg_eqs)
      else
        match a with
        | Formula.Le t ->
            (* not (t <= 0)  <=>  -t + 1 <= 0 *)
            (Formula.Le (Linexpr.add (Linexpr.neg t) (Linexpr.const 1)) :: pos,
             neg_eqs)
        | Formula.Eq t -> (pos, t :: neg_eqs))
    sk.atom_of_var ([], [])

let solve_with_skeleton (f : Formula.t) : result =
  let sk =
    { nvars = 0;
      atom_of_var = Hashtbl.create 64;
      var_of_atom = Hashtbl.create 64;
      clauses = [] }
  in
  let root = encode sk f in
  sk.clauses <- [ root ] :: sk.clauses;
  let sat = Sat.create ~nvars:sk.nvars in
  List.iter (Sat.add_clause sat) sk.clauses;
  let rec loop rounds =
    if rounds > !round_budget then begin
      Atomic.incr stats.budget_hits;
      Unknown
    end
    else begin
      Atomic.incr stats.sat_rounds;
      match Sat.solve_current sat with
      | Sat.Unsat -> Unsat
      | Sat.Sat model ->
          let pos, neg_eqs = model_to_theory sk model in
          Atomic.incr stats.theory_checks;
          (match Theory.check pos ~neg_eqs with
          | Theory.Sat -> Sat
          | Theory.Unsat ->
              (* block this assignment of the atom variables *)
              let blocking =
                Hashtbl.fold
                  (fun v _ acc -> (if model.(v) then -v else v) :: acc)
                  sk.atom_of_var []
              in
              Sat.add_clause sat blocking;
              loop (rounds + 1))
    end
  in
  loop 0

(* Decide satisfiability of an arbitrary formula. *)
let check (f : Formula.t) : result =
  Atomic.incr stats.calls;
  let record r =
    (match r with
    | Sat -> Atomic.incr stats.sat_answers
    | Unsat -> Atomic.incr stats.unsat_answers
    | Unknown -> Atomic.incr stats.unknown_answers);
    r
  in
  match Formula.nnf f with
  | Formula.True -> record Sat
  | Formula.False -> record Unsat
  | nnf -> (
      match conjuncts [] nnf with
      | Some atoms -> record (check_conjunction atoms)
      | None -> record (solve_with_skeleton nnf))

let is_sat f = match check f with Sat | Unknown -> true | Unsat -> false

(* Like [check], additionally producing a verified integer witness when the
   formula is satisfiable.  The witness is checked by evaluation; if the
   reconstruction fails (integer gaps, solver budget), the formula is still
   reported satisfiable but without a model.  Soundness under budgets: both
   this fallback and the [round_budget] cut above degrade toward "assume
   feasible" ([Unknown] is read as [Sat] everywhere downstream), so running
   out of budget can cost precision (an extra warning, a missing witness)
   but never a missed bug. *)
let check_with_model (f : Formula.t) : model_result =
  let verify model =
    let value v =
      match List.assoc_opt v model with Some n -> n | None -> 0
    in
    if Formula.eval value f then Some model else None
  in
  let of_conjunction atoms =
    match Theory.check_model atoms ~neg_eqs:[] with
    | Theory.Munsat -> Model_unsat
    | Theory.Msat None -> Model_sat None
    | Theory.Msat (Some m) -> Model_sat (verify m)
  in
  match Formula.nnf f with
  | Formula.True -> Model_sat (Some [])
  | Formula.False -> Model_unsat
  | nnf -> (
      match conjuncts [] nnf with
      | Some atoms -> of_conjunction atoms
      | None -> (
          (* fall back to plain DPLL(T); witnesses only for the common
             conjunctive case *)
          match check f with
          | Sat -> Model_sat None
          | Unknown -> Model_unknown
          | Unsat -> Model_unsat))

(* Entailment and equivalence helpers built on [check]; used by tests. *)
let entails a b = check (Formula.and_ a (Formula.not_ b)) = Unsat
let equivalent a b = entails a b && entails b a
