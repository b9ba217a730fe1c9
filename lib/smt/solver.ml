(* DPLL(T) satisfiability for quantifier-free linear integer arithmetic:
   the boolean skeleton of the (negation-free, after NNF) formula is encoded
   with polarity-aware Tseitin clauses and enumerated by the SAT core; each
   propositional model is checked by the Fourier-Motzkin theory solver, and
   theory conflicts are returned to the SAT core as blocking clauses.

   The common cases in Grapple bypass the SAT core entirely: a path
   constraint that is one big conjunction goes straight to the theory
   solver, and so does a conjunction of atoms and negated atoms, whose
   negated equalities the theory splits within their variable components
   (see [check]). *)

type result = Sat | Unsat | Unknown

(* Witness produced by [check_with_model]: an integer assignment for the
   formula's variables, verified by evaluation before being returned. *)
type model = (Symbol.t * int) list

type model_result = Model_sat of model option | Model_unsat | Model_unknown

(* Statistics across the whole process, reported by the benchmarks.
   Totals are sums of per-call increments, independent of call order.
   Calls made in a shard worker process count only in that process; the
   pipeline carries its budget hits back in the instance's account. *)
type stats = {
  mutable calls : int;
  mutable sat_answers : int;
  mutable unsat_answers : int;
  mutable unknown_answers : int;
  mutable theory_checks : int;
  mutable sat_rounds : int;
  mutable budget_hits : int;  (* DPLL(T) round budget exhausted -> Unknown *)
}

let stats =
  { calls = 0; sat_answers = 0; unsat_answers = 0; unknown_answers = 0;
    theory_checks = 0; sat_rounds = 0; budget_hits = 0 }

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

(* 2^k <= the round budget, without overflow. *)
let splits_fit k = k < Sys.int_size - 1 && 1 lsl k <= !round_budget

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

(* The atoms and the negated equalities' terms of a conjunction of atoms
   and negated atoms, each list in the order [conjuncts] collects it; [None]
   for any other shape.  A negated inequality is flipped as [Formula.nnf]
   flips it. *)
let literals (f : Formula.t) =
  let rec go ((pos, neg_eqs) as acc) (f : Formula.t) =
    match f with
    | Formula.True -> Some acc
    | Formula.Atom a -> Some (a :: pos, neg_eqs)
    | Formula.Not (Formula.Atom (Formula.Eq t)) -> Some (pos, t :: neg_eqs)
    | Formula.Not (Formula.Atom (Formula.Le _) as g) -> (
        match Formula.nnf_neg g with
        | Formula.Atom a -> Some (a :: pos, neg_eqs)
        | Formula.True -> Some acc
        | _ -> None)
    | Formula.And (x, y) -> (
        match go acc x with None -> None | Some acc -> go acc y)
    | Formula.False | Formula.Or _ | Formula.Not _ -> None
  in
  go ([], []) f

let check_conjunction ?(neg_eqs = []) (atoms : Formula.atom list) : result =
  stats.theory_checks <- stats.theory_checks + 1;
  match Theory.check atoms ~neg_eqs with
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
      stats.budget_hits <- stats.budget_hits + 1;
      Unknown
    end
    else begin
      stats.sat_rounds <- stats.sat_rounds + 1;
      match Sat.solve_current sat with
      | Sat.Unsat -> Unsat
      | Sat.Sat model ->
          let pos, neg_eqs = model_to_theory sk model in
          stats.theory_checks <- stats.theory_checks + 1;
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

(* Decide satisfiability of an arbitrary formula.  A conjunction of atoms
   and negated atoms with k negated equalities skips the Tseitin skeleton:
   the theory splits each disequality within its variable component, which
   explores at most the 2^k sign choices DPLL(T) would enumerate round by
   round.  It does so only when 2^k fits the round budget, so the budget
   still bounds every call: past it, and at budget 1 for any k > 0, the
   call runs DPLL(T) as before. *)
let check (f : Formula.t) : result =
  stats.calls <- stats.calls + 1;
  let record r =
    (match r with
    | Sat -> stats.sat_answers <- stats.sat_answers + 1
    | Unsat -> stats.unsat_answers <- stats.unsat_answers + 1
    | Unknown -> stats.unknown_answers <- stats.unknown_answers + 1);
    r
  in
  match Formula.nnf f with
  | Formula.True -> record Sat
  | Formula.False -> record Unsat
  | nnf -> (
      match conjuncts [] nnf with
      | Some atoms -> record (check_conjunction atoms)
      | None -> (
          match literals f with
          | Some (atoms, neg_eqs) when splits_fit (List.length neg_eqs) ->
              record (check_conjunction ~neg_eqs atoms)
          | _ -> record (solve_with_skeleton nnf)))

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

(* Entailment built on [check]; used by tests. *)
let entails a b = check (Formula.and_ a (Formula.not_ b)) = Unsat
