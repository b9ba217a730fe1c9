(* Symbolic store for the per-method symbolic execution that builds CFETs
   (§3.3).  Integer locals map to linear expressions over the method's
   symbolic variables: its formal parameters, plus fresh "unknown" symbols
   for values the intraprocedural execution cannot see (call return values,
   heap loads).  Object and boolean locals are not tracked. *)

module Symbol = Smt.Symbol
module Linexpr = Smt.Linexpr
module Formula = Smt.Formula
module Solver = Smt.Solver
module Encoding = Pathenc.Encoding


type t = (Jir.Ast.var * Linexpr.t) list  (* innermost binding first *)

(* The symbol standing for parameter [p] of method [meth_id]; shared between
   the CFET of the method and the call/return equations that reference it. *)
let param_symbol ~meth_id p = Symbol.intern (meth_id ^ "::" ^ p)

(* The symbol standing for the (statically unknown) value assigned to [v] by
   statement [sid]: globally unique because statement ids are. *)
let unknown_symbol ~meth_id v ~sid =
  Symbol.intern (Printf.sprintf "%s::%s@%d" meth_id v sid)

let init_for_method (m : Jir.Ast.meth) : t =
  List.filter_map
    (fun (t, p) ->
      match t with
      | Jir.Ast.Tint ->
          Some (p, Linexpr.var (param_symbol ~meth_id:(Jir.Ast.meth_id m) p))
      | Jir.Ast.Tbool | Jir.Ast.Tobj _ | Jir.Ast.Tvoid -> None)
    m.Jir.Ast.params

let bind (env : t) v value : t = (v, value) :: env

let lookup (env : t) v = List.assoc_opt v env

(* Value of a variable: its binding, or a symbol named after the variable
   itself (an argument-less unknown, e.g. a use before any tracked def). *)
let value_of (env : t) ~meth_id v =
  match lookup env v with
  | Some e -> e
  | None -> Linexpr.var (Symbol.intern (meth_id ^ "::" ^ v))

let rec eval (env : t) ~meth_id (e : Jir.Ast.expr) : Linexpr.t =
  match e with
  | Jir.Ast.Const n -> Linexpr.const n
  | Jir.Ast.Var v -> value_of env ~meth_id v
  | Jir.Ast.Binop (op, a, b) -> (
      let va = eval env ~meth_id a and vb = eval env ~meth_id b in
      match op with
      | Jir.Ast.Add -> Linexpr.add va vb
      | Jir.Ast.Sub -> Linexpr.sub va vb
      | Jir.Ast.Mul ->
          (* only linear products stay precise; a genuinely nonlinear product
             becomes a fresh unknown *)
          if Linexpr.is_const va then Linexpr.scale va.Linexpr.const vb
          else if Linexpr.is_const vb then Linexpr.scale vb.Linexpr.const va
          else Linexpr.var (Symbol.fresh "nonlinear"))

let rec eval_cond (env : t) ~meth_id (c : Jir.Ast.cond) : Formula.t =
  match c with
  | Jir.Ast.Bconst true -> Formula.True
  | Jir.Ast.Bconst false -> Formula.False
  | Jir.Ast.Cmp (op, a, b) -> (
      let va = eval env ~meth_id a and vb = eval env ~meth_id b in
      match op with
      | Jir.Ast.Le -> Formula.le va vb
      | Jir.Ast.Lt -> Formula.lt va vb
      | Jir.Ast.Ge -> Formula.ge va vb
      | Jir.Ast.Gt -> Formula.gt va vb
      | Jir.Ast.Eq -> Formula.eq va vb
      | Jir.Ast.Ne -> Formula.ne va vb)
  | Jir.Ast.And (a, b) ->
      Formula.and_ (eval_cond env ~meth_id a) (eval_cond env ~meth_id b)
  | Jir.Ast.Or (a, b) ->
      Formula.or_ (eval_cond env ~meth_id a) (eval_cond env ~meth_id b)
  | Jir.Ast.Not a -> Formula.not_ (eval_cond env ~meth_id a)
