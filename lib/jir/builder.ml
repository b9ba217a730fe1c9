(* Combinators for constructing JIR programs programmatically.  The workload
   generator and the domain examples build ASTs through this module rather
   than through text, so generated programs are well-formed by construction
   (they are still passed through [Resolve.run] as a sanity check). *)

open Ast

let pos ?(file = "<gen>") line = { file; line }

let v x = Var x
let i n = Const n
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)

let ( <=: ) a b = Cmp (Le, a, b)
let ( <: ) a b = Cmp (Lt, a, b)
let ( >=: ) a b = Cmp (Ge, a, b)
let ( >: ) a b = Cmp (Gt, a, b)
let ( ==: ) a b = Cmp (Eq, a, b)
let ( <>: ) a b = Cmp (Ne, a, b)
let ( &&: ) a b = And (a, b)
let ( ||: ) a b = Or (a, b)
let not_ c = Not c

let decl ?at t x r = mk ?at (Decl (t, x, Some r))
let decl0 ?at t x = mk ?at (Decl (t, x, None))
let assign ?at x r = mk ?at (Assign (x, r))
let store ?at x f y = mk ?at (Store (x, f, y))
let if_ ?at c t f = mk ?at (If (c, t, f))
let while_ ?at c b = mk ?at (While (c, b))
let try_ ?at b catches = mk ?at (Try (b, catches))
let catch exn_class exn_var handler = { exn_class; exn_var; handler }
let throw ?at e = mk ?at (Throw e)
let return ?at e = mk ?at (Return e)
let ret0 ?at () = mk ?at (Return None)

let new_ cls args = Rnew (cls, args)
let load y f = Rload (y, f)
let null = Rnull
let e x = Rexpr x

let icall recv mname args = { recv = Some recv; target_class = ""; mname; args }
let scall cls mname args = { recv = None; target_class = cls; mname; args }

(* x.m(args); as a statement *)
let call_stmt ?at recv mname args = mk ?at (Expr (icall recv mname args))

(* x = Cls.m(args) *)
let scall_rhs cls mname args = Rcall (scall cls mname args)

let sstmt ?at cls mname args = mk ?at (Expr (scall cls mname args))

let meth ?(throws = []) ~cls ~name ?(params = []) ?(ret = Tvoid) body =
  { mclass = cls; mname = name; params; ret; throws; body }

let cls ?(fields = []) name methods = { cname = name; fields; methods }

let program ?(entries = []) classes = { classes; entries }

(* Run the resolver and fail loudly on malformed generated code: a generator
   bug, not an input error. *)
let resolved ?(entries = []) classes =
  let p, errs = Resolve.run (program ~entries classes) in
  (match errs with
  | [] -> ()
  | es ->
      let msgs = String.concat "; " (List.map Resolve.error_to_string es) in
      invalid_arg ("Builder.resolved: generated program is ill-formed: " ^ msgs));
  p
