(* Abstract syntax of JIR, the Java-like intermediate representation that
   plays the role Soot-generated Jimple plays in the paper.  The subset keeps
   exactly the constructs the Grapple analyses consume: allocations,
   assignments, field loads/stores, calls, integer branch conditions,
   bounded loops, and exception flow. *)

type typ =
  | Tint
  | Tbool
  | Tobj of string
  | Tvoid

type var = string

type field = string

(* Source position carried into bug reports. *)
type pos = { file : string; line : int }

let no_pos = { file = "<builtin>"; line = 0 }

type binop = Add | Sub | Mul

type cmpop = Le | Lt | Ge | Gt | Eq | Ne

type expr =
  | Const of int
  | Var of var
  | Binop of binop * expr * expr

type cond =
  | Bconst of bool
  | Cmp of cmpop * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

(* A call site.  [recv = Some v] is an instance call [v.m(...)]; otherwise a
   static call resolved by [target_class]. *)
type call = {
  recv : var option;
  target_class : string;
  mname : string;
  args : expr list;
}

type rhs =
  | Rnew of string * expr list      (* new C(args) *)
  | Rload of var * field            (* y.f *)
  | Rcall of call                   (* v = m(...) *)
  | Rexpr of expr
  | Rnull

type stmt = { sid : int; at : pos; kind : stmt_kind }

and stmt_kind =
  | Decl of typ * var * rhs option
  | Assign of var * rhs
  | Store of var * field * var      (* x.f = y *)
  | If of cond * block * block
  | While of cond * block
  | Try of block * catch list
  | Throw of string                 (* throw new E() *)
  | Return of expr option
  | Expr of call                    (* call for effect: the FSM events *)

and catch = { exn_class : string; exn_var : var; handler : block }

and block = stmt list

type meth = {
  mclass : string;
  mname : string;
  params : (typ * var) list;
  ret : typ;
  throws : string list;
  body : block;
}

type cls = {
  cname : string;
  fields : (typ * field) list;
  methods : meth list;
}

type program = {
  classes : cls list;
  entries : (string * string) list;  (* (class, method) analysis roots *)
}

let qualified_name ~cls ~meth = cls ^ "." ^ meth

let meth_id (m : meth) = qualified_name ~cls:m.mclass ~meth:m.mname

(* Fresh statement ids: the frontend numbers statements as it builds them so
   that transformed copies (loop unrolling, inlining) stay distinguishable. *)
let sid_counter = ref 0

let fresh_sid () =
  incr sid_counter;
  !sid_counter

let mk ?(at = no_pos) kind = { sid = fresh_sid (); at; kind }

let find_class program name =
  List.find_opt (fun c -> c.cname = name) program.classes

let find_method program ~cls ~meth =
  match find_class program cls with
  | None -> None
  | Some c -> List.find_opt (fun m -> m.mname = meth) c.methods

let all_methods program =
  List.concat_map (fun c -> c.methods) program.classes

(* Hashtable-backed lookup index.  [find_class]/[find_method] scan lists and
   sit on hot paths (resolver target checks, call binding, throws lookup);
   whole-program passes that touch every call site build one of these once.
   First binding wins, matching [List.find_opt] on duplicate names. *)
type index = {
  idx_classes : (string, cls) Hashtbl.t;
  idx_methods : (string * string, meth) Hashtbl.t;
}

let index (p : program) : index =
  let idx_classes = Hashtbl.create 64 in
  let idx_methods = Hashtbl.create 256 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem idx_classes c.cname) then begin
        Hashtbl.add idx_classes c.cname c;
        List.iter
          (fun m ->
            if not (Hashtbl.mem idx_methods (c.cname, m.mname)) then
              Hashtbl.add idx_methods (c.cname, m.mname) m)
          c.methods
      end)
    p.classes;
  { idx_classes; idx_methods }

let find_method_idx (idx : index) ~cls ~meth =
  Hashtbl.find_opt idx.idx_methods (cls, meth)

(* Every statement of [b], nested ones included, in source order: a
   statement comes before the blocks it contains, a then-branch before its
   else-branch, and a try body before its handlers. *)
let block_stmts (b : block) : stmt list =
  let rec block acc b = List.fold_left stmt acc b
  and stmt acc s =
    let acc = s :: acc in
    match s.kind with
    | Decl _ | Assign _ | Store _ | Throw _ | Return _ | Expr _ -> acc
    | If (_, t, f) -> block (block acc t) f
    | While (_, b) -> block acc b
    | Try (b, catches) ->
        List.fold_left (fun acc c -> block acc c.handler) (block acc b) catches
  in
  List.rev (block [] b)

(* Structural size of a program in statements, used by workload reports. *)
let program_size (p : program) =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc m -> acc + 1 + List.length (block_stmts m.body))
        acc c.methods)
    0 p.classes

(* Variables mentioned by an expression, in first-occurrence order. *)
let rec expr_vars = function
  | Const _ -> []
  | Var v -> [ v ]
  | Binop (_, a, b) -> expr_vars a @ expr_vars b

let rec cond_vars = function
  | Bconst _ -> []
  | Cmp (_, a, b) -> expr_vars a @ expr_vars b
  | And (a, b) | Or (a, b) -> cond_vars a @ cond_vars b
  | Not c -> cond_vars c
