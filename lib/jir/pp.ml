(* Pretty-printer for JIR.  The output is valid input for [Parser.parse],
   which the round-trip property tests rely on. *)

open Ast

let typ ppf = function
  | Tint -> Fmt.string ppf "int"
  | Tbool -> Fmt.string ppf "bool"
  | Tobj c -> Fmt.string ppf c
  | Tvoid -> Fmt.string ppf "void"

let binop ppf = function
  | Add -> Fmt.string ppf "+"
  | Sub -> Fmt.string ppf "-"
  | Mul -> Fmt.string ppf "*"

let cmpop ppf = function
  | Le -> Fmt.string ppf "<="
  | Lt -> Fmt.string ppf "<"
  | Ge -> Fmt.string ppf ">="
  | Gt -> Fmt.string ppf ">"
  | Eq -> Fmt.string ppf "=="
  | Ne -> Fmt.string ppf "!="

let rec expr ppf = function
  (* no literal denotes [min_int]: [-n] reads back only for [n <= max_int] *)
  | Const n when n = min_int -> Fmt.pf ppf "(%d - 1)" (min_int + 1)
  | Const n -> Fmt.int ppf n
  | Var v -> Fmt.string ppf v
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %a %a)" expr a binop op expr b

let rec cond ppf = function
  | Bconst true -> Fmt.string ppf "true"
  | Bconst false -> Fmt.string ppf "false"
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %a %a" expr a cmpop op expr b
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" cond a cond b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" cond a cond b
  | Not c -> Fmt.pf ppf "!(%a)" cond c

let call ppf { recv; target_class; mname; args } =
  let pp_args = Fmt.list ~sep:(Fmt.any ", ") expr in
  match recv with
  | Some v -> Fmt.pf ppf "%s.%s(%a)" v mname pp_args args
  | None -> Fmt.pf ppf "%s.%s(%a)" target_class mname pp_args args

let rhs ppf = function
  | Rnew (c, args) ->
      Fmt.pf ppf "new %s(%a)" c (Fmt.list ~sep:(Fmt.any ", ") expr) args
  | Rload (v, f) -> Fmt.pf ppf "%s.%s" v f
  | Rcall c -> call ppf c
  | Rexpr e -> expr ppf e
  | Rnull -> Fmt.string ppf "null"

let rec stmt ind ppf (s : stmt) =
  let pad ppf () = Fmt.pf ppf "%s" (String.make ind ' ') in
  match s.kind with
  | Decl (t, v, None) -> Fmt.pf ppf "%a%a %s;" pad () typ t v
  | Decl (t, v, Some r) -> Fmt.pf ppf "%a%a %s = %a;" pad () typ t v rhs r
  | Assign (v, r) -> Fmt.pf ppf "%a%s = %a;" pad () v rhs r
  | Store (x, f, y) -> Fmt.pf ppf "%a%s.%s = %s;" pad () x f y
  | If (c, t, []) ->
      Fmt.pf ppf "%aif (%a) {@\n%a@\n%a}" pad () cond c (block (ind + 2)) t
        pad ()
  | If (c, t, f) ->
      Fmt.pf ppf "%aif (%a) {@\n%a@\n%a} else {@\n%a@\n%a}" pad () cond c
        (block (ind + 2)) t pad () (block (ind + 2)) f pad ()
  | While (c, b) ->
      Fmt.pf ppf "%awhile (%a) {@\n%a@\n%a}" pad () cond c (block (ind + 2)) b
        pad ()
  | Try (b, catches) ->
      Fmt.pf ppf "%atry {@\n%a@\n%a}" pad () (block (ind + 2)) b pad ();
      List.iter
        (fun c ->
          Fmt.pf ppf " catch (%s %s) {@\n%a@\n%a}" c.exn_class c.exn_var
            (block (ind + 2)) c.handler pad ())
        catches
  | Throw e -> Fmt.pf ppf "%athrow new %s();" pad () e
  | Return None -> Fmt.pf ppf "%areturn;" pad ()
  | Return (Some e) -> Fmt.pf ppf "%areturn %a;" pad () expr e
  | Expr c -> Fmt.pf ppf "%a%a;" pad () call c

and block ind ppf (b : block) =
  Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any "@\n") (stmt ind)) b

let meth ppf (m : meth) =
  let param ppf (t, v) = Fmt.pf ppf "%a %s" typ t v in
  let pp_throws ppf = function
    | [] -> ()
    | l -> Fmt.pf ppf " throws %a" (Fmt.list ~sep:(Fmt.any ", ") Fmt.string) l
  in
  Fmt.pf ppf "  %a %s(%a)%a {@\n%a@\n  }" typ m.ret m.mname
    (Fmt.list ~sep:(Fmt.any ", ") param)
    m.params pp_throws m.throws (block 4) m.body

let cls ppf (c : cls) =
  let fld ppf (t, f) = Fmt.pf ppf "  %a %s;" typ t f in
  Fmt.pf ppf "class %s {@\n%a%s%a@\n}" c.cname
    (Fmt.list ~sep:(Fmt.any "@\n") fld)
    c.fields
    (if c.fields = [] then "" else "\n")
    (Fmt.list ~sep:(Fmt.any "@\n@\n") meth)
    c.methods

let program ppf (p : program) =
  Fmt.pf ppf "%a@\n" (Fmt.list ~sep:(Fmt.any "@\n@\n") cls) p.classes;
  List.iter (fun (c, m) -> Fmt.pf ppf "@\nentry %s.%s;" c m) p.entries;
  Fmt.pf ppf "@\n"

let program_to_string p = Fmt.str "%a" program p
