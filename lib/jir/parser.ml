(* Recursive-descent parser for the JIR surface syntax.  Instance calls are
   parsed with [target_class = ""] and resolved by [Resolve.run], which also
   turns [ClassName.m(...)] receivers into static calls.

   The parser pulls its tokens from [Lexer.next] as it goes.  It holds the
   current token and, only where the grammar needs it (an identifier that
   starts a statement or a right-hand side), the one after it. *)

open Ast

exception Parse_error of string * int

type state = {
  lx : Lexer.t;
  file : string;
  mutable tok : Lexer.token;  (* the current token *)
  mutable line : int;  (* its line *)
  mutable ahead : (Lexer.token * int) option;  (* the next one, if lexed *)
}

let peek st = st.tok

let advance st =
  match st.ahead with
  | Some (tok, line) ->
      st.tok <- tok;
      st.line <- line;
      st.ahead <- None
  | None ->
      st.tok <- Lexer.next st.lx;
      st.line <- st.lx.line

(* The token after the current one. *)
let peek2 st =
  match st.ahead with
  | Some (tok, _) -> tok
  | None ->
      let tok = Lexer.next st.lx in
      st.ahead <- Some (tok, st.lx.line);
      tok

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s (got %s)" msg
                        (Lexer.token_to_string st.tok),
                      st.line))

let expect st tok msg =
  if peek st = tok then advance st else fail st msg

let accept st tok =
  if peek st = tok then (advance st; true) else false

let ident st =
  match peek st with
  | Lexer.IDENT s -> advance st; s
  | _ -> fail st "expected identifier"

let pos st = { file = st.file; line = st.line }

(* ------------------------------------------------------------------ *)
(* Expressions: additive over multiplicative over atoms.              *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_additive st

and parse_additive st =
  let lhs = parse_multiplicative st in
  let rec loop lhs =
    match peek st with
    | Lexer.PLUS -> advance st; loop (Binop (Add, lhs, parse_multiplicative st))
    | Lexer.MINUS -> advance st; loop (Binop (Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  loop lhs

and parse_multiplicative st =
  let lhs = parse_atom st in
  let rec loop lhs =
    match peek st with
    | Lexer.STAR -> advance st; loop (Binop (Mul, lhs, parse_atom st))
    | _ -> lhs
  in
  loop lhs

and parse_atom st =
  match peek st with
  | Lexer.INT n -> advance st; Const n
  | Lexer.MINUS ->
      advance st;
      (match peek st with
      | Lexer.INT n -> advance st; Const (-n)
      | _ -> Binop (Sub, Const 0, parse_atom st))
  | Lexer.IDENT v -> advance st; Var v
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.RPAREN "expected ')'";
      e
  | _ -> fail st "expected expression"

(* ------------------------------------------------------------------ *)
(* Conditions.  '(' is ambiguous between a parenthesized condition and
   a parenthesized arithmetic expression; resolved by backtracking.   *)
(* ------------------------------------------------------------------ *)

let cmp_of_token = function
  | Lexer.LE -> Some Le
  | Lexer.LT -> Some Lt
  | Lexer.GE -> Some Ge
  | Lexer.GT -> Some Gt
  | Lexer.EQ -> Some Eq
  | Lexer.NE -> Some Ne
  | _ -> None

let rec parse_cond st = parse_or_cond st

and parse_or_cond st =
  let lhs = parse_and_cond st in
  let rec loop lhs =
    if accept st Lexer.OROR then loop (Or (lhs, parse_and_cond st)) else lhs
  in
  loop lhs

and parse_and_cond st =
  let lhs = parse_cond_atom st in
  let rec loop lhs =
    if accept st Lexer.ANDAND then loop (And (lhs, parse_cond_atom st))
    else lhs
  in
  loop lhs

and parse_cond_atom st =
  match peek st with
  | Lexer.BANG -> advance st; Not (parse_cond_atom st)
  | Lexer.KW "true" -> advance st; Bconst true
  | Lexer.KW "false" -> advance st; Bconst false
  | Lexer.LPAREN ->
      (* Try a parenthesized condition first; fall back to a comparison
         whose left-hand side is a parenthesized arithmetic expression.
         Lookahead is only taken at an identifier that starts a statement
         or a right-hand side, never inside a condition, so the lexer's
         offset and line and the '(' are the whole state to restore. *)
      let offset = st.lx.pos and line = st.line in
      (try
         advance st;
         let c = parse_cond st in
         expect st Lexer.RPAREN "expected ')'";
         match cmp_of_token (peek st) with
         | Some _ -> fail st "condition followed by comparison"
         | None -> c
       with Parse_error _ ->
         st.lx.pos <- offset;
         st.lx.line <- line;
         st.tok <- Lexer.LPAREN;
         st.line <- line;
         parse_comparison st)
  | _ -> parse_comparison st

and parse_comparison st =
  let lhs = parse_expr st in
  match cmp_of_token (peek st) with
  | Some op ->
      advance st;
      let rhs = parse_expr st in
      Cmp (op, lhs, rhs)
  | None -> fail st "expected comparison operator"

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)
(* ------------------------------------------------------------------ *)

let parse_args st =
  expect st Lexer.LPAREN "expected '('";
  if accept st Lexer.RPAREN then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if accept st Lexer.COMMA then loop (e :: acc)
      else begin
        expect st Lexer.RPAREN "expected ')'";
        List.rev (e :: acc)
      end
    in
    loop []
  end

(* After IDENT DOT IDENT with '(' pending: an unresolved call. *)
let parse_call st ~recv ~mname =
  let args = parse_args st in
  { recv = Some recv; target_class = ""; mname; args }

let parse_rhs st =
  match peek st with
  | Lexer.KW "new" ->
      advance st;
      let c = ident st in
      let args = parse_args st in
      Rnew (c, args)
  | Lexer.KW "null" -> advance st; Rnull
  | Lexer.IDENT name when peek2 st = Lexer.DOT ->
      advance st;
      advance st;
      let member = ident st in
      if peek st = Lexer.LPAREN then Rcall (parse_call st ~recv:name ~mname:member)
      else Rload (name, member)
  | _ -> Rexpr (parse_expr st)

let type_of_name = function
  | "int" -> Tint
  | "bool" -> Tbool
  | "void" -> Tvoid
  | c -> Tobj c

let rec parse_stmt st : stmt =
  let at = pos st in
  match peek st with
  | Lexer.KW "if" ->
      advance st;
      expect st Lexer.LPAREN "expected '(' after if";
      let c = parse_cond st in
      expect st Lexer.RPAREN "expected ')' after condition";
      let t = parse_block st in
      let f = if accept st (Lexer.KW "else") then parse_block st else [] in
      mk ~at (If (c, t, f))
  | Lexer.KW "while" ->
      advance st;
      expect st Lexer.LPAREN "expected '(' after while";
      let c = parse_cond st in
      expect st Lexer.RPAREN "expected ')' after condition";
      let b = parse_block st in
      mk ~at (While (c, b))
  | Lexer.KW "try" ->
      advance st;
      let b = parse_block st in
      let rec catches acc =
        if accept st (Lexer.KW "catch") then begin
          expect st Lexer.LPAREN "expected '(' after catch";
          let exn_class = ident st in
          let exn_var = ident st in
          expect st Lexer.RPAREN "expected ')' after catch binder";
          let handler = parse_block st in
          catches ({ exn_class; exn_var; handler } :: acc)
        end
        else List.rev acc
      in
      let cs = catches [] in
      if cs = [] then fail st "try without catch";
      mk ~at (Try (b, cs))
  | Lexer.KW "throw" ->
      advance st;
      expect st (Lexer.KW "new") "expected 'new' after throw";
      let e = ident st in
      let _args = parse_args st in
      expect st Lexer.SEMI "expected ';'";
      mk ~at (Throw e)
  | Lexer.KW "return" ->
      advance st;
      if accept st Lexer.SEMI then mk ~at (Return None)
      else begin
        let e = parse_expr st in
        expect st Lexer.SEMI "expected ';'";
        mk ~at (Return (Some e))
      end
  | Lexer.KW ("int" | "bool" | "void") ->
      let tname = (match peek st with Lexer.KW s -> s | _ -> assert false) in
      advance st;
      parse_decl st ~at ~typ:(type_of_name tname)
  | Lexer.IDENT name -> begin
      match peek2 st with
      | Lexer.IDENT _ ->
          (* "C v ..." object declaration *)
          advance st;
          parse_decl st ~at ~typ:(Tobj name)
      | Lexer.ASSIGN ->
          advance st; advance st;
          let r = parse_rhs st in
          expect st Lexer.SEMI "expected ';'";
          mk ~at (Assign (name, r))
      | Lexer.DOT -> begin
          advance st; advance st;
          let member = ident st in
          match peek st with
          | Lexer.LPAREN ->
              let c = parse_call st ~recv:name ~mname:member in
              expect st Lexer.SEMI "expected ';'";
              mk ~at (Expr c)
          | Lexer.ASSIGN ->
              advance st;
              (match peek st with
              | Lexer.IDENT y ->
                  advance st;
                  expect st Lexer.SEMI "expected ';'";
                  mk ~at (Store (name, member, y))
              | _ -> fail st "field store expects a variable right-hand side")
          | _ -> fail st "expected call or field store"
        end
      | _ -> fail st "expected statement"
    end
  | _ -> fail st "expected statement"

and parse_decl st ~at ~typ =
  let v = ident st in
  if accept st Lexer.SEMI then mk ~at (Decl (typ, v, None))
  else begin
    expect st Lexer.ASSIGN "expected '=' or ';' in declaration";
    let r = parse_rhs st in
    expect st Lexer.SEMI "expected ';'";
    mk ~at (Decl (typ, v, Some r))
  end

and parse_block st : block =
  expect st Lexer.LBRACE "expected '{'";
  let rec loop acc =
    if accept st Lexer.RBRACE then List.rev acc
    else loop (parse_stmt st :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Methods, classes, programs.                                         *)
(* ------------------------------------------------------------------ *)

let parse_type st =
  match peek st with
  | Lexer.KW (("int" | "bool" | "void") as s) -> advance st; type_of_name s
  | Lexer.IDENT c -> advance st; Tobj c
  | _ -> fail st "expected type"

let parse_params st =
  expect st Lexer.LPAREN "expected '('";
  if accept st Lexer.RPAREN then []
  else begin
    let rec loop acc =
      let t = parse_type st in
      let v = ident st in
      if accept st Lexer.COMMA then loop ((t, v) :: acc)
      else begin
        expect st Lexer.RPAREN "expected ')'";
        List.rev ((t, v) :: acc)
      end
    in
    loop []
  end

let parse_member st ~cls =
  let t = parse_type st in
  let name = ident st in
  if peek st = Lexer.LPAREN then begin
    let params = parse_params st in
    let throws =
      if accept st (Lexer.KW "throws") then begin
        let rec loop acc =
          let e = ident st in
          if accept st Lexer.COMMA then loop (e :: acc) else List.rev (e :: acc)
        in
        loop []
      end
      else []
    in
    let body = parse_block st in
    `Method { mclass = cls; mname = name; params; ret = t; throws; body }
  end
  else begin
    expect st Lexer.SEMI "expected ';' after field";
    `Field (t, name)
  end

let parse_class st =
  expect st (Lexer.KW "class") "expected 'class'";
  let cname = ident st in
  expect st Lexer.LBRACE "expected '{'";
  let rec loop fields methods =
    if accept st Lexer.RBRACE then
      { cname; fields = List.rev fields; methods = List.rev methods }
    else
      match parse_member st ~cls:cname with
      | `Field f -> loop (f :: fields) methods
      | `Method m -> loop fields (m :: methods)
  in
  loop [] []

let parse_program st =
  let rec loop classes entries =
    match peek st with
    | Lexer.KW "class" -> loop (parse_class st :: classes) entries
    | Lexer.KW "entry" ->
        advance st;
        let c = ident st in
        expect st Lexer.DOT "expected '.' in entry";
        let m = ident st in
        expect st Lexer.SEMI "expected ';'";
        loop classes ((c, m) :: entries)
    | Lexer.EOF -> { classes = List.rev classes; entries = List.rev entries }
    | _ -> fail st "expected 'class' or 'entry'"
  in
  loop [] []

(* Parse a full program from source text.  Raises [Parse_error] or
   [Lexer.Lex_error] on malformed input; a lexical error anywhere in the
   input is reported ahead of a parse error, so a parse error is raised
   only once the rest of the input has lexed cleanly. *)
let parse ?(file = "<string>") src =
  let lx = Lexer.create src in
  let st = { lx; file; tok = Lexer.EOF; line = 1; ahead = None } in
  advance st;
  try parse_program st
  with Parse_error _ as e ->
    Lexer.drain lx;
    raise e
