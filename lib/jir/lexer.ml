(* Hand-written pull lexer for the JIR surface syntax: the parser asks for
   one token at a time, so no token list or array is ever built. *)

type token =
  | IDENT of string
  | INT of int
  | KW of string          (* class if else while try catch throw throws ... *)
  | LBRACE | RBRACE | LPAREN | RPAREN
  | SEMI | COMMA | DOT
  | ASSIGN                (* = *)
  | PLUS | MINUS | STAR
  | LE | LT | GE | GT | EQ | NE
  | ANDAND | OROR | BANG
  | EOF

exception Lex_error of string * int (* message, line *)

(* [pos] is the offset of the next unread byte.  Tokens never span lines,
   so after [next] returns, [line] is the line of the token it returned. *)
type t = { src : string; mutable pos : int; mutable line : int }

let create src = { src; pos = 0; line = 1 }

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let ident_or_keyword s =
  match s with
  | "class" | "if" | "else" | "while" | "try" | "catch" | "throw" | "throws"
  | "return" | "new" | "null" | "true" | "false" | "int" | "bool" | "void"
  | "entry" ->
      KW s
  | _ -> IDENT s

let followed_by src i ch =
  i + 1 < String.length src && src.[i + 1] = ch

(* [t], having consumed its [k] bytes *)
let take lx k t =
  lx.pos <- lx.pos + k;
  t

(* The next token.  Comments: // to end of line and /* ... */.  Once the
   input is exhausted every call returns [EOF]. *)
let rec next lx =
  let src = lx.src in
  let n = String.length src in
  let i = lx.pos in
  if i >= n then EOF
  else
    match src.[i] with
    | '\n' -> lx.line <- lx.line + 1; lx.pos <- i + 1; next lx
    | ' ' | '\t' | '\r' -> lx.pos <- i + 1; next lx
    | '/' when followed_by src i '/' ->
        let j = ref i in
        while !j < n && src.[!j] <> '\n' do incr j done;
        lx.pos <- !j;
        next lx
    | '/' when followed_by src i '*' ->
        let j = ref (i + 2) in
        while not (!j + 1 < n && src.[!j] = '*' && src.[!j + 1] = '/') do
          if !j >= n then raise (Lex_error ("unterminated comment", lx.line));
          if src.[!j] = '\n' then lx.line <- lx.line + 1;
          incr j
        done;
        lx.pos <- !j + 2;
        next lx
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ref (i + 1) in
        while !j < n && is_ident_char src.[!j] do incr j done;
        lx.pos <- !j;
        ident_or_keyword (String.sub src i (!j - i))
    | '0' .. '9' ->
        (* the range [int_of_string] accepts: 0 .. max_int *)
        let j = ref i and v = ref 0 in
        while !j < n && is_digit src.[!j] do
          let d = Char.code src.[!j] - Char.code '0' in
          if !v > (max_int - d) / 10 then
            raise (Lex_error ("integer literal out of range", lx.line));
          v := (!v * 10) + d;
          incr j
        done;
        lx.pos <- !j;
        INT !v
    | '<' -> if followed_by src i '=' then take lx 2 LE else take lx 1 LT
    | '>' -> if followed_by src i '=' then take lx 2 GE else take lx 1 GT
    | '=' -> if followed_by src i '=' then take lx 2 EQ else take lx 1 ASSIGN
    | '!' -> if followed_by src i '=' then take lx 2 NE else take lx 1 BANG
    | '&' when followed_by src i '&' -> take lx 2 ANDAND
    | '|' when followed_by src i '|' -> take lx 2 OROR
    | '{' -> take lx 1 LBRACE
    | '}' -> take lx 1 RBRACE
    | '(' -> take lx 1 LPAREN
    | ')' -> take lx 1 RPAREN
    | ';' -> take lx 1 SEMI
    | ',' -> take lx 1 COMMA
    | '.' -> take lx 1 DOT
    | '+' -> take lx 1 PLUS
    | '-' -> take lx 1 MINUS
    | '*' -> take lx 1 STAR
    | c ->
        raise (Lex_error (Printf.sprintf "unexpected character %C" c, lx.line))

(* Lex the rest of the input, raising its first lexical error if it has
   one. *)
let rec drain lx = match next lx with EOF -> () | _ -> drain lx

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | KW s -> Printf.sprintf "keyword %S" s
  | LBRACE -> "'{'" | RBRACE -> "'}'" | LPAREN -> "'('" | RPAREN -> "')'"
  | SEMI -> "';'" | COMMA -> "','" | DOT -> "'.'"
  | ASSIGN -> "'='" | PLUS -> "'+'" | MINUS -> "'-'" | STAR -> "'*'"
  | LE -> "'<='" | LT -> "'<'" | GE -> "'>='" | GT -> "'>'"
  | EQ -> "'=='" | NE -> "'!='"
  | ANDAND -> "'&&'" | OROR -> "'||'" | BANG -> "'!'"
  | EOF -> "end of input"
