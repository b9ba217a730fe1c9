(* Declarative typestate property DSL (.gspec).

   A spec file declares one or more properties.  A property is either a
   plain typestate FSM —

     property io {
       track FileInputStream, FileOutputStream;
       initial Open;
       accepting Closed;
       on Open "close" -> Closed;
       ...
     }

   — an exception-walk property —

     property exc_twr { kind exception; handler_aware; }

   — or the product of two previously declared properties (for ordering
   checks):

     property lock_order = product(lock_pairing, lock_ordering) {
       error "lock order inversion on {class}";
     }

   Events come in two modes.  With no [event] declarations the property
   uses name matching: every library instance call fires an event named
   after the called method (how the paper's io, lock and socket checkers
   match events).  With [event] declarations —

       event sink = call send when arg 0 == 0;
       event sink = store;

   — a statement fires the first declared event whose pattern matches and
   whose guards hold; repeated names act as alternation.

   The compiler lowers a property onto the existing {!Fsm.t} so the whole
   pipeline (summary pre-filter, graph closure, SMT, scheduler)
   runs unchanged.  All diagnostics are positioned ({!Spec_error}). *)

type pos = { sp_file : string; sp_line : int; sp_col : int }

exception Spec_error of pos * string

let spec_error at fmt =
  Format.kasprintf (fun msg -> raise (Spec_error (at, msg))) fmt

let error_to_string (at, msg) =
  Printf.sprintf "%s:%d:%d: %s" at.sp_file at.sp_line at.sp_col msg

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Str of string
  | Num of int
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Eq
  | EqEq
  | Arrow
  | Star
  | Eof

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier '%s'" s
  | Str s -> Printf.sprintf "string %S" s
  | Num n -> Printf.sprintf "integer %d" n
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Semi -> "';'"
  | Comma -> "','"
  | Eq -> "'='"
  | EqEq -> "'=='"
  | Arrow -> "'->'"
  | Star -> "'*'"
  | Eof -> "end of file"

type tok = { tok : token; at : pos }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* '.' is an identifier character so the pair-state names a printed
   product property carries ("NoA.Start") parse back *)
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'
let is_digit c = c >= '0' && c <= '9'

let tokenize ~file src : tok list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let here () = { sp_file = file; sp_line = !line; sp_col = !col } in
  let adv () =
    (if src.[!i] = '\n' then (
       incr line;
       col := 1)
     else incr col);
    incr i
  in
  let emit t at = toks := { tok = t; at } :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then adv ()
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        adv ()
      done
    else
      let at = here () in
      match c with
      | '{' ->
          emit Lbrace at;
          adv ()
      | '}' ->
          emit Rbrace at;
          adv ()
      | '(' ->
          emit Lparen at;
          adv ()
      | ')' ->
          emit Rparen at;
          adv ()
      | ';' ->
          emit Semi at;
          adv ()
      | ',' ->
          emit Comma at;
          adv ()
      | '*' ->
          emit Star at;
          adv ()
      | '=' ->
          adv ();
          if !i < n && src.[!i] = '=' then (
            emit EqEq at;
            adv ())
          else emit Eq at
      | '-' ->
          adv ();
          if !i < n && src.[!i] = '>' then (
            emit Arrow at;
            adv ())
          else spec_error at "expected '->'"
      | '"' ->
          adv ();
          let b = Buffer.create 16 in
          let closed = ref false in
          while (not !closed) && !i < n do
            let c = src.[!i] in
            if c = '"' then (
              closed := true;
              adv ())
            else if c = '\n' then spec_error at "unterminated string"
            else (
              Buffer.add_char b c;
              adv ())
          done;
          if not !closed then spec_error at "unterminated string";
          emit (Str (Buffer.contents b)) at
      | c when is_digit c ->
          let b = Buffer.create 8 in
          while !i < n && is_digit src.[!i] do
            Buffer.add_char b src.[!i];
            adv ()
          done;
          emit (Num (int_of_string (Buffer.contents b))) at
      | c when is_ident_start c ->
          let b = Buffer.create 16 in
          while !i < n && is_ident_char src.[!i] do
            Buffer.add_char b src.[!i];
            adv ()
          done;
          emit (Ident (Buffer.contents b)) at
      | c -> spec_error at "unexpected character '%c'" c
  done;
  emit Eof (here ());
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* AST                                                                *)
(* ------------------------------------------------------------------ *)

type decl =
  | Dtrack of (string * pos) list
  | Dinitial of string * pos
  | Daccepting of (string * pos) list
  | Dstate of (string * pos) list
  | Derror of { est : string; est_pos : pos; emsg : string option }
  | Dmessage of { mst : string; mst_pos : pos; mtext : string }
  | Devent of {
      dv_name : string;
      dv_pos : pos;
      dv_pattern : Fsm.pattern;
      dv_guards : Fsm.guard list;
    }
  | Don of {
      t_from : string;
      t_from_pos : pos;
      t_ev : string;
      t_ev_pos : pos;
      t_goto : string;
      t_goto_pos : pos;
    }
  | Dstrict of pos
  | Dkind_exception of pos
  | Dhandler_aware of pos

type property =
  | Pdef of { p_name : string; p_pos : pos; p_decls : decl list }
  | Pproduct of {
      p_name : string;
      p_pos : pos;
      p_left : string * pos;
      p_right : string * pos;
      p_err_msg : string option;
    }

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent)                                         *)
(* ------------------------------------------------------------------ *)

type pstate = { mutable toks : tok list }

let peek st = List.hd st.toks

let next st =
  let t = List.hd st.toks in
  (match t.tok with Eof -> () | _ -> st.toks <- List.tl st.toks);
  t

let expect st want =
  let t = next st in
  if t.tok <> want then
    spec_error t.at "expected %s, found %s" (token_to_string want)
      (token_to_string t.tok)

let p_ident st what =
  let t = next st in
  match t.tok with
  | Ident s -> (s, t.at)
  | k -> spec_error t.at "expected %s, found %s" what (token_to_string k)

(* An identifier or a quoted string: used where the grammar names things
   that may not be valid identifiers (class names like "<null>", event
   names matching arbitrary method names). *)
let p_name st what =
  let t = next st in
  match t.tok with
  | Ident s | Str s -> (s, t.at)
  | k -> spec_error t.at "expected %s, found %s" what (token_to_string k)

let p_int st what =
  let t = next st in
  match t.tok with
  | Num n -> (n, t.at)
  | k -> spec_error t.at "expected %s, found %s" what (token_to_string k)

let rec p_name_list st what =
  let n = p_name st what in
  match (peek st).tok with
  | Comma ->
      ignore (next st);
      n :: p_name_list st what
  | _ -> [ n ]

let rec p_ident_list st what =
  let n = p_ident st what in
  match (peek st).tok with
  | Comma ->
      ignore (next st);
      n :: p_ident_list st what
  | _ -> [ n ]

let p_pattern st : Fsm.pattern =
  let kw, at = p_ident st "an event pattern ('call', 'store', 'return')" in
  match kw with
  | "call" -> (
      let t = next st in
      match t.tok with
      | Star -> Fsm.Pany_call
      | Ident m | Str m -> Fsm.Pcall m
      | k ->
          spec_error t.at "expected a method name or '*', found %s"
            (token_to_string k))
  | "store" -> Fsm.Pstore
  | "return" -> Fsm.Preturn
  | kw -> spec_error at "unknown event pattern '%s'" kw

let p_guard st : Fsm.guard =
  let kw, at = p_ident st "a guard ('arg' or 'receiver')" in
  match kw with
  | "arg" ->
      let idx, idx_at = p_int st "an argument index" in
      if idx < 0 then spec_error idx_at "argument index must be non-negative";
      expect st EqEq;
      let n, _ = p_int st "an integer literal" in
      Fsm.Garg_const (idx, n)
  | "receiver" -> (
      let which, wat = p_ident st "a receiver predicate" in
      match which with
      | "nullable" -> Fsm.Gnullable true
      | "nonnull" -> Fsm.Gnullable false
      | "escapes" -> Fsm.Gescaping true
      | "local" -> Fsm.Gescaping false
      | w ->
          spec_error wat
            "unknown receiver predicate '%s' (expected nullable, nonnull, \
             escapes or local)"
            w)
  | kw -> spec_error at "unknown guard '%s' (expected 'arg' or 'receiver')" kw

let rec p_guards st acc =
  match (peek st).tok with
  | Ident "when" ->
      ignore (next st);
      p_guards st (p_guard st :: acc)
  | _ -> List.rev acc

let p_decl st : decl =
  let kw, at = p_ident st "a declaration" in
  let d =
    match kw with
    | "track" -> Dtrack (p_name_list st "a class name")
    | "initial" ->
        let s, p = p_ident st "a state name" in
        Dinitial (s, p)
    | "accepting" -> Daccepting (p_ident_list st "a state name")
    | "state" -> Dstate (p_ident_list st "a state name")
    | "error" -> (
        let s, p = p_ident st "a state name" in
        match (peek st).tok with
        | Str m ->
            ignore (next st);
            Derror { est = s; est_pos = p; emsg = Some m }
        | _ -> Derror { est = s; est_pos = p; emsg = None })
    | "message" ->
        let s, p = p_ident st "a state name" in
        let t = next st in
        let text =
          match t.tok with
          | Str m -> m
          | k ->
              spec_error t.at "expected a message string, found %s"
                (token_to_string k)
        in
        Dmessage { mst = s; mst_pos = p; mtext = text }
    | "event" ->
        let name, p = p_ident st "an event name" in
        expect st Eq;
        let pat = p_pattern st in
        let guards = p_guards st [] in
        Devent { dv_name = name; dv_pos = p; dv_pattern = pat; dv_guards = guards }
    | "on" ->
        let from, from_pos = p_ident st "a state name" in
        let ev, ev_pos = p_name st "an event name" in
        expect st Arrow;
        let goto, goto_pos = p_ident st "a state name" in
        Don
          { t_from = from;
            t_from_pos = from_pos;
            t_ev = ev;
            t_ev_pos = ev_pos;
            t_goto = goto;
            t_goto_pos = goto_pos }
    | "strict" -> Dstrict at
    | "kind" -> (
        let k, kat = p_ident st "a property kind" in
        match k with
        | "exception" -> Dkind_exception at
        | k -> spec_error kat "unknown property kind '%s'" k)
    | "handler_aware" -> Dhandler_aware at
    | kw -> spec_error at "unknown declaration '%s'" kw
  in
  expect st Semi;
  d

let p_property st : property =
  let t = next st in
  (match t.tok with
  | Ident "property" -> ()
  | k -> spec_error t.at "expected 'property', found %s" (token_to_string k));
  let name, p_pos = p_ident st "a property name" in
  let t = next st in
  match t.tok with
  | Lbrace ->
      let rec decls acc =
        match (peek st).tok with
        | Rbrace ->
            ignore (next st);
            List.rev acc
        | _ -> decls (p_decl st :: acc)
      in
      Pdef { p_name = name; p_pos; p_decls = decls [] }
  | Eq -> (
      let kw, kat = p_ident st "'product'" in
      if kw <> "product" then
        spec_error kat "expected 'product', found identifier '%s'" kw;
      expect st Lparen;
      let left = p_ident st "a property name" in
      expect st Comma;
      let right = p_ident st "a property name" in
      expect st Rparen;
      match (peek st).tok with
      | Semi ->
          ignore (next st);
          Pproduct { p_name = name; p_pos; p_left = left; p_right = right;
                     p_err_msg = None }
      | Lbrace ->
          ignore (next st);
          let msg =
            let kw, kat = p_ident st "'error'" in
            if kw <> "error" then
              spec_error kat "expected 'error', found identifier '%s'" kw;
            let t = next st in
            match t.tok with
            | Str m ->
                expect st Semi;
                m
            | k ->
                spec_error t.at "expected a message string, found %s"
                  (token_to_string k)
          in
          expect st Rbrace;
          Pproduct { p_name = name; p_pos; p_left = left; p_right = right;
                     p_err_msg = Some msg }
      | k ->
          spec_error (peek st).at "expected ';' or '{', found %s"
            (token_to_string k))
  | k -> spec_error t.at "expected '{' or '=', found %s" (token_to_string k)

let parse ~file src : property list =
  let st = { toks = tokenize ~file src } in
  let rec props acc =
    match (peek st).tok with
    | Eof -> List.rev acc
    | _ -> props (p_property st :: acc)
  in
  props []

(* ------------------------------------------------------------------ *)
(* Validation and compilation of a single typestate property           *)
(* ------------------------------------------------------------------ *)

type checker_kind =
  | Typestate of Fsm.t
  | Exception_walk of { handler_aware : bool }

type checker = { c_name : string; c_kind : checker_kind }

let is_exception_prop decls =
  List.exists (function Dkind_exception _ -> true | _ -> false) decls

let compile_exception name p_pos decls : checker =
  let handler_aware = ref false in
  List.iter
    (function
      | Dkind_exception _ -> ()
      | Dhandler_aware _ -> handler_aware := true
      | Dtrack ((_, at) :: _) | Dinitial (_, at) | Daccepting ((_, at) :: _)
      | Dstate ((_, at) :: _) ->
          spec_error at
            "an exception-kind property cannot declare typestate structure"
      | Derror { est_pos = at; _ } | Dmessage { mst_pos = at; _ }
      | Devent { dv_pos = at; _ } | Don { t_from_pos = at; _ } | Dstrict at ->
          spec_error at
            "an exception-kind property cannot declare typestate structure"
      | Dtrack [] | Daccepting [] | Dstate [] ->
          spec_error p_pos "empty declaration")
    decls;
  { c_name = name;
    c_kind = Exception_walk { handler_aware = !handler_aware } }

(* Validate the declarations of a typestate property and lower them to an
   [Fsm.t].  Every rule reports a position. *)
let compile_typestate name p_pos decls : Fsm.t =
  (match
     List.find_opt (function Dhandler_aware _ -> true | _ -> false) decls
   with
  | Some (Dhandler_aware at) ->
      spec_error at "'handler_aware' requires 'kind exception'"
  | _ -> ());
  (* Declared states, in declaration order, with the position of the first
     declaration (used by the unreachable-state diagnostic). *)
  let states : (string, pos) Hashtbl.t = Hashtbl.create 16 in
  let state_order = ref [] in
  let declare_state (s, at) =
    if not (Hashtbl.mem states s) then (
      Hashtbl.add states s at;
      state_order := s :: !state_order)
  in
  let initial = ref None in
  let error_state = ref None in
  let error_msg = ref None in
  List.iter
    (function
      | Dinitial (s, at) -> (
          match !initial with
          | Some _ -> spec_error at "duplicate 'initial' declaration"
          | None ->
              initial := Some (s, at);
              declare_state (s, at))
      | Daccepting ss | Dstate ss -> List.iter declare_state ss
      | Derror { est; est_pos; emsg } -> (
          match !error_state with
          | Some _ ->
              spec_error est_pos
                "duplicate 'error' declaration (a property has one error \
                 state)"
          | None ->
              error_state := Some (est, est_pos);
              error_msg := emsg;
              declare_state (est, est_pos))
      | _ -> ())
    decls;
  (* The error state compiles to the engine's distinguished "Error" state;
     "Error" is implicitly declared even without an [error] decl. *)
  let error_name = match !error_state with Some (s, _) -> s | None -> "Error" in
  if not (Hashtbl.mem states "Error") then
    Hashtbl.add states "Error" p_pos;
  let rename s = if s = error_name then "Error" else s in
  let check_state (s, at) =
    if not (Hashtbl.mem states s) then spec_error at "unknown state '%s'" s
  in
  (match !error_state with
  | Some (s, at) when !error_msg = None ->
      spec_error at "missing error message for state '%s'" s
  | _ -> ());
  let initial =
    match !initial with
    | Some (s, _) -> s
    | None -> spec_error p_pos "property '%s' declares no initial state" name
  in
  (* Event declarations. *)
  let event_decls =
    List.filter_map
      (function
        | Devent { dv_name; dv_pattern; dv_guards; _ } ->
            Some (dv_name, dv_pattern, dv_guards)
        | _ -> None)
      decls
  in
  let declared_event e =
    List.exists (fun (n, _, _) -> n = e) event_decls
  in
  (* Transitions: states must be declared, events must be declared when the
     property uses declared events, the error state has no outgoing
     transitions, and no (state, event) pair maps to two targets. *)
  let seen : (string * string, string * pos) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Don { t_from; t_from_pos; t_ev; t_ev_pos; t_goto; t_goto_pos } ->
          check_state (t_from, t_from_pos);
          check_state (t_goto, t_goto_pos);
          if rename t_from = "Error" then
            spec_error t_from_pos
              "transition out of the error state '%s'" t_from;
          if event_decls <> [] && not (declared_event t_ev) then
            spec_error t_ev_pos "unknown event '%s'" t_ev;
          let key = (rename t_from, t_ev) in
          (match Hashtbl.find_opt seen key with
          | Some (goto', _) when goto' <> rename t_goto ->
              spec_error t_from_pos
                "nondeterministic transition: %s on '%s' goes to both '%s' \
                 and '%s'"
                t_from t_ev goto' t_goto
          | Some _ ->
              spec_error t_from_pos
                "duplicate transition: %s on '%s' already declared" t_from
                t_ev
          | None -> Hashtbl.add seen key (rename t_goto, t_from_pos))
      | Dmessage { mst; mst_pos; _ } -> check_state (mst, mst_pos)
      | _ -> ())
    decls;
  (* Reachability: every declared state other than the error state must be
     reachable from the initial state via declared transitions. *)
  let reachable = Hashtbl.create 16 in
  let rec visit s =
    if not (Hashtbl.mem reachable s) then (
      Hashtbl.add reachable s ();
      Hashtbl.iter
        (fun (from, _) (goto, _) -> if from = s then visit goto)
        seen)
  in
  visit (rename initial);
  Hashtbl.iter
    (fun s at ->
      let r = rename s in
      if r <> "Error" && not (Hashtbl.mem reachable r) then
        spec_error at "unreachable state '%s'" s)
    states;
  (* Tracked classes. *)
  let tracked =
    List.concat_map (function Dtrack cs -> cs | _ -> []) decls
  in
  if tracked = [] then
    spec_error p_pos "property '%s' tracks no classes" name;
  (* Lower onto the FSM builder.  States are declared in source order, so
     the numbering follows the text (reports do not depend on ids, but
     determinism is free here). *)
  let b = Fsm.builder name in
  List.iter (fun (c, _) -> Fsm.track b c) tracked;
  Fsm.initial b (rename initial);
  List.iter
    (fun s -> if rename s <> "Error" then Fsm.state b (rename s))
    (List.rev !state_order);
  List.iter
    (function
      | Daccepting ss -> List.iter (fun (s, _) -> Fsm.accepting b (rename s)) ss
      | Don { t_from; t_ev; t_goto; _ } ->
          Fsm.on b ~from:(rename t_from) ~event:t_ev ~goto:(rename t_goto)
      | Dstrict _ -> Fsm.strict_events b
      | Devent { dv_name; dv_pattern; dv_guards; _ } ->
          Fsm.declare_event b ~name:dv_name ~pattern:dv_pattern
            ~guards:dv_guards
      | Dmessage { mst; mtext; _ } ->
          Fsm.message b ~state:(rename mst) ~text:mtext
      | _ -> ())
    decls;
  (match !error_msg with
  | Some m -> Fsm.message b ~state:"Error" ~text:m
  | None -> ());
  Fsm.build b

(* ------------------------------------------------------------------ *)
(* Product construction                                               *)
(* ------------------------------------------------------------------ *)

(* The product runs two properties in lockstep over the union of their
   alphabets: an event outside one component's alphabet stalls that
   component.  The product errs as soon as either component errs, and a
   final state is accepting iff both components accept.  Used for
   ordering checks (e.g. lock-order inversion = pairing x ordering). *)
let product ~name ~err_msg ~at (f1 : Fsm.t) (f2 : Fsm.t) : Fsm.t =
  let declared f = f.Fsm.event_decls <> [] in
  if declared f1 <> declared f2 then
    spec_error at
      "product components '%s' and '%s' mix declared-event and \
       name-matching properties"
      f1.Fsm.name f2.Fsm.name;
  if (not (declared f1)) && not f1.Fsm.ignore_unknown_events then
    spec_error at
      "product component '%s' is strict and name-matching; its alphabet is \
       open so the product is not well defined"
      f1.Fsm.name;
  if (not (declared f2)) && not f2.Fsm.ignore_unknown_events then
    spec_error at
      "product component '%s' is strict and name-matching; its alphabet is \
       open so the product is not well defined"
      f2.Fsm.name;
  (* Merge event declarations: same name must mean the same thing. *)
  let decls =
    List.fold_left
      (fun acc (d : Fsm.event_decl) ->
        if List.mem d acc then acc
        else if
          List.exists (fun (d' : Fsm.event_decl) ->
              d'.Fsm.ev_name = d.Fsm.ev_name
              && (d'.Fsm.ev_pattern <> d.Fsm.ev_pattern
                 || d'.Fsm.ev_guards <> d.Fsm.ev_guards))
            acc
        then
          spec_error at
            "product components declare event '%s' with different patterns"
            d.Fsm.ev_name
        else acc @ [ d ])
      f1.Fsm.event_decls f2.Fsm.event_decls
  in
  let alphabet =
    List.sort_uniq compare (f1.Fsm.events @ f2.Fsm.events)
  in
  let step_comp (f : Fsm.t) s e =
    if List.mem e f.Fsm.events then Fsm.step f s e else s
  in
  let is_err (f : Fsm.t) s = s = f.Fsm.error in
  let pair_name (s1, s2) =
    if is_err f1 s1 || is_err f2 s2 then "Error"
    else Fsm.state_name f1 s1 ^ "." ^ Fsm.state_name f2 s2
  in
  let b = Fsm.builder name in
  List.iter (Fsm.track b)
    (List.sort_uniq compare
       (f1.Fsm.tracked_classes @ f2.Fsm.tracked_classes));
  let init = (f1.Fsm.initial, f2.Fsm.initial) in
  Fsm.initial b (pair_name init);
  (* BFS over reachable pairs; every (pair, alphabet event) transition is
     emitted explicitly, so strictness of the product never triggers. *)
  let visited = Hashtbl.create 16 in
  let queue = Queue.create () in
  Hashtbl.add visited init ();
  Queue.add init queue;
  while not (Queue.is_empty queue) do
    let ((s1, s2) as s) = Queue.pop queue in
    if not (is_err f1 s1 || is_err f2 s2) then (
      Fsm.state b (pair_name s);
      if Fsm.is_accepting f1 s1 && Fsm.is_accepting f2 s2 then
        Fsm.accepting b (pair_name s);
      List.iter
        (fun e ->
          let s' = (step_comp f1 s1 e, step_comp f2 s2 e) in
          Fsm.on b ~from:(pair_name s) ~event:e ~goto:(pair_name s');
          if not (Hashtbl.mem visited s') then (
            Hashtbl.add visited s' ();
            Queue.add s' queue))
        alphabet)
  done;
  List.iter
    (fun (d : Fsm.event_decl) ->
      Fsm.declare_event b ~name:d.Fsm.ev_name ~pattern:d.Fsm.ev_pattern
        ~guards:d.Fsm.ev_guards)
    decls;
  (match err_msg with
  | Some m -> Fsm.message b ~state:"Error" ~text:m
  | None -> (
      (* Inherit a component error message if exactly one side has one. *)
      match
        ( List.assoc_opt "Error" f1.Fsm.messages,
          List.assoc_opt "Error" f2.Fsm.messages )
      with
      | Some m, None | None, Some m -> Fsm.message b ~state:"Error" ~text:m
      | _ -> ()));
  Fsm.build b

(* ------------------------------------------------------------------ *)
(* Compiling a whole spec file                                        *)
(* ------------------------------------------------------------------ *)

(* Compile every property in [src].  Properties consumed as product
   components are helpers, not checkers: the result lists only the
   exported ones (in declaration order). *)
let compile ~file src : checker list =
  let props = parse ~file src in
  let seen_names = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let name, at =
        match p with
        | Pdef { p_name; p_pos; _ } | Pproduct { p_name; p_pos; _ } ->
            (p_name, p_pos)
      in
      if Hashtbl.mem seen_names name then
        spec_error at "duplicate property '%s'" name;
      Hashtbl.add seen_names name ())
    props;
  let env : (string, checker) Hashtbl.t = Hashtbl.create 8 in
  let consumed = Hashtbl.create 8 in
  let compiled =
    List.map
      (fun p ->
        let c =
          match p with
          | Pdef { p_name; p_pos; p_decls } ->
              if is_exception_prop p_decls then
                compile_exception p_name p_pos p_decls
              else
                { c_name = p_name;
                  c_kind = Typestate (compile_typestate p_name p_pos p_decls) }
          | Pproduct { p_name; p_pos; p_left; p_right; p_err_msg } ->
              let component (n, at) =
                match Hashtbl.find_opt env n with
                | None -> spec_error at "unknown property '%s'" n
                | Some { c_kind = Typestate f; _ } ->
                    Hashtbl.replace consumed n ();
                    f
                | Some _ ->
                    spec_error at
                      "property '%s' is not a typestate property; products \
                       compose typestate properties"
                      n
              in
              let f1 = component p_left in
              let f2 = component p_right in
              { c_name = p_name;
                c_kind =
                  Typestate
                    (product ~name:p_name ~err_msg:p_err_msg ~at:p_pos f1 f2) }
        in
        Hashtbl.replace env c.c_name c;
        c)
      props
  in
  List.filter (fun c -> not (Hashtbl.mem consumed c.c_name)) compiled

let compile_file path : checker list =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  compile ~file:(Filename.basename path) src

(* ------------------------------------------------------------------ *)
(* Printer: Fsm.t -> .gspec text (round-trips for the test suite)      *)
(* ------------------------------------------------------------------ *)

let quote_name s =
  let plain =
    String.length s > 0
    && is_ident_start s.[0]
    && String.for_all is_ident_char s
  in
  if plain then s else Printf.sprintf "%S" s

let print_pattern = function
  | Fsm.Pcall m -> "call " ^ quote_name m
  | Fsm.Pany_call -> "call *"
  | Fsm.Pstore -> "store"
  | Fsm.Preturn -> "return"

let print_guard = function
  | Fsm.Garg_const (i, n) -> Printf.sprintf "when arg %d == %d" i n
  | Fsm.Gnullable true -> "when receiver nullable"
  | Fsm.Gnullable false -> "when receiver nonnull"
  | Fsm.Gescaping true -> "when receiver escapes"
  | Fsm.Gescaping false -> "when receiver local"

(* Render an FSM as DSL text.  [compile] of the result yields an FSM
   isomorphic to the input (see {!equivalent}). *)
let print_fsm (f : Fsm.t) : string =
  let b = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "property %s {\n" f.Fsm.name;
  pr "  track %s;\n"
    (String.concat ", " (List.map quote_name f.Fsm.tracked_classes));
  pr "  initial %s;\n" (Fsm.state_name f f.Fsm.initial);
  (match f.Fsm.accepting with
  | [] -> ()
  | acc ->
      pr "  accepting %s;\n"
        (String.concat ", " (List.map (Fsm.state_name f) acc)));
  Array.iteri
    (fun i s ->
      if
        i <> f.Fsm.initial && i <> f.Fsm.error
        && not (Fsm.is_accepting f i)
      then pr "  state %s;\n" s)
    f.Fsm.state_names;
  if not f.Fsm.ignore_unknown_events then pr "  strict;\n";
  List.iter
    (fun (d : Fsm.event_decl) ->
      pr "  event %s = %s%s;\n" d.Fsm.ev_name (print_pattern d.Fsm.ev_pattern)
        (String.concat ""
           (List.map (fun g -> " " ^ print_guard g) d.Fsm.ev_guards)))
    f.Fsm.event_decls;
  List.iter
    (fun (s, m) ->
      if s = "Error" then pr "  error Error %S;\n" m
      else pr "  message %s %S;\n" s m)
    f.Fsm.messages;
  let transitions =
    Hashtbl.fold (fun (s, e) s' acc -> (s, e, s') :: acc) f.Fsm.transitions []
  in
  List.iter
    (fun (s, e, s') ->
      pr "  on %s %s -> %s;\n" (Fsm.state_name f s) (quote_name e)
        (Fsm.state_name f s'))
    (List.sort compare transitions);
  pr "}\n";
  Buffer.contents b

(* Structural equivalence up to state numbering: same name, tracked
   classes, state-name set, initial/error/accepting names, transition
   triples (by name), alphabet, strictness, event declarations and
   message templates. *)
let equivalent (a : Fsm.t) (b : Fsm.t) : bool =
  let names f =
    List.sort compare (Array.to_list f.Fsm.state_names)
  in
  let transitions f =
    Hashtbl.fold
      (fun (s, e) s' acc ->
        (Fsm.state_name f s, e, Fsm.state_name f s') :: acc)
      f.Fsm.transitions []
    |> List.sort compare
  in
  let accepting f =
    List.sort compare (List.map (Fsm.state_name f) f.Fsm.accepting)
  in
  a.Fsm.name = b.Fsm.name
  && List.sort compare a.Fsm.tracked_classes
     = List.sort compare b.Fsm.tracked_classes
  && names a = names b
  && Fsm.state_name a a.Fsm.initial = Fsm.state_name b b.Fsm.initial
  && Fsm.state_name a a.Fsm.error = Fsm.state_name b b.Fsm.error
  && accepting a = accepting b
  && transitions a = transitions b
  && List.sort compare a.Fsm.events = List.sort compare b.Fsm.events
  && a.Fsm.ignore_unknown_events = b.Fsm.ignore_unknown_events
  && a.Fsm.event_decls = b.Fsm.event_decls
  && List.sort compare a.Fsm.messages = List.sort compare b.Fsm.messages

(* ------------------------------------------------------------------ *)
(* Built-in spec texts                                                 *)
(* ------------------------------------------------------------------ *)

(* The DSL sources of every built-in checker: the paper's five, then the
   four further shipped properties.  The same texts are shipped as
   specs/*.gspec; the test suite asserts the files and these strings stay
   in sync. *)
module Builtin = struct
  let paper =
    {|# The paper's checkers (section 5): Java I/O resources, lock usage,
# exception handling and socket usage, plus the null-dereference client
# built on the same machinery.  Tracking starts at the allocation, so
# each initial state is the state *after* the constructor event: a
# FileWriter is Open as soon as it exists (Figure 3a).

# Figure 3a: Open --write*--> Open --close--> Closed; a write after close
# is an error; an object not Closed at end of life leaks.
property io {
  track FileWriter, FileReader, FileInputStream, FileOutputStream, BufferedWriter, BufferedReader, PrintWriter, DataOutputStream;
  initial Open;
  accepting Closed;
  on Open close -> Closed;
  on Open flush -> Open;
  on Open read -> Open;
  on Open write -> Open;
  on Closed close -> Closed;
  on Closed flush -> Error;
  on Closed read -> Error;
  on Closed write -> Error;
}

# lock/unlock pairing: unlock without a held lock is an error; a lock
# still held at end of life is reported as a leak.
property lock {
  track ReentrantLock, Lock, ReadLock, WriteLock;
  initial Unlocked;
  accepting Unlocked;
  state Locked;
  on Unlocked lock -> Locked;
  on Unlocked unlock -> Error;
  on Locked unlock -> Unlocked;
}

# Exception handling (section 5.1): an explicitly thrown exception that
# escapes every transitive caller unhandled.  A walk over the clone
# tree, not a typestate.
property exception {
  kind exception;
}

# Figure 2, extended: a channel is Open on creation, must be bound
# before accepting, and must be closed before the program exits.
property socket {
  track Socket, ServerSocket, ServerSocketChannel, SocketChannel;
  initial Open;
  accepting Closed;
  state Bound;
  state Ready;
  on Open accept -> Error;
  on Open bind -> Bound;
  on Open close -> Closed;
  on Open configureBlocking -> Open;
  on Open connect -> Ready;
  on Open setTcpNoDelay -> Open;
  on Closed accept -> Error;
  on Closed bind -> Error;
  on Closed connect -> Error;
  on Bound accept -> Ready;
  on Bound close -> Closed;
  on Bound configureBlocking -> Bound;
  on Ready accept -> Ready;
  on Ready close -> Closed;
  on Ready read -> Ready;
  on Ready write -> Ready;
}

# Null dereference: each null assignment is a pseudo-allocation of the
# <null> class; in strict mode any call on a receiver that may still hold
# that null on a feasible path goes to Error.  Variable versioning kills
# the source on reassignment, and path sensitivity confines the report
# to the paths where the null reaches the call.
property null {
  track "<null>";
  initial Null;
  accepting Null;
  strict;
}

|}

  let lock_order =
    {|# Lock-order inversion: a LockPair object owns two locks A and B that
# must always be acquired A-first.  The checker is the product of two
# simpler properties: pairing (lock/unlock discipline for A) and
# ordering (B must not be the first lock taken).

property lock_pairing {
  track LockPair;
  initial NoA;
  accepting NoA;
  state HeldA;
  event lockA = call lockA;
  event unlockA = call unlockA;
  on NoA lockA -> HeldA;
  on HeldA lockA -> HeldA;
  on HeldA unlockA -> NoA;
  on NoA unlockA -> Error;
}

property lock_ordering {
  track LockPair;
  initial Start;
  accepting Start, AFirst;
  event lockA = call lockA;
  event lockB = call lockB;
  on Start lockA -> AFirst;
  on Start lockB -> Error;
  on AFirst lockA -> AFirst;
  on AFirst lockB -> AFirst;
}

property lock_order = product(lock_pairing, lock_ordering) {
  error "lock-order inversion on {class}: B acquired before A";
}
|}

  let taint =
    {|# Taint source-to-sink flow: a UserInput object is tainted from
# allocation; passing it to a sink (exec, send with mode flag 0, or a
# field store) before sanitize() is an error.

property taint {
  track UserInput;
  initial Tainted;
  accepting Tainted, Clean;
  error Error "tainted {class} reaches a sink without sanitize()";
  event sanitize = call sanitize;
  event sink = call exec;
  event sink = call send when arg 0 == 0;
  event sink = store;
  on Tainted sanitize -> Clean;
  on Clean sanitize -> Clean;
  on Tainted sink -> Error;
  on Clean sink -> Clean;
}
|}

  let close =
    {|# Double-close / use-after-close for random-access handles.

property close {
  track RandomAccessFile, FileChannel;
  initial Open;
  accepting Closed;
  error Error "{class} closed twice or used after close";
  event close = call close;
  event use = call read;
  event use = call write;
  event use = call seek;
  on Open close -> Closed;
  on Open use -> Open;
  on Closed close -> Error;
  on Closed use -> Error;
}
|}

  let exc_twr =
    {|# Try-with-resources-aware exception checker: like the built-in
# exception walk, but an undeclared throw that a caller demonstrably
# catches (an enclosing try whose handler matches the exception class)
# is not reported.  Kills the paper's residual false-positive class.

property exc_twr {
  kind exception;
  handler_aware;
}
|}

  let all =
    [ ("paper.gspec", paper);
      ("lock_order.gspec", lock_order);
      ("taint.gspec", taint);
      ("close.gspec", close);
      ("exc_twr.gspec", exc_twr) ]
end
