(* Finite-state-machine property specifications (paper §2, Figures 2/3a).

   A property names the object types it tracks, the FSM states and the
   transitions among them driven by method-call events on the tracked
   object, plus which states are acceptable at end of life.  Typestate
   semantics: an event with no declared transition from the current state
   drives the object into the distinguished [error] state, which is
   absorbing. *)

type state = int

(* How a statement fires an event.  The default (an FSM with no event
   declarations) is *name matching*: every library instance call fires an
   event named after the called method, which is how the paper's io, lock
   and socket checkers work.  An FSM compiled from a DSL spec may
   instead declare events explicitly, each with a syntactic pattern and
   optional guards; a statement then fires the first declared event whose
   pattern matches and whose guards all hold, or nothing. *)
type pattern =
  | Pcall of string  (* library instance call with this method name *)
  | Pany_call        (* any library instance call *)
  | Pstore           (* the tracked reference is stored into a field *)
  | Preturn          (* the tracked reference is returned *)

(* Guards are decided syntactically from the statement and its enclosing
   method, so the graph builder, the summary pre-analysis, and the escape
   pre-filter — which all detect events independently — agree exactly. *)
type guard =
  | Garg_const of int * int
      (* argument [i] is the integer literal [n] *)
  | Gnullable of bool
      (* the subject variable has (true) / lacks (false) a null assignment
         somewhere in the enclosing method *)
  | Gescaping of bool
      (* the subject variable is (true) / is not (false) stored to a field,
         passed as a call argument, or returned in the enclosing method *)

type event_decl = {
  ev_name : string;
  ev_pattern : pattern;
  ev_guards : guard list;
}

type t = {
  name : string;
  tracked_classes : string list;  (* allocation types to track *)
  state_names : string array;     (* index = state id *)
  initial : state;
  error : state;
  transitions : (state * string, state) Hashtbl.t;  (* (from, event) -> to *)
  accepting : state list;         (* states legal at object end-of-life *)
  events : string list;           (* all event method names, deduplicated *)
  ignore_unknown_events : bool;
      (* if true, events with no transition from a state leave the state
         unchanged instead of going to error; used for properties that only
         constrain a subset of the API *)
  event_decls : event_decl list;
      (* empty = name matching (the legacy behavior); repeated names act as
         pattern alternation, first match wins *)
  messages : (string * string) list;
      (* state name -> report message template; [{class}] and [{state}]
         are substituted at report time *)
}

type builder = {
  b_name : string;
  mutable b_classes : string list;
  mutable b_states : string list;  (* reverse order *)
  mutable b_initial : string option;
  mutable b_accepting : string list;
  mutable b_transitions : (string * string * string) list;  (* from,event,to *)
  mutable b_ignore_unknown : bool;
  mutable b_event_decls : event_decl list;  (* reverse order *)
  mutable b_messages : (string * string) list;
}

let builder name =
  { b_name = name; b_classes = []; b_states = []; b_initial = None;
    b_accepting = []; b_transitions = []; b_ignore_unknown = true;
    b_event_decls = []; b_messages = [] }

let track b cls = b.b_classes <- cls :: b.b_classes

let state b name =
  if not (List.mem name b.b_states) then b.b_states <- name :: b.b_states

let initial b name =
  state b name;
  b.b_initial <- Some name

let accepting b name =
  state b name;
  b.b_accepting <- name :: b.b_accepting

let on b ~from ~event ~goto =
  state b from;
  state b goto;
  b.b_transitions <- (from, event, goto) :: b.b_transitions

let strict_events b = b.b_ignore_unknown <- false

let declare_event b ~name ~pattern ~guards =
  b.b_event_decls <- { ev_name = name; ev_pattern = pattern; ev_guards = guards } :: b.b_event_decls

let message b ~state:st ~text =
  state b st;
  b.b_messages <- (st, text) :: b.b_messages

exception Invalid_spec of string

let build (b : builder) : t =
  let states = List.rev b.b_states in
  let states = states @ (if List.mem "Error" states then [] else [ "Error" ]) in
  let state_names = Array.of_list states in
  let id_of name =
    let rec go i =
      if i >= Array.length state_names then
        raise (Invalid_spec ("unknown state " ^ name))
      else if state_names.(i) = name then i
      else go (i + 1)
    in
    go 0
  in
  let initial =
    match b.b_initial with
    | Some s -> id_of s
    | None -> raise (Invalid_spec ("no initial state in " ^ b.b_name))
  in
  if b.b_classes = [] then
    raise (Invalid_spec ("no tracked classes in " ^ b.b_name));
  let transitions = Hashtbl.create 32 in
  List.iter
    (fun (from, event, goto) ->
      let key = (id_of from, event) in
      (match Hashtbl.find_opt transitions key with
      | Some prev when prev <> id_of goto ->
          raise
            (Invalid_spec
               (Printf.sprintf "nondeterministic transition %s --%s--> {%s,%s}"
                  from event state_names.(prev) goto))
      | _ -> ());
      Hashtbl.replace transitions key (id_of goto))
    b.b_transitions;
  let events =
    List.sort_uniq compare
      (List.map (fun (_, e, _) -> e) b.b_transitions
      @ List.map (fun d -> d.ev_name) b.b_event_decls)
  in
  { name = b.b_name;
    tracked_classes = List.rev b.b_classes;
    state_names;
    initial;
    error = id_of "Error";
    transitions;
    accepting = List.map id_of (List.sort_uniq compare b.b_accepting);
    events;
    ignore_unknown_events = b.b_ignore_unknown;
    event_decls = List.rev b.b_event_decls;
    messages = List.rev b.b_messages }

let n_states (t : t) = Array.length t.state_names

let state_name (t : t) s = t.state_names.(s)

let is_accepting (t : t) s = List.mem s t.accepting

let is_tracked (t : t) cls = List.mem cls t.tracked_classes

let is_event (t : t) event = List.mem event t.events

(* ------------------------------------------------------------------ *)
(* Event matching.                                                     *)
(*                                                                     *)
(* [stmt_event] is the one answer to "which event does this statement  *)
(* fire": the dataflow graph builder, the points-to pre-filter and the  *)
(* escape replay all call it, and the summary pre-analysis resolves    *)
(* through the same [call_event]/[store_event]/[return_event].  Their   *)
(* answers must agree statement by statement or the pre-filters become *)
(* unsound, so everything here is a pure syntactic function of          *)
(* (statement, enclosing method).  The caller supplies the "library     *)
(* call" test (call target not defined in the program).                 *)
(* ------------------------------------------------------------------ *)

(* Does [var] receive a null assignment anywhere in the method? *)
let has_null_def (m : Jir.Ast.meth) (var : Jir.Ast.var) =
  List.exists
    (fun (s : Jir.Ast.stmt) ->
      match s.Jir.Ast.kind with
      | Jir.Ast.Decl (_, x, Some Jir.Ast.Rnull) | Jir.Ast.Assign (x, Jir.Ast.Rnull) ->
          x = var
      | _ -> false)
    (Jir.Ast.block_stmts m.Jir.Ast.body)

(* Is [var] stored to a field, passed as a call argument, or returned
   anywhere in the method? *)
let escapes_method (m : Jir.Ast.meth) (var : Jir.Ast.var) =
  let in_expr e = List.mem var (Jir.Ast.expr_vars e) in
  let in_call (c : Jir.Ast.call) = List.exists in_expr c.Jir.Ast.args in
  List.exists
    (fun (s : Jir.Ast.stmt) ->
      match s.Jir.Ast.kind with
      | Jir.Ast.Store (_, _, y) -> y = var
      | Jir.Ast.Expr c -> in_call c
      | Jir.Ast.Decl (_, _, Some r) | Jir.Ast.Assign (_, r) -> (
          match r with
          | Jir.Ast.Rcall c -> in_call c
          | Jir.Ast.Rnew (_, args) -> List.exists in_expr args
          | _ -> false)
      | Jir.Ast.Return (Some e) -> in_expr e
      | _ -> false)
    (Jir.Ast.block_stmts m.Jir.Ast.body)

let guard_holds ~(meth : Jir.Ast.meth) ~(var : Jir.Ast.var)
    ~(call : Jir.Ast.call option) (g : guard) =
  match g with
  | Garg_const (i, n) -> (
      match call with
      | Some c -> (
          match List.nth_opt c.Jir.Ast.args i with
          | Some (Jir.Ast.Const k) -> k = n
          | _ -> false)
      | None -> false)
  | Gnullable want -> has_null_def meth var = want
  | Gescaping want -> escapes_method meth var = want

let first_match (t : t) ~meth ~var ~call ~(pattern_ok : pattern -> bool) =
  let rec go = function
    | [] -> None
    | d :: tl ->
        if
          pattern_ok d.ev_pattern
          && List.for_all (guard_holds ~meth ~var ~call) d.ev_guards
        then Some d.ev_name
        else go tl
  in
  go t.event_decls

(* Event fired by a library instance call, if any.  Name-matching FSMs
   (no declarations) fire the called method's name unconditionally: the
   behavior the paper's io, lock and socket checkers rely on. *)
let call_event (t : t) ~(meth : Jir.Ast.meth) (c : Jir.Ast.call) :
    string option =
  match c.Jir.Ast.recv with
  | None -> None
  | Some r -> (
      match t.event_decls with
      | [] -> Some c.Jir.Ast.mname
      | _ ->
          first_match t ~meth ~var:r ~call:(Some c) ~pattern_ok:(function
            | Pcall m -> m = c.Jir.Ast.mname
            | Pany_call -> true
            | Pstore | Preturn -> false))

(* Event fired by storing the tracked reference [src] into a field. *)
let store_event (t : t) ~(meth : Jir.Ast.meth) ~(src : Jir.Ast.var) :
    string option =
  match t.event_decls with
  | [] -> None
  | _ ->
      first_match t ~meth ~var:src ~call:None ~pattern_ok:(function
        | Pstore -> true
        | Pcall _ | Pany_call | Preturn -> false)

(* Event fired by returning the tracked reference [var]. *)
let return_event (t : t) ~(meth : Jir.Ast.meth) (var : Jir.Ast.var) :
    string option =
  match t.event_decls with
  | [] -> None
  | _ ->
      first_match t ~meth ~var ~call:None ~pattern_ok:(function
        | Preturn -> true
        | Pcall _ | Pany_call | Pstore -> false)

(* (subject variable, event) fired by a statement, if any. *)
let stmt_event (t : t) ~library ~(meth : Jir.Ast.meth) (s : Jir.Ast.stmt) :
    (Jir.Ast.var * string) option =
  let on v = function Some ev -> Some (v, ev) | None -> None in
  match s.Jir.Ast.kind with
  | Jir.Ast.Expr c
  | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rcall c))
  | Jir.Ast.Assign (_, Jir.Ast.Rcall c) -> (
      match c.Jir.Ast.recv with
      | Some r when library c -> on r (call_event t ~meth c)
      | _ -> None)
  | Jir.Ast.Store (_, _, y) -> on y (store_event t ~meth ~src:y)
  | Jir.Ast.Return (Some (Jir.Ast.Var v)) -> on v (return_event t ~meth v)
  | _ -> None

(* Report text for reaching [s]: the state's message template with
   [{class}]/[{state}] substituted, or just the state name. *)
let describe_state (t : t) (s : state) ~(cls : string) : string =
  let name = t.state_names.(s) in
  match List.assoc_opt name t.messages with
  | None -> name
  | Some tmpl ->
      let replace ~sub ~by s =
        let slen = String.length sub in
        let buf = Buffer.create (String.length s) in
        let i = ref 0 in
        while !i <= String.length s - slen do
          if String.sub s !i slen = sub then begin
            Buffer.add_string buf by;
            i := !i + slen
          end
          else begin
            Buffer.add_char buf s.[!i];
            incr i
          end
        done;
        Buffer.add_string buf (String.sub s !i (String.length s - !i));
        Buffer.contents buf
      in
      replace ~sub:"{state}" ~by:name (replace ~sub:"{class}" ~by:cls tmpl)

(* One step of the FSM.  Error is absorbing; unknown events either stall or
   fail according to the spec. *)
let step (t : t) (s : state) (event : string) : state =
  if s = t.error then t.error
  else
    match Hashtbl.find_opt t.transitions (s, event) with
    | Some s' -> s'
    | None -> if t.ignore_unknown_events then s else t.error

(* The transition function of [event] as a vector usable with [Transfn]. *)
let event_vector (t : t) (event : string) : int array =
  Array.init (n_states t) (fun s -> step t s event)

(* Run a whole event sequence from the initial state. *)
let run (t : t) (events : string list) : state =
  List.fold_left (fun s e -> step t s e) t.initial events

(* A sequence is buggy if it reaches Error or ends in a non-accepting
   state. *)
type verdict = Ok_ | Reaches_error | Bad_final of state

let check_sequence (t : t) (events : string list) : verdict =
  let rec go s = function
    | [] -> if is_accepting t s then Ok_ else Bad_final s
    | e :: rest ->
        let s' = step t s e in
        if s' = t.error then Reaches_error else go s' rest
  in
  go t.initial events

(* ------------------------------------------------------------------ *)
(* Transfer relations.                                                 *)
(*                                                                     *)
(* A relation r over states: r.(s).(s') holds iff some abstracted      *)
(* event sequence can take the object from s to s'.  Relations are the *)
(* summary currency of the interprocedural pre-analysis: the effect of *)
(* a straight-line code fragment is a function (one true bit per row), *)
(* joins over branches make it a genuine relation, and composition     *)
(* chains fragments.  All operations are over the fixed state space of *)
(* one property, so sizes always agree.                                *)
(* ------------------------------------------------------------------ *)

type rel = bool array array

let rel_identity (t : t) : rel =
  let n = n_states t in
  Array.init n (fun s -> Array.init n (fun s' -> s = s'))

let rel_of_event (t : t) (event : string) : rel =
  let n = n_states t in
  Array.init n (fun s ->
      let s' = step t s event in
      Array.init n (fun j -> j = s'))

(* [rel_compose a b] relates s to s'' iff a takes s to some s' and b takes
   s' to s'': "first a, then b". *)
let rel_compose (a : rel) (b : rel) : rel =
  let n = Array.length a in
  Array.init n (fun s ->
      let row = Array.make n false in
      for s' = 0 to n - 1 do
        if a.(s).(s') then
          for s'' = 0 to n - 1 do
            if b.(s').(s'') then row.(s'') <- true
          done
      done;
      row)

let rel_join (a : rel) (b : rel) : rel =
  let n = Array.length a in
  Array.init n (fun s -> Array.init n (fun s' -> a.(s).(s') || b.(s).(s')))

let rel_equal (a : rel) (b : rel) : bool =
  let n = Array.length a in
  n = Array.length b
  &&
  (try
     for s = 0 to n - 1 do
       for s' = 0 to n - 1 do
         if a.(s).(s') <> b.(s).(s') then raise Exit
       done
     done;
     true
   with Exit -> false)

let rel_leq (a : rel) (b : rel) : bool = rel_equal (rel_join a b) b

(* Image of a state set under a relation. *)
let rel_apply (r : rel) (states : bool array) : bool array =
  let n = Array.length r in
  let out = Array.make n false in
  Array.iteri
    (fun s live -> if live then
        for s' = 0 to n - 1 do
          if r.(s).(s') then out.(s') <- true
        done)
    states;
  out

(* Reflexive-transitive closure over every event of the property: the
   effect of an unknown/unbounded event sequence, used for objects that
   escape the summary's view (stored to a field, aliased, passed to a
   library).  Over-approximates any concrete behavior. *)
let rel_universal (t : t) : rel =
  let r = ref (rel_identity t) in
  let one_step =
    List.fold_left
      (fun acc e -> rel_join acc (rel_of_event t e))
      (rel_identity t) t.events
  in
  let continue = ref true in
  while !continue do
    let next = rel_join !r (rel_compose !r one_step) in
    if rel_equal next !r then continue := false else r := next
  done;
  !r

let rel_to_string (t : t) (r : rel) : string =
  let buf = Buffer.create 64 in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun s' b ->
          if b then begin
            if Buffer.length buf > 0 then Buffer.add_char buf ' ';
            Buffer.add_string buf
              (Printf.sprintf "%s->%s" (state_name t s) (state_name t s'))
          end)
        row)
    r;
  Buffer.contents buf

let pp ppf (t : t) =
  Fmt.pf ppf "@[<v>FSM %s tracking %a@ initial=%s accepting={%a}@]" t.name
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    t.tracked_classes
    (state_name t t.initial)
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    (List.map (state_name t) t.accepting)
