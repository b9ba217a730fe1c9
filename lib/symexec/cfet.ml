(* Control-flow execution trees (paper §3.1).

   A CFET is a binary tree of "extended basic blocks" built by symbolically
   executing a loop-free method body.  Non-leaf nodes end at a control-flow
   divergence and carry the symbolic condition guarding it; leaves end at a
   method exit (return, or an exception with no matching handler).  Node ids
   follow the paper's Eytzinger-style numbering: the root is 0, the false
   child of node n is 2n+1 and its true child is 2n+2, so the parent of any
   node is (id - 1) / 2 and an id interval identifies a unique tree path.

   Exceptions are part of the tree: a [throw] transfers control into the
   innermost matching handler (within the same node -- no divergence), and a
   call that may throw ends the node with a nondeterministic divergence whose
   true child re-executes the call normally and whose false child enters the
   handler (or an exceptional leaf).  The divergence condition is "e = 0"
   over a fresh symbol e, satisfiable on both sides. *)

module Symbol = Smt.Symbol
module Linexpr = Smt.Linexpr
module Formula = Smt.Formula
module Solver = Smt.Solver
module Encoding = Pathenc.Encoding


type exit_kind =
  | Normal of Linexpr.t option  (* symbolic return value, if any *)
  | Exceptional of string       (* escaping exception class *)

(* A call to a method defined in the program, recorded in the node that
   contains the call statement; the ICFET turns these into call/return
   edges. *)
type call_info = {
  call_stmt : Jir.Ast.stmt;
  callee_id : string;
  arg_values : Linexpr.t list;    (* symbolic arguments at the site *)
  lhs : (Jir.Ast.var * Symbol.t) option;  (* variable receiving the result *)
  diverges : bool;
      (* the call heads the true child of a may-throw divergence, whose
         false sibling receives the exception *)
}

type node = {
  id : int;
  stmts : Jir.Ast.stmt list;      (* execution order *)
  cond : Formula.t option;        (* Some iff the node has children *)
  t_child : int option;
  f_child : int option;
  exit : exit_kind option;        (* Some iff the node is a leaf *)
  calls : call_info list;         (* in execution order *)
}

type t = {
  meth : Jir.Ast.meth;
  meth_idx : int;                 (* dense index used by encodings *)
  nodes : (int, node) Hashtbl.t;
  node_count : int;
  leaves : int list;              (* leaf ids *)
  depth : int;
}

exception Too_large of string  (* method id *)

type config = {
  max_nodes_per_method : int;
  may_throw : Jir.Ast.call -> string option;
      (* exception class a call can raise, if any *)
}

(* Calls that may throw according to method signatures declared in the
   program, the paper's default behaviour for analyzed code. *)
let may_throw_of_program (p : Jir.Ast.program) : Jir.Ast.call -> string option =
  let idx = Jir.Ast.index p in
  fun c ->
    match
      Jir.Ast.find_method_idx idx ~cls:c.Jir.Ast.target_class
        ~meth:c.Jir.Ast.mname
    with
    | Some m -> (match m.Jir.Ast.throws with e :: _ -> Some e | [] -> None)
    | None -> None

let default_config (p : Jir.Ast.program) =
  { max_nodes_per_method = 200_000; may_throw = may_throw_of_program p }

let parent_id id = (id - 1) / 2
let is_true_child id = id mod 2 = 0
let node t id = Hashtbl.find t.nodes id

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)
(* ------------------------------------------------------------------ *)

(* Continuation of the walk: statement lists stacked with markers recording
   where a try block's handler scope ends. *)
type work =
  | Stmts of Jir.Ast.block * work
  | Pop of work
  | Done

type handler_frame = Jir.Ast.catch list * work

let catch_matches ~thrown (c : Jir.Ast.catch) =
  c.Jir.Ast.exn_class = thrown || c.Jir.Ast.exn_class = "Exception"

(* Where does an exception of class [thrown] go?  Either into a handler
   (continuation + remaining handler stack) or out of the method. *)
let rec handler_continuation ~thrown (handlers : handler_frame list) =
  match handlers with
  | [] -> `Escapes
  | (catches, kont) :: tl -> (
      match List.find_opt (catch_matches ~thrown) catches with
      | Some c -> `Handler (Stmts (c.Jir.Ast.handler, kont), tl)
      | None -> handler_continuation ~thrown tl)

let build ~(config : config) ~meth_idx (m : Jir.Ast.meth) : t =
  let meth_id = Jir.Ast.meth_id m in
  let nodes = Hashtbl.create 64 in
  let count = ref 0 in
  let leaves = ref [] in
  let max_depth = ref 0 in
  let depth_of id =
    (* number of edges from the root: position of the highest set bit of
       id+1, minus one *)
    let rec go id acc = if id = 0 then acc else go (parent_id id) (acc + 1) in
    go id 0
  in
  let register n =
    incr count;
    if !count > config.max_nodes_per_method then raise (Too_large meth_id);
    Hashtbl.replace nodes n.id n;
    let d = depth_of n.id in
    if d > !max_depth then max_depth := d;
    if n.exit <> None then leaves := n.id :: !leaves
  in
  let finalize_leaf ~id ~stmts ~calls exit =
    register
      { id; stmts = List.rev stmts; cond = None; t_child = None;
        f_child = None; exit = Some exit; calls = List.rev calls }
  in
  let finalize_branch ~id ~stmts ~calls cond =
    register
      { id; stmts = List.rev stmts; cond = Some cond;
        t_child = Some ((2 * id) + 2); f_child = Some ((2 * id) + 1);
        exit = None; calls = List.rev calls }
  in
  (* [go] accumulates one extended basic block (in reverse) until the walk
     hits a divergence or an exit. *)
  let rec go ~id ~env ~stmts ~calls work handlers =
    match work with
    | Done -> finalize_leaf ~id ~stmts ~calls (Normal None)
    | Pop k -> (
        match handlers with
        | _ :: tl -> go ~id ~env ~stmts ~calls k tl
        | [] -> assert false)
    | Stmts ([], k) -> go ~id ~env ~stmts ~calls k handlers
    | Stmts (s :: ss, k) -> step ~id ~env ~stmts ~calls s (Stmts (ss, k)) handlers

  and step ~id ~env ~stmts ~calls (s : Jir.Ast.stmt) rest handlers =
    let continue ?(stmt = true) ?(calls = calls) env =
      go ~id ~env ~stmts:(if stmt then s :: stmts else stmts) ~calls rest
        handlers
    in
    match s.Jir.Ast.kind with
    | Jir.Ast.While _ ->
        invalid_arg
          (Printf.sprintf "Cfet.build: %s still contains a loop; run \
                           Unroll.unroll_program first" meth_id)
    | Jir.Ast.Store _ -> continue env
    | Jir.Ast.Decl (_, _, None) -> continue env
    | Jir.Ast.Decl (_, v, Some r) | Jir.Ast.Assign (v, r) ->
        assignment ~id ~env ~stmts ~calls s v r rest handlers
    | Jir.Ast.Expr c -> call_effect ~id ~env ~stmts ~calls s ~lhs:None c rest handlers
    | Jir.Ast.Return e ->
        let ret = Option.map (Symenv.eval env ~meth_id) e in
        finalize_leaf ~id ~stmts:(s :: stmts) ~calls (Normal ret)
    | Jir.Ast.Throw thrown -> (
        match handler_continuation ~thrown handlers with
        | `Escapes ->
            finalize_leaf ~id ~stmts:(s :: stmts) ~calls (Exceptional thrown)
        | `Handler (work, handlers) ->
            go ~id ~env ~stmts:(s :: stmts) ~calls work handlers)
    | Jir.Ast.If (c, t, f) ->
        (* the conditional lives in [cond]; the branch blocks live in the
           children, so the If statement itself is not part of the node *)
        let cond = Symenv.eval_cond env ~meth_id c in
        finalize_branch ~id ~stmts ~calls cond;
        go ~id:((2 * id) + 2) ~env ~stmts:[] ~calls:[] (Stmts (t, rest))
          handlers;
        go ~id:((2 * id) + 1) ~env ~stmts:[] ~calls:[] (Stmts (f, rest))
          handlers
    | Jir.Ast.Try (b, catches) ->
        go ~id ~env ~stmts ~calls
          (Stmts (b, Pop rest))
          ((catches, rest) :: handlers)

  and assignment ~id ~env ~stmts ~calls s v (r : Jir.Ast.rhs) rest handlers =
    let continue env =
      go ~id ~env ~stmts:(s :: stmts) ~calls rest handlers
    in
    match r with
    | Jir.Ast.Rexpr e -> continue (Symenv.bind env v (Symenv.eval env ~meth_id e))
    | Jir.Ast.Rnull -> continue env
    | Jir.Ast.Rload _ ->
        continue
          (Symenv.bind env v
             (Linexpr.var (Symenv.unknown_symbol ~meth_id v ~sid:s.Jir.Ast.sid)))
    | Jir.Ast.Rnew (cls, args) ->
        (* constructor: behaves like a static call to <init> when defined *)
        let c =
          { Jir.Ast.recv = None; target_class = cls; mname = "<init>"; args }
        in
        call_effect ~id ~env ~stmts ~calls s ~lhs:(Some (v, `Object)) c rest
          handlers
    | Jir.Ast.Rcall c ->
        call_effect ~id ~env ~stmts ~calls s ~lhs:(Some (v, `Value)) c rest
          handlers

  and call_effect ~id ~env ~stmts ~calls (s : Jir.Ast.stmt) ~lhs c rest handlers =
    let arg_values = List.map (Symenv.eval env ~meth_id) c.Jir.Ast.args in
    let callee_id =
      Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname
    in
    let lhs_binding env =
      match lhs with
      | None -> env
      | Some (v, _) ->
          Symenv.bind env v
            (Linexpr.var (Symenv.unknown_symbol ~meth_id v ~sid:s.Jir.Ast.sid))
    in
    let lhs_info =
      match lhs with
      | None -> None
      | Some (v, _) ->
          Some (v, Symenv.unknown_symbol ~meth_id v ~sid:s.Jir.Ast.sid)
    in
    match config.may_throw c with
    | None ->
        let call_record =
          { call_stmt = s; callee_id; arg_values; lhs = lhs_info;
            diverges = false }
        in
        let calls = call_record :: calls in
        go ~id ~env:(lhs_binding env) ~stmts:(s :: stmts) ~calls rest handlers
    | Some thrown ->
        (* End the node before the call: the true child performs the call
           (event observed), the false child takes the exceptional route. *)
        let call_record =
          { call_stmt = s; callee_id; arg_values; lhs = lhs_info;
            diverges = true }
        in
        let e = Symbol.fresh "exn" in
        let cond = Formula.eq (Linexpr.var e) Linexpr.zero in
        finalize_branch ~id ~stmts ~calls cond;
        go ~id:((2 * id) + 2) ~env:(lhs_binding env) ~stmts:[ s ]
          ~calls:[ call_record ] rest handlers;
        let fid = (2 * id) + 1 in
        (match handler_continuation ~thrown handlers with
        | `Escapes ->
            finalize_leaf ~id:fid ~stmts:[] ~calls:[] (Exceptional thrown)
        | `Handler (work, handlers) ->
            go ~id:fid ~env ~stmts:[] ~calls:[] work handlers)
  in
  let env = Symenv.init_for_method m in
  go ~id:0 ~env ~stmts:[] ~calls:[] (Stmts (m.Jir.Ast.body, Done)) [];
  { meth = m; meth_idx; nodes; node_count = !count; leaves = !leaves;
    depth = !max_depth }

(* ------------------------------------------------------------------ *)
(* Queries used by path decoding and graph generation.                 *)
(* ------------------------------------------------------------------ *)

(* Branch constraints along the tree path [first .. last]; [first] must be an
   ancestor of [last].  The constraint of the step parent -> child is the
   parent's condition (true child) or its negation (false child).  This is
   Algorithm 1 of the paper generalized to signed branches. *)
let path_constraint (t : t) ~first ~last : Formula.t =
  let rec walk cur acc =
    if cur = first then acc
    else if cur < first || cur <= 0 then
      invalid_arg
        (Printf.sprintf "Cfet.path_constraint: %d is not an ancestor of %d"
           first last)
    else
      let p = parent_id cur in
      let pnode = node t p in
      let c =
        match pnode.cond with
        | Some c -> c
        | None -> assert false (* inner nodes always carry a condition *)
      in
      let c = if is_true_child cur then c else Formula.not_ c in
      walk p (Formula.and_ acc c)
  in
  walk last Formula.True

let rec path_to_root (t : t) id acc =
  if id = 0 then 0 :: acc else path_to_root t (parent_id id) (id :: acc)

let pp ppf (t : t) =
  let rec dump ppf id =
    let n = node t id in
    let pp_stmt ppf s = Jir.Pp.stmt 0 ppf s in
    Fmt.pf ppf "@[<v 2>node %d:%a%a@]" id
      (fun ppf () ->
        List.iter (fun s -> Fmt.pf ppf "@ %a" pp_stmt s) n.stmts)
      ()
      (fun ppf () ->
        match (n.cond, n.exit) with
        | Some c, _ ->
            Fmt.pf ppf "@ if %a@ @[<v 2>T:@ %a@]@ @[<v 2>F:@ %a@]" Formula.pp c
              dump (Option.get n.t_child) dump (Option.get n.f_child)
        | None, Some (Normal _) -> Fmt.pf ppf "@ exit(normal)"
        | None, Some (Exceptional e) -> Fmt.pf ppf "@ exit(throws %s)" e
        | None, None -> assert false)
      ()
  in
  dump ppf 0
