(* Escape pre-filter for FSM-tracked allocations.

   The phase-1/2 closures dominate pipeline cost, and they are only needed
   for objects whose typestate genuinely depends on aliasing or on
   interprocedural flow.  An allocation whose reference provably never
   escapes its method — never stored to a field, never passed as a call
   argument, never returned, never aliased into another local — has a
   typestate determined entirely by the instance calls on that one variable
   inside that one method.  For such allocations we read the method's paths
   off its CFET — every normal leaf below the allocation, with the
   variable's calls along the way and the leaf's path constraint — and let
   the pipeline run the FSM directly over those sequences instead of
   shipping the object into the alias and dataflow graphs.

   Qualification is deliberately strict; anything the quick syntactic
   argument cannot justify stays on the engine path:

   - the enclosing method contains no [While] (callers unroll first) and no
     [Try]/[Throw], so the local path structure is exactly the If-tree.
     Library calls that may throw are fine: with no handler in the method,
     the exceptional side of the CFET's may-throw divergence is a leaf that
     never reaches a normal exit (the engine reports leaks at normal exits
     only) and observes the event on the non-throwing side only, so the
     normal leaves carry exactly the event sequences the engine would see;
   - the variable has exactly one definition: the candidate [Rnew];
   - the variable never occurs in an expression, as a call argument, as a
     store source or target, as a load base, in a return, or as the
     receiver of a call to a *defined* method (receivers of library calls
     are the FSM events and are allowed);
   - the method has at most [max_paths] normal leaves.

   Path constraints are the CFET's own, so feasibility decisions agree with
   the engine: an infeasible local path is discarded by the same SMT check
   the closure would have applied. *)

module Cfet = Symexec.Cfet

type path = {
  events : Jir.Ast.stmt list;
      (* the variable's calls after the allocation, in order.  The pipeline
         resolves each against the property's event matcher at replay time,
         so one path list serves every FSM (name-matching or declared). *)
  cond : Smt.Formula.t;  (* the leaf's path constraint *)
}

type resolved = {
  meth_id : string;
  meth : Jir.Ast.meth;    (* enclosing method, for event-guard evaluation *)
  cls : string;
  sid : int;              (* allocation statement id (post-unroll) *)
  var : Jir.Ast.var;
  at : Jir.Ast.pos;
  paths : path list;      (* every complete local path through the alloc *)
}

let max_paths = 512

(* ---------------- qualification ---------------- *)

(* The method shape whose normal leaves are its local paths: straight-line
   code and If-trees, with no handlers and no local throws. *)
let method_qualifies (m : Jir.Ast.meth) =
  List.for_all
    (fun (s : Jir.Ast.stmt) ->
      match s.Jir.Ast.kind with
      | Jir.Ast.While _ | Jir.Ast.Try _ | Jir.Ast.Throw _ -> false
      | _ -> true)
    (Jir.Ast.block_stmts m.Jir.Ast.body)

let expr_mentions v e = List.mem v (Jir.Ast.expr_vars e)
let cond_mentions v c = List.mem v (Jir.Ast.cond_vars c)

(* Would [s] let the reference in [v] escape (or alias) beyond the events
   its paths record?  [defined] answers whether a call target is a
   program method. *)
let stmt_disqualifies ~defined v (s : Jir.Ast.stmt) =
  let call_bad (c : Jir.Ast.call) =
    List.exists (expr_mentions v) c.Jir.Ast.args
    || (c.Jir.Ast.recv = Some v
        && defined ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname)
  in
  let rhs_bad (r : Jir.Ast.rhs) =
    match r with
    | Jir.Ast.Rnew (_, args) -> List.exists (expr_mentions v) args
    | Jir.Ast.Rload (y, _) -> y = v
    | Jir.Ast.Rcall c -> call_bad c
    | Jir.Ast.Rexpr e -> expr_mentions v e
    | Jir.Ast.Rnull -> false
  in
  match s.Jir.Ast.kind with
  | Jir.Ast.Decl (_, _, Some r) | Jir.Ast.Assign (_, r) -> rhs_bad r
  | Jir.Ast.Store (x, _, y) -> x = v || y = v
  | Jir.Ast.Expr c -> call_bad c
  | Jir.Ast.Return (Some e) -> expr_mentions v e
  | Jir.Ast.If (c, _, _) | Jir.Ast.While (c, _) -> cond_mentions v c
  | _ -> false

let defs_of v (s : Jir.Ast.stmt) =
  match s.Jir.Ast.kind with
  | Jir.Ast.Decl (_, x, Some _) | Jir.Ast.Assign (x, _) -> x = v
  | _ -> false

(* ---------------- local paths ---------------- *)

let is_call_on v (s : Jir.Ast.stmt) =
  match s.Jir.Ast.kind with
  | Jir.Ast.Expr c
  | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rcall c))
  | Jir.Ast.Assign (_, Jir.Ast.Rcall c) ->
      c.Jir.Ast.recv = Some v
  | _ -> false

let is_normal_leaf cfet id =
  match (Cfet.node cfet id).Cfet.exit with
  | Some (Cfet.Normal _) -> true
  | Some (Cfet.Exceptional _) | None -> false

(* Every normal leaf of [cfet] whose path runs the allocation [sid], with
   [var]'s calls after it.  The walk takes the true child (2n+2) first and
   conses each path, so the list is in reverse walk order; empty when the
   method has more than [max_paths] normal leaves. *)
let local_paths (cfet : Cfet.t) ~sid ~var : path list =
  let rec walk id seen events acc =
    let n = Cfet.node cfet id in
    let seen, events =
      List.fold_left
        (fun (seen, events) (s : Jir.Ast.stmt) ->
          if s.Jir.Ast.sid = sid then (true, events)
          else if seen && is_call_on var s then (seen, s :: events)
          else (seen, events))
        (seen, events) n.Cfet.stmts
    in
    match (n.Cfet.t_child, n.Cfet.f_child, n.Cfet.exit) with
    | Some t, Some f, _ -> walk f seen events (walk t seen events acc)
    | _, _, Some (Cfet.Normal _) when seen ->
        { events = List.rev events;
          cond = Cfet.path_constraint cfet ~first:0 ~last:id }
        :: acc
    | _ -> acc (* an exceptional leaf, or a path that skips the alloc *)
  in
  if List.length (List.filter (is_normal_leaf cfet) cfet.Cfet.leaves)
     > max_paths
  then []
  else walk 0 false [] []

(* ---------------- driver ---------------- *)

(* [analyze ~tracked ~cfet program] over the *unrolled* program: every
   allocation of a tracked class that provably stays local to its method,
   with its local paths.  [cfet] looks a method's CFET up by method id; it
   is consulted only for allocations that qualify. *)
let analyze ~tracked ~(cfet : string -> Cfet.t) (program : Jir.Ast.program)
    : resolved list =
  let idx = Jir.Ast.index program in
  let defined ~cls ~meth = Jir.Ast.find_method_idx idx ~cls ~meth <> None in
  Jir.Ast.all_methods program
  |> List.concat_map (fun (m : Jir.Ast.meth) ->
         if not (method_qualifies m) then []
         else
           let meth_id = Jir.Ast.meth_id m in
           let stmts = Jir.Ast.block_stmts m.Jir.Ast.body in
           stmts
           |> List.filter_map (fun (s : Jir.Ast.stmt) ->
                  match s.Jir.Ast.kind with
                  | Jir.Ast.Decl (_, v, Some (Jir.Ast.Rnew (cls, _)))
                    when tracked cls
                         && List.length (List.filter (defs_of v) stmts) = 1
                         && not
                              (List.exists (stmt_disqualifies ~defined v)
                                 stmts) -> (
                      match
                        local_paths (cfet meth_id) ~sid:s.Jir.Ast.sid ~var:v
                      with
                      | [] -> None (* over the path cap, or alloc never runs *)
                      | paths ->
                          Some
                            { meth_id; meth = m; cls; sid = s.Jir.Ast.sid;
                              var = v; at = s.Jir.Ast.at; paths })
                  | _ -> None))
