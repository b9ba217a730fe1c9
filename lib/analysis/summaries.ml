(* The summary tier's interprocedural typestate summaries.

   A flow-sensitive, path- and context-insensitive abstraction of FSM
   properties over the whole program, computed bottom-up over the call-graph
   SCC condensation ([analyze]).  Each abstract object carries,
   for every property that tracks it, a transfer relation over that
   property's states ([Fsm.rel]): the join, over every path reaching the
   current point, of the composition of the event effects applied so far.
   Per-method summaries map each parameter to its relations between entry
   and normal return (plus partial relations covering exception exits, and
   an escape bit) and describe the objects a method can return, so call
   sites apply callee effects instead of inlining.

   One walk computes every property at once (a product domain); each
   property's result is the projection of the product onto the origins it
   tracks, equal to what a walk for that property alone would compute
   (DESIGN.md gives the argument).

   Everything joins: paths (at CFG merges), contexts (one summary per
   method), and aliases (an uncertain receiver applies an event *weakly*,
   id ∪ effect, so the "event did not happen" outcome survives).  The
   abstraction therefore over-approximates the set of event sequences the
   path-sensitive engine can realize for any allocation — which is what
   makes the pipeline's summary pre-filter sound: if no abstract sequence
   reaches the FSM error state and no abstract end-of-life state is
   non-accepting, the engine can report neither an error nor a leak for
   that allocation, and it can be dropped before graph generation. *)

module SM = Map.Make (String)

type origin = Oalloc of int (* allocation sid *) | Oparam of int

module OM = Map.Make (struct
  type t = origin

  let compare = compare
end)

module OS = Set.Make (struct
  type t = origin

  let compare = compare
end)

(* ---------------- allocation registry ---------------- *)

type alloc_site = {
  a_sid : int;
  a_cls : string;
  a_at : Jir.Ast.pos;
  a_meth : string;  (* qualified id of the method containing the allocation *)
}

let alloc_sites (p : Jir.Ast.program) : (int, alloc_site) Hashtbl.t =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (m : Jir.Ast.meth) ->
      let mid = Jir.Ast.meth_id m in
      List.iter
        (fun (s : Jir.Ast.stmt) ->
          match s.Jir.Ast.kind with
          | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rnew (cls, _)))
          | Jir.Ast.Assign (_, Jir.Ast.Rnew (cls, _)) ->
              Hashtbl.replace table s.Jir.Ast.sid
                { a_sid = s.Jir.Ast.sid; a_cls = cls; a_at = s.Jir.Ast.at;
                  a_meth = mid }
          | _ -> ())
        (Jir.Ast.block_stmts m.Jir.Ast.body))
    (Jir.Ast.all_methods p);
  table

(* ---------------- the product lattice ---------------- *)

(* One walk serves every property of the analyzed list.  Relations are
   kept per property, in arrays indexed by the property's position in that
   list; the slot of a property that does not track an object holds
   [untracked], which is never composed and only ever joined with itself.
   Parameters are tracked by every property. *)

let untracked : Fsm.rel = [||]

let tracks (rels : Fsm.rel array) p = Array.length rels.(p) > 0

let rels_join = Array.map2 Fsm.rel_join

let rels_equal a b = a == b || Array.for_all2 Fsm.rel_equal a b

type param_summary = {
  ps_obj : bool;  (* parameter has object type; others never bind *)
  ps_rel : Fsm.rel array;  (* effect between entry and any normal return *)
  ps_partial : Fsm.rel array;
      (* join of effects at every point: exception exits *)
  ps_wild : bool;  (* escapes the summary's view inside the callee *)
}

type summary = {
  s_params : param_summary array;
  s_ret_fresh : (int * Fsm.rel array * bool) list;
      (* allocation sid (here or deeper), accumulated relations, wild;
         sorted by sid for deterministic equality *)
  s_ret_params : int list;  (* parameter indices possibly returned *)
  s_ret_other : bool;
      (* may return something no property tracks: null, an untracked or
         field-loaded value, or a value from an unanalyzed path *)
}

(* Property [p]'s view of "may return something else": besides the shared
   flag, every returned allocation [p] does not track.  [s_ret_fresh] lists
   every allocation a return site's binding holds: an origin leaves the
   object map only at a return's ownership drop, which flows straight to
   the exit. *)
let ret_other (s : summary) p =
  s.s_ret_other
  || List.exists (fun (_, rels, _) -> not (tracks rels p)) s.s_ret_fresh

let summary_equal (a : summary) (b : summary) =
  Array.length a.s_params = Array.length b.s_params
  && Array.for_all2
       (fun p q ->
         p.ps_obj = q.ps_obj && p.ps_wild = q.ps_wild
         && rels_equal p.ps_rel q.ps_rel
         && rels_equal p.ps_partial q.ps_partial)
       a.s_params b.s_params
  && List.length a.s_ret_fresh = List.length b.s_ret_fresh
  && List.for_all2
       (fun (s, r, w) (s', r', w') -> s = s' && w = w' && rels_equal r r')
       a.s_ret_fresh b.s_ret_fresh
  && a.s_ret_params = b.s_ret_params
  && a.s_ret_other = b.s_ret_other

(* ---------------- the per-method abstract domain ---------------- *)

type ostate = {
  o_rels : Fsm.rel array;
  o_wild : bool;
  o_multi : bool;
      (* origin may describe several live objects at once (allocation in a
         loop, repeated calls returning the same site): events then apply
         weakly even through an unaliased variable *)
}

(* A binding holds every origin any property tracks.  Property [p] sees
   only the origins it tracks, and counts the rest as "other". *)
type binding = {
  b_objs : OS.t;
  b_other : bool;  (* may also hold null / an untracked or unknown value *)
}

type env = { vars : binding SM.t; objs : ostate OM.t }

type state = Unreached | Env of env

let unbound = { b_objs = OS.empty; b_other = true }

(* The constants of one analysis, shared by every method's walk. *)
type cx = {
  props : Fsm.t array;
  ident : Fsm.rel array;   (* per property: the identity relation *)
  bottom : Fsm.rel array;  (* per property: the empty relation *)
}

let make_cx (fsms : Fsm.t list) =
  let props = Array.of_list fsms in
  { props;
    ident = Array.map Fsm.rel_identity props;
    bottom =
      Array.map
        (fun f ->
          let n = Fsm.n_states f in
          Array.init n (fun _ -> Array.make n false))
        props }

(* A fresh allocation's relations, or None when no property tracks [cls]. *)
let birth_rels cx cls =
  if Array.exists (fun f -> Fsm.is_tracked f cls) cx.props then
    Some
      (Array.mapi
         (fun p f -> if Fsm.is_tracked f cls then cx.ident.(p) else untracked)
         cx.props)
  else None

let event_rel cx p ev = Fsm.rel_of_event cx.props.(p) ev

let binding env v = Option.value ~default:unbound (SM.find_opt v env.vars)

let set_obj env o st = { env with objs = OM.add o st env.objs }

let wildify env (b : binding) =
  OS.fold
    (fun o env ->
      match OM.find_opt o env.objs with
      | Some st -> set_obj env o { st with o_wild = true }
      | None -> env)
    b.b_objs env

let wildify_expr env (e : Jir.Ast.expr) =
  List.fold_left (fun env y -> wildify env (binding env y)) env
    (Jir.Ast.expr_vars e)

(* Apply each property's effect ([eff p], if any) to the objects a binding
   may reference.  For property [p] the composition is strong (the effect
   definitely happened to the object) only when [p]'s view of the binding
   is exactly one non-multi origin: the binding is not "other", holds one
   origin, and [p] tracks it.  Any aliasing or points-to uncertainty keeps
   the identity in. *)
let apply cx env (b : binding) (eff : int -> Fsm.rel option) =
  if OS.is_empty b.b_objs then env
  else
    let effs = Array.init (Array.length cx.props) eff in
    if Array.for_all Option.is_none effs then env
    else
      let single = (not b.b_other) && OS.cardinal b.b_objs = 1 in
      OS.fold
        (fun o env ->
          match OM.find_opt o env.objs with
          | None -> env
          | Some st ->
              let strong = single && not st.o_multi in
              let rels =
                Array.mapi
                  (fun p r ->
                    match effs.(p) with
                    | Some e when tracks st.o_rels p ->
                        Fsm.rel_compose r
                          (if strong then e else Fsm.rel_join cx.ident.(p) e)
                    | _ -> r)
                  st.o_rels
              in
              set_obj env o { st with o_rels = rels })
        b.b_objs env

(* A new object enters the frame: freshly allocated here, or returned by a
   callee with relations [rels] accumulated since its birth.  If the origin
   is already live, the site now describes several objects at once. *)
let birth env o ~rels ~wild =
  match OM.find_opt o env.objs with
  | None -> set_obj env o { o_rels = rels; o_wild = wild; o_multi = false }
  | Some st ->
      set_obj env o
        { o_rels = rels_join st.o_rels rels;
          o_wild = st.o_wild || wild;
          o_multi = true }

let set_var env v b = { env with vars = SM.add v b env.vars }

let callee_id (c : Jir.Ast.call) =
  Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname

(* Bindings of the positional [Var] arguments; any origin reachable from a
   non-variable argument expression escapes conservatively. *)
let arg_bindings env (c : Jir.Ast.call) : (int * binding) list * env =
  List.fold_left
    (fun (acc, env) (i, arg) ->
      match arg with
      | Jir.Ast.Var y -> ((i, binding env y) :: acc, env)
      | e -> (acc, wildify_expr env e))
    ([], env)
    (List.mapi (fun i a -> (i, a)) c.Jir.Ast.args)

(* Origins shared between several arguments of the same call: the callee
   summary models parameters as distinct objects, so interleaved effects on
   an aliased pair are not covered — those origins go wild. *)
let wildify_shared env (binds : (int * binding) list) =
  let seen = Hashtbl.create 8 in
  let dup = ref OS.empty in
  List.iter
    (fun (_, b) ->
      OS.iter
        (fun o ->
          if Hashtbl.mem seen o then dup := OS.add o !dup
          else Hashtbl.replace seen o ())
        b.b_objs)
    binds;
  wildify env { b_objs = !dup; b_other = false }

(* A defined callee's parameter effects, applied positionally; [rels]
   picks the normal-return or the partial relations. *)
let callee_effects cx env (c : Jir.Ast.call) (summ : summary) rels =
  let env =
    match c.Jir.Ast.recv with
    | Some r -> wildify env (binding env r)
    | None -> env
  in
  let binds, env = arg_bindings env c in
  let env = wildify_shared env binds in
  let env =
    List.fold_left
      (fun env (i, b) ->
        if i < Array.length summ.s_params && summ.s_params.(i).ps_obj then begin
          let ps = summ.s_params.(i) in
          let env = apply cx env b (fun p -> Some (rels ps).(p)) in
          if ps.ps_wild then wildify env b else env
        end
        else wildify env b)
      env binds
  in
  (binds, env)

(* A library call: an instance call is an FSM event on the receiver, which
   on an exceptional edge ([weak]) may or may not have fired; any origin
   passed as an argument escapes into unknown code. *)
let library_call cx ~meth env (c : Jir.Ast.call) ~weak =
  let env = List.fold_left wildify_expr env c.Jir.Ast.args in
  match c.Jir.Ast.recv with
  | None -> env
  | Some r ->
      apply cx env (binding env r) (fun p ->
          Option.map
            (fun ev ->
              let e = event_rel cx p ev in
              if weak then Fsm.rel_join cx.ident.(p) e else e)
            (Fsm.call_event cx.props.(p) ~meth c))

(* Effects of a call at its normal return edge; [bind] receives the result.
   [meth] is the enclosing method, consulted by the event matchers'
   guards. *)
let do_call cx ~lookup ~meth env (c : Jir.Ast.call) ~bind =
  match lookup (callee_id c) with
  | Some summ -> (
      let binds, env = callee_effects cx env c summ (fun ps -> ps.ps_rel) in
      match bind with
      | None -> env
      | Some x ->
          let env, fresh =
            List.fold_left
              (fun (env, os) (sid, rels, wild) ->
                (birth env (Oalloc sid) ~rels ~wild, OS.add (Oalloc sid) os))
              (env, OS.empty) summ.s_ret_fresh
          in
          let ret_os, other =
            List.fold_left
              (fun (os, other) i ->
                match List.assoc_opt i binds with
                | Some b -> (OS.union os b.b_objs, other || b.b_other)
                | None -> (os, true))
              (OS.empty, summ.s_ret_other)
              summ.s_ret_params
          in
          set_var env x { b_objs = OS.union fresh ret_os; b_other = other })
  | None -> (
      let env = library_call cx ~meth env c ~weak:false in
      match bind with Some x -> set_var env x unbound | None -> env)

let do_rhs cx ~lookup ~meth env v (r : Jir.Ast.rhs) (s : Jir.Ast.stmt) =
  match r with
  | Jir.Ast.Rnew (cls, args) -> (
      let env = List.fold_left wildify_expr env args in
      match birth_rels cx cls with
      | Some rels ->
          let o = Oalloc s.Jir.Ast.sid in
          let env = birth env o ~rels ~wild:false in
          set_var env v { b_objs = OS.singleton o; b_other = false }
      | None -> set_var env v unbound)
  | Jir.Ast.Rcall c -> do_call cx ~lookup ~meth env c ~bind:(Some v)
  | Jir.Ast.Rexpr (Jir.Ast.Var y) -> set_var env v (binding env y)
  | Jir.Ast.Rload _ | Jir.Ast.Rnull | Jir.Ast.Rexpr _ -> set_var env v unbound

let init cx (g : Cfg.t) =
  let vars, objs =
    List.fold_left
      (fun (vars, objs) (i, (ty, p)) ->
        match ty with
        | Jir.Ast.Tobj _ ->
            ( SM.add p
                { b_objs = OS.singleton (Oparam i); b_other = false }
                vars,
              OM.add (Oparam i)
                { o_rels = cx.ident; o_wild = false; o_multi = false }
                objs )
        | _ -> (SM.add p { b_objs = OS.empty; b_other = false } vars, objs))
      (SM.empty, OM.empty)
      (List.mapi (fun i pr -> (i, pr)) g.Cfg.meth.Jir.Ast.params)
  in
  Env { vars; objs }

let equal_binding a b =
  a == b || (a.b_other = b.b_other && OS.equal a.b_objs b.b_objs)

let equal_ostate a b =
  a == b
  || a.o_wild = b.o_wild && a.o_multi = b.o_multi
     && rels_equal a.o_rels b.o_rels

let equal a b =
  match (a, b) with
  | Unreached, Unreached -> true
  | Env a, Env b ->
      (a.vars == b.vars || SM.equal equal_binding a.vars b.vars)
      && (a.objs == b.objs || OM.equal equal_ostate a.objs b.objs)
  | _ -> false

let join a b =
  match (a, b) with
  | Unreached, x | x, Unreached -> x
  | Env a', Env b' when a' == b' -> a
  | Env a, Env b ->
      Env
        { vars =
            SM.merge
              (fun _ l r ->
                match (l, r) with
                | Some l, Some r ->
                    Some
                      { b_objs = OS.union l.b_objs r.b_objs;
                        b_other = l.b_other || r.b_other }
                | Some x, None | None, Some x ->
                    (* bound on one side only: the variable may hold
                       anything on the other *)
                    Some { x with b_other = true }
                | None, None -> None)
              a.vars b.vars;
          objs =
            OM.union
              (fun _ l r ->
                Some
                  (if l == r then l
                   else
                     { o_rels = rels_join l.o_rels r.o_rels;
                       o_wild = l.o_wild || r.o_wild;
                       o_multi = l.o_multi || r.o_multi }))
              a.objs b.objs }

let transfer cx ~lookup (g : Cfg.t) node state =
  match state with
  | Unreached -> Unreached
  | Env env -> (
      let meth = g.Cfg.meth in
      match g.Cfg.kinds.(node) with
      | Cfg.Stmt ({ kind = Jir.Ast.Decl (_, v, Some r); _ } as s)
      | Cfg.Stmt ({ kind = Jir.Ast.Assign (v, r); _ } as s) ->
          Env (do_rhs cx ~lookup ~meth env v r s)
      | Cfg.Stmt { kind = Jir.Ast.Decl (_, v, None); _ } ->
          Env (set_var env v unbound)
      | Cfg.Stmt { kind = Jir.Ast.Store (_, _, y); _ } ->
          (* a declared store-pattern event fires before the reference
             escapes into the heap *)
          let env =
            apply cx env (binding env y) (fun p ->
                Option.map (event_rel cx p)
                  (Fsm.store_event cx.props.(p) ~meth ~src:y))
          in
          Env (wildify env (binding env y))
      | Cfg.Stmt { kind = Jir.Ast.Expr c; _ } ->
          Env (do_call cx ~lookup ~meth env c ~bind:None)
      | Cfg.Stmt { kind = Jir.Ast.Return (Some (Jir.Ast.Var y)); _ } ->
          (* a cleanly-returned allocation transfers ownership to the
             caller: drop it here so the exit node does not count it as
             dying in this frame.  Anything uncertain stays, and is then
             both recorded as returned and checked at exit — conservative
             in both directions.  The drop needs no per-property view: a
             property that does not track the origin never sees it. *)
          let env =
            apply cx env (binding env y) (fun p ->
                Option.map (event_rel cx p)
                  (Fsm.return_event cx.props.(p) ~meth y))
          in
          let b = binding env y in
          if (not b.b_other) && OS.cardinal b.b_objs = 1 then
            match OS.choose b.b_objs with
            | Oalloc _ as o -> (
                match OM.find_opt o env.objs with
                | Some st when not st.o_multi ->
                    Env { env with objs = OM.remove o env.objs }
                | _ -> Env env)
            | Oparam _ -> Env env
          else Env env
      | Cfg.Bind (_, _, v) -> Env (set_var env v unbound)
      | _ -> Env env)

(* Exceptional edge out of a call: the callee may have applied any prefix
   of its effects before throwing.  Partial parameter relations contain
   the identity, so plain composition covers "threw before touching it";
   a library event may or may not have fired. *)
let exc cx ~lookup (g : Cfg.t) node state =
  match state with
  | Unreached -> Unreached
  | Env env -> (
      match Cfg.node_call g.Cfg.kinds.(node) with
      | None -> state
      | Some c -> (
          match lookup (callee_id c) with
          | Some summ ->
              Env (snd (callee_effects cx env c summ (fun ps -> ps.ps_partial)))
          | None -> Env (library_call cx ~meth:g.Cfg.meth env c ~weak:true)))

(* ---------------- summarization ---------------- *)

let summary_bottom cx (m : Jir.Ast.meth) =
  { s_params =
      Array.of_list
        (List.map
           (fun (t, _) ->
             { ps_obj = (match t with Jir.Ast.Tobj _ -> true | _ -> false);
               ps_rel = cx.bottom;
               ps_partial = cx.bottom;
               ps_wild = false })
           m.Jir.Ast.params);
    s_ret_fresh = [];
    s_ret_params = [];
    s_ret_other = false }

let summarize cx (g : Cfg.t) (res : state Dataflow.result) : summary =
  let m = g.Cfg.meth in
  let nparams = List.length m.Jir.Ast.params in
  let exit_objs =
    match res.Dataflow.input.(g.Cfg.exit_) with
    | Unreached -> OM.empty
    | Env env -> env.objs
  in
  let param_rels i =
    match OM.find_opt (Oparam i) exit_objs with
    | Some st -> st.o_rels
    | None -> cx.bottom
  in
  (* partial relations and escape: join over every reachable point *)
  let partial = Array.make nparams cx.bottom in
  let wild = Array.make nparams false in
  Array.iter
    (fun state ->
      match state with
      | Unreached -> ()
      | Env env ->
          for i = 0 to nparams - 1 do
            match OM.find_opt (Oparam i) env.objs with
            | Some st ->
                partial.(i) <- rels_join partial.(i) st.o_rels;
                if st.o_wild then wild.(i) <- true
            | None -> ()
          done)
    res.Dataflow.input;
  let s_params =
    Array.of_list
      (List.mapi
         (fun i (ty, _) ->
           { ps_obj = (match ty with Jir.Ast.Tobj _ -> true | _ -> false);
             ps_rel = param_rels i;
             ps_partial = rels_join cx.ident partial.(i);
             ps_wild = wild.(i) })
         m.Jir.Ast.params)
  in
  (* returned objects, from the in-state of every reachable return site *)
  let fresh : (int, Fsm.rel array * bool) Hashtbl.t = Hashtbl.create 8 in
  let ret_params = ref [] in
  let ret_other = ref false in
  for node = 0 to Cfg.n_nodes g - 1 do
    match (g.Cfg.kinds.(node), res.Dataflow.input.(node)) with
    | Cfg.Stmt { kind = Jir.Ast.Return (Some e); _ }, Env env -> (
        match e with
        | Jir.Ast.Var y ->
            let b = binding env y in
            if b.b_other then ret_other := true;
            OS.iter
              (fun o ->
                match o with
                | Oparam i ->
                    if not (List.mem i !ret_params) then
                      ret_params := i :: !ret_params
                | Oalloc sid -> (
                    match OM.find_opt o env.objs with
                    | None -> ()
                    | Some st ->
                        let rels, w =
                          match Hashtbl.find_opt fresh sid with
                          | Some (r, w) ->
                              (rels_join r st.o_rels, w || st.o_wild)
                          | None -> (st.o_rels, st.o_wild)
                        in
                        Hashtbl.replace fresh sid (rels, w)))
              b.b_objs
        | _ -> ret_other := true)
    | _ -> ()
  done;
  let s_ret_fresh =
    Hashtbl.fold (fun sid (rels, w) acc -> (sid, rels, w) :: acc) fresh []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  { s_params;
    s_ret_fresh;
    s_ret_params = List.sort compare !ret_params;
    s_ret_other = !ret_other }

(* ---------------- whole-program analysis ---------------- *)

type alloc_fact = {
  f_site : alloc_site;
  mutable f_tracked : bool;       (* received an origin somewhere *)
  mutable f_may_error : bool;     (* error state abstractly reachable *)
  mutable f_exit_bad : bool;      (* some death point with a non-accepting
                                     state: the engine could report a leak *)
  mutable f_wild : bool;          (* escaped the abstraction's view *)
}

(* One property's view of the product analysis. *)
type result = {
  fsm : Fsm.t;
  prop : int;  (* [fsm]'s slot in every relation array of [summaries] *)
  summaries : (string, summary) Hashtbl.t;  (* shared by every property *)
  facts : alloc_fact list;  (* sorted by allocation sid *)
  n_scc_iterations : int;
}

let any_nonaccepting fsm states =
  let bad = ref false in
  Array.iteri
    (fun s live -> if live && not (Fsm.is_accepting fsm s) then bad := true)
    states;
  !bad

(* Analyze every property of [fsms] in one bottom-up walk and return one
   result per property, in [fsms] order.  [callgraph], built when absent,
   must be [program]'s. *)
let analyze ?callgraph (fsms : Fsm.t list) (program : Jir.Ast.program) :
    result list =
  if fsms = [] then []
  else
    let cx = make_cx fsms in
    let cg =
      match callgraph with
      | Some cg -> cg
      | None -> Jir.Callgraph.build program
    in
    let sites = alloc_sites program in
    let facts = Array.map (fun _ -> Hashtbl.create 64) cx.props in
    let fact p sid =
      match Hashtbl.find_opt facts.(p) sid with
      | Some f -> f
      | None ->
          let f =
            { f_site = Hashtbl.find sites sid;
              f_tracked = false;
              f_may_error = false;
              f_exit_bad = false;
              f_wild = false }
          in
          Hashtbl.replace facts.(p) sid f;
          f
    in
    let record_flow p (st : ostate) sid =
      let f = fact p sid in
      f.f_tracked <- true;
      if st.o_wild then f.f_wild <- true;
      let fsm = cx.props.(p) in
      (* the states the object can be in: the initial state's image, which
         is that row of the relation *)
      let states = st.o_rels.(p).(fsm.Fsm.initial) in
      if states.(fsm.Fsm.error) then f.f_may_error <- true;
      (f, states)
    in
    let flow st sid =
      Array.iteri
        (fun p _ -> if tracks st.o_rels p then ignore (record_flow p st sid))
        cx.props
    in
    let death st sid =
      Array.iteri
        (fun p fsm ->
          if tracks st.o_rels p then begin
            let f, states = record_flow p st sid in
            if any_nonaccepting fsm states then f.f_exit_bad <- true
          end)
        cx.props
    in
    let returned_die (s : summary) =
      List.iter
        (fun (sid, rels, wild) ->
          death { o_rels = rels; o_wild = wild; o_multi = false } sid)
        s.s_ret_fresh
    in
    (* roots: entries, and methods nothing calls *)
    let roots = Hashtbl.create 64 in
    List.iter
      (fun (cls, m) ->
        Hashtbl.replace roots (Jir.Ast.qualified_name ~cls ~meth:m) ())
      program.Jir.Ast.entries;
    List.iter
      (fun id ->
        if Jir.Callgraph.callers cg id = [] then Hashtbl.replace roots id ())
      cg.Jir.Callgraph.method_ids;
    let solve_method ~lookup g =
      let module Solver = Dataflow.Forward (struct
        type t = state

        let bottom = Unreached
        let init = init cx
        let equal = equal
        let join = join
        let transfer = transfer cx ~lookup
        let exc = exc cx ~lookup
      end) in
      Solver.solve g
    in
    (* a method's facts, from its final-round dataflow result *)
    let converged ~lookup (g : Cfg.t) (res : state Dataflow.result) =
      (* every post-effect point: the error state is absorbing, so any
         abstract visit to it survives to wherever the flow is observed *)
      Array.iter
        (fun state ->
          match state with
          | Unreached -> ()
          | Env env ->
              OM.iter
                (fun o st ->
                  match o with Oalloc sid -> flow st sid | Oparam _ -> ())
                env.objs)
        res.Dataflow.output;
      (* death points: local objects still live at an exit of this frame *)
      let deaths node =
        match res.Dataflow.input.(node) with
        | Unreached -> ()
        | Env env ->
            OM.iter
              (fun o st ->
                match o with Oalloc sid -> death st sid | Oparam _ -> ())
              env.objs
      in
      deaths g.Cfg.exit_;
      deaths g.Cfg.exit_exn;
      (* objects returned by a callee whose result is dropped die here *)
      for node = 0 to Cfg.n_nodes g - 1 do
        match (g.Cfg.kinds.(node), res.Dataflow.input.(node)) with
        | Cfg.Stmt { kind = Jir.Ast.Expr c; _ }, Env _ ->
            Option.iter returned_die (lookup (callee_id c))
        | _ -> ()
      done;
      (* objects a root method returns die with the program *)
      let id = Jir.Ast.meth_id g.Cfg.meth in
      if Hashtbl.mem roots id then Option.iter returned_die (lookup id)
    in
    (* the bottom-up solve (paper §2.1): the call graph's SCCs in
       reverse-topological order, callees before callers, each iterated to
       a fixpoint so (mutually) recursive summaries converge from bottom.
       The lattice has finite height and a method's summary is monotone in
       its callees', so this is the least fixpoint.  Summaries are
       context-insensitive: every call site of a method shares its one
       summary, as the paper collapses SCCs *)
    let methods = Hashtbl.create 64 in
    List.iter
      (fun m -> Hashtbl.replace methods (Jir.Ast.meth_id m) m)
      (Jir.Ast.all_methods program);
    let table = Hashtbl.create 64 in
    let lookup id = Hashtbl.find_opt table id in
    let rounds = ref 0 in
    List.iter
      (fun component ->
        (* each member's CFG, built once for all of the component's rounds *)
        let members =
          List.map
            (fun id -> (id, Cfg.build (Hashtbl.find methods id)))
            component
        in
        List.iter
          (fun (id, g) ->
            Hashtbl.replace table id (summary_bottom cx g.Cfg.meth))
          members;
        (* one pass suffices for a non-recursive singleton component: every
           callee lies outside it and is already at fixpoint *)
        let recursive =
          match component with
          | [ id ] -> List.mem id (Jir.Callgraph.callees cg id)
          | _ -> true
        in
        (* a round that changes nothing saw only final summaries, so its
           dataflow results are the converged ones *)
        let rec iterate () =
          incr rounds;
          let changed, results =
            List.fold_left
              (fun (changed, results) (id, g) ->
                let res = solve_method ~lookup g in
                let s' = summarize cx g res in
                let changed =
                  if summary_equal (Hashtbl.find table id) s' then changed
                  else begin
                    Hashtbl.replace table id s';
                    true
                  end
                in
                (changed, (g, res) :: results))
              (false, []) members
          in
          if changed && recursive then iterate () else List.rev results
        in
        List.iter (fun (g, res) -> converged ~lookup g res) (iterate ()))
      (Jir.Callgraph.sccs_reverse_topological cg);
    List.mapi
      (fun p fsm ->
        { fsm;
          prop = p;
          summaries = table;
          facts =
            Hashtbl.fold (fun _ f acc -> f :: acc) facts.(p) []
            |> List.sort (fun a b -> compare a.f_site.a_sid b.f_site.a_sid);
          n_scc_iterations = !rounds })
      fsms

(* Allocations this property can never flag: no abstract event sequence
   reaches the error state, no abstract end-of-life state is non-accepting,
   and the object never escapes the abstraction's view.  The abstraction
   joins over all paths and contexts, so the set of event sequences the
   path-sensitive engine can realize is a subset of the abstract ones —
   pruning these allocations changes no report. *)
let clean (f : alloc_fact) =
  f.f_tracked && (not f.f_may_error) && (not f.f_exit_bad) && not f.f_wild

let clean_sids (r : result) : int list =
  r.facts |> List.filter clean |> List.map (fun f -> f.f_site.a_sid)

(* Deterministic rendering of a whole result, for the byte-identity test.
   Allocation sites print as class@file:line, not raw sids: sids come from
   a global counter, so two structurally identical programs built in the
   same process get different absolute values. *)
let render (r : result) : string =
  let buf = Buffer.create 1024 in
  let site_of =
    let table = Hashtbl.create 16 in
    List.iter (fun f -> Hashtbl.replace table f.f_site.a_sid f.f_site) r.facts;
    fun sid ->
      match Hashtbl.find_opt table sid with
      | Some site ->
          Printf.sprintf "%s@%s:%d" site.a_cls site.a_at.Jir.Ast.file
            site.a_at.Jir.Ast.line
      | None -> "?"
  in
  let ids =
    Hashtbl.fold (fun id _ acc -> id :: acc) r.summaries []
    |> List.sort compare
  in
  List.iter
    (fun id ->
      let s = Hashtbl.find r.summaries id in
      Buffer.add_string buf (Printf.sprintf "method %s\n" id);
      Array.iteri
        (fun i (p : param_summary) ->
          if p.ps_obj then
            Buffer.add_string buf
              (Printf.sprintf "  p%d rel=[%s] partial=[%s] wild=%b\n" i
                 (Fsm.rel_to_string r.fsm p.ps_rel.(r.prop))
                 (Fsm.rel_to_string r.fsm p.ps_partial.(r.prop))
                 p.ps_wild))
        s.s_params;
      List.iter
        (fun (sid, rels, w) ->
          if tracks rels r.prop then
            Buffer.add_string buf
              (Printf.sprintf "  ret alloc:%s rel=[%s] wild=%b\n" (site_of sid)
                 (Fsm.rel_to_string r.fsm rels.(r.prop))
                 w))
        s.s_ret_fresh;
      if s.s_ret_params <> [] then
        Buffer.add_string buf
          (Printf.sprintf "  ret params=[%s]\n"
             (String.concat ","
                (List.map string_of_int s.s_ret_params)));
      if ret_other s r.prop then Buffer.add_string buf "  ret other\n")
    ids;
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf
           "alloc %s in %s error=%b exit_bad=%b wild=%b\n"
           (site_of f.f_site.a_sid) f.f_site.a_meth
           f.f_may_error f.f_exit_bad f.f_wild))
    r.facts;
  Buffer.contents buf
