(* Generation of the program graph for the pointer/alias analysis
   (paper §4.1, Figure 5b).

   Vertices are per-CFET-node variable instances and per-allocation-site
   objects, replicated per method clone.  Edges come from assignments (rules
   of Figure 4a), from "artificial" assignments threading a variable from
   the CFET node of its previous occurrence to the node of its next use, and
   from parameter-passing / value-return connections between clones.  Every
   edge carries its path encoding: a one-interval sequence for
   intra-method edges, a single call (return) edge id for parameter
   (value-return) edges.

   The construction is template-based: edges are computed once per method
   against CFET node ids, then stamped once per clone instance, which is
   exactly the bottom-up inlining of §4.1 without materializing intermediate
   graphs. *)

module Encoding = Pathenc.Encoding
module Symbol = Smt.Symbol
module Icfet = Symexec.Icfet
module Cfet = Symexec.Cfet

(* Implicit receiver parameter: instance calls pass the receiver as [this],
   matching how Java frontends (Soot) expose it. *)
let this_var = "this"

(* The pseudo-class of [null] pseudo-allocations, trackable by FSM
   specifications (used by the null-dereference checker). *)
let null_class = "<null>"

type vref =
  | Vvar of string * int * int  (* variable, CFET node, version (Varver) *)
  | Vobj of int * int           (* allocation statement at CFET node *)

type tedge = {
  tsrc : vref;
  tdst : vref;
  tlabel : Cfl.Pointer_grammar.t;
  first : int;  (* encoding interval [first, last] in this method *)
  last : int;
}

type boundary =
  | Param of {
      arg_var : string;
      arg_version : int;
      caller_node : int;
      call_id : int;
      formal : string;
    }
  | Ret_val of {
      ret_var : string;
      ret_version : int;
      leaf : int;
      call_id : int;
      lhs_var : string;
      lhs_version : int;
      caller_node : int;
    }

type alloc_site = { sid : int; cls : string; at : Jir.Ast.pos; node : int }

type mtemplate = {
  medges : tedge list;
  bounds : boundary list;
  allocs : alloc_site list;
}

type vertex_info =
  | Var_vertex of { inst : int; var : string; node : int; version : int; meth : int }
  | Obj_vertex of {
      inst : int;
      sid : int;
      cls : string;
      node : int;
      meth : int;
      at : Jir.Ast.pos;
    }

type edge = { src : int; dst : int; label : Cfl.Pointer_grammar.t; enc : Encoding.t }

type t = {
  icfet : Icfet.t;
  clones : Clone_tree.t;
  mutable n_vertices : int;
  mutable info : vertex_info array;
  index : (int * int * int * int, int) Hashtbl.t;
      (* (inst, tag, node, name/sid) -> vertex id; tag 0 = var, 1 = obj *)
  mutable edges : edge list;
  mutable n_edges : int;
  mutable objects : int list;  (* object vertex ids *)
}

let field_id f = Symbol.intern ("field:" ^ f)

(* ------------------------------------------------------------------ *)
(* Per-method templates.                                               *)
(* ------------------------------------------------------------------ *)

(* The receiver whose object flows into the callee as [this]: explicit for
   instance calls, the allocation's target variable for constructors. *)
let receiver_of_call_stmt (s : Jir.Ast.stmt) : string option =
  match s.Jir.Ast.kind with
  | Jir.Ast.Expr c -> c.Jir.Ast.recv
  | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rcall c))
  | Jir.Ast.Assign (_, Jir.Ast.Rcall c) ->
      c.Jir.Ast.recv
  | Jir.Ast.Decl (_, v, Some (Jir.Ast.Rnew _)) | Jir.Ast.Assign (v, Jir.Ast.Rnew _)
    ->
      Some v
  | _ -> None

let lhs_of_call_stmt (s : Jir.Ast.stmt) : string option =
  match s.Jir.Ast.kind with
  | Jir.Ast.Decl (_, v, Some (Jir.Ast.Rcall _))
  | Jir.Ast.Assign (v, Jir.Ast.Rcall _) ->
      Some v
  | _ -> None

let args_of_call_stmt (s : Jir.Ast.stmt) : Jir.Ast.expr list =
  match s.Jir.Ast.kind with
  | Jir.Ast.Expr c
  | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rcall c))
  | Jir.Ast.Assign (_, Jir.Ast.Rcall c) ->
      c.Jir.Ast.args
  | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rnew (_, args)))
  | Jir.Ast.Assign (_, Jir.Ast.Rnew (_, args)) ->
      args
  | _ -> []

let build_template ~track_null ~exclude (icfet : Icfet.t) (meth_idx : int) :
    mtemplate =
  let cfet = Icfet.cfet icfet meth_idx in
  let formals =
    this_var :: List.map snd cfet.Cfet.meth.Jir.Ast.params
  in
  let medges = ref [] in
  let bounds = ref [] in
  let allocs = ref [] in
  let emit tsrc tdst tlabel first last =
    medges := { tsrc; tdst; tlabel; first; last } :: !medges
  in
  (* per-node versioning (kills are exact along a tree path) *)
  let vv : (int, Varver.t) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun node_id (n : Cfet.node) ->
      Hashtbl.replace vv node_id (Varver.analyze n.Cfet.stmts))
    cfet.Cfet.nodes;
  let node_occurs node_id var =
    (node_id = 0 && List.mem var formals)
    || Varver.occurs (Hashtbl.find vv node_id) ~var
  in
  let node_last node_id var = Varver.last (Hashtbl.find vv node_id) ~var in
  (* statement-level edges, per node *)
  Hashtbl.iter
    (fun node_id (n : Cfet.node) ->
      let ver = Hashtbl.find vv node_id in
      let use var ~sid = Vvar (var, node_id, Varver.use ver ~sid ~var) in
      let def var ~sid = Vvar (var, node_id, Varver.def ver ~sid ~var) in
      List.iter
        (fun (s : Jir.Ast.stmt) ->
          let sid = s.Jir.Ast.sid in
          match s.Jir.Ast.kind with
          | Jir.Ast.Decl (_, v, Some r) | Jir.Ast.Assign (v, r) -> (
              match r with
              | Jir.Ast.Rnew (cls, _) ->
                  (* the def version must be registered even for excluded
                     allocations so the variable's version numbering (and
                     every other edge) is unchanged by the pre-filter *)
                  let dst = def v ~sid in
                  if not (exclude sid) then begin
                    allocs :=
                      { sid; cls; at = s.Jir.Ast.at; node = node_id } :: !allocs;
                    emit (Vobj (sid, node_id)) dst
                      Cfl.Pointer_grammar.New node_id node_id
                  end
              | Jir.Ast.Rexpr (Jir.Ast.Var y) ->
                  emit (use y ~sid) (def v ~sid) Cfl.Pointer_grammar.Assign
                    node_id node_id
              | Jir.Ast.Rload (y, f) ->
                  emit (use y ~sid) (def v ~sid)
                    (Cfl.Pointer_grammar.Load (field_id f))
                    node_id node_id
              | Jir.Ast.Rnull when track_null ->
                  (* null is a trackable pseudo-allocation: the null-deref
                     checker follows its flow like any other object.  Only
                     materialized when a null-tracking property is active:
                     the extra sources enlarge the alias closure for every
                     other checker otherwise. *)
                  allocs :=
                    { sid; cls = null_class; at = s.Jir.Ast.at; node = node_id }
                    :: !allocs;
                  emit (Vobj (sid, node_id)) (def v ~sid)
                    Cfl.Pointer_grammar.New node_id node_id
              | Jir.Ast.Rcall _ | Jir.Ast.Rexpr _ | Jir.Ast.Rnull -> ())
          | Jir.Ast.Store (x, f, y) ->
              emit (use y ~sid) (use x ~sid)
                (Cfl.Pointer_grammar.Store (field_id f))
                node_id node_id
          | _ -> ())
        n.Cfet.stmts;
      (* boundaries for calls to methods defined in the program *)
      List.iter
        (fun (ci : Cfet.call_info) ->
          match Icfet.meth_idx icfet ci.Cfet.callee_id with
          | None -> ()
          | Some callee_idx -> (
              match
                Icfet.call_id_of_site icfet ~meth:meth_idx ~node:node_id
                  ~sid:ci.Cfet.call_stmt.Jir.Ast.sid
              with
              | None -> ()
              | Some call_id ->
                  let callee_cfet = Icfet.cfet icfet callee_idx in
                  let stmt = ci.Cfet.call_stmt in
                  let sid = stmt.Jir.Ast.sid in
                  (* receiver -> this *)
                  (match receiver_of_call_stmt stmt with
                  | Some r ->
                      let version =
                        (* for constructors the receiver IS the definition *)
                        match stmt.Jir.Ast.kind with
                        | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rnew _))
                        | Jir.Ast.Assign (_, Jir.Ast.Rnew _) ->
                            Varver.def ver ~sid ~var:r
                        | _ -> Varver.use ver ~sid ~var:r
                      in
                      bounds :=
                        Param
                          { arg_var = r; arg_version = version;
                            caller_node = node_id; call_id; formal = this_var }
                        :: !bounds
                  | None -> ());
                  (* positional arguments that are plain variables *)
                  let formals = callee_cfet.Cfet.meth.Jir.Ast.params in
                  List.iteri
                    (fun i arg ->
                      match (arg, List.nth_opt formals i) with
                      | Jir.Ast.Var y, Some (_, formal) ->
                          bounds :=
                            Param
                              { arg_var = y;
                                arg_version = Varver.use ver ~sid ~var:y;
                                caller_node = node_id; call_id; formal }
                            :: !bounds
                      | _ -> ())
                    (args_of_call_stmt stmt);
                  (* value returns from every normal leaf returning a var *)
                  (match lhs_of_call_stmt stmt with
                  | None -> ()
                  | Some lhs_var ->
                      let lhs_version = Varver.def ver ~sid ~var:lhs_var in
                      List.iter
                        (fun leaf ->
                          let ln = Cfet.node callee_cfet leaf in
                          match (ln.Cfet.exit, List.rev ln.Cfet.stmts) with
                          | Some (Cfet.Normal _), last :: _ -> (
                              match last.Jir.Ast.kind with
                              | Jir.Ast.Return (Some (Jir.Ast.Var r)) ->
                                  let callee_vv =
                                    Varver.analyze ln.Cfet.stmts
                                  in
                                  bounds :=
                                    Ret_val
                                      { ret_var = r;
                                        ret_version =
                                          Varver.use callee_vv
                                            ~sid:last.Jir.Ast.sid ~var:r;
                                        leaf; call_id; lhs_var; lhs_version;
                                        caller_node = node_id }
                                    :: !bounds
                              | _ -> ())
                          | _ -> ())
                        callee_cfet.Cfet.leaves)))
        n.Cfet.calls)
    cfet.Cfet.nodes;
  (* artificial assignment edges: a variable read at node entry receives the
     last version of its nearest occurring ancestor *)
  Hashtbl.iter
    (fun node_id (n : Cfet.node) ->
      ignore n;
      let ver = Hashtbl.find vv node_id in
      List.iter
        (fun var ->
          if Varver.is_entry_use ver ~var && node_id <> 0 then begin
            let rec nearest cur =
              if cur = 0 then if node_occurs 0 var then Some 0 else None
              else
                let parent = Cfet.parent_id cur in
                if node_occurs parent var then Some parent
                else nearest parent
            in
            match nearest node_id with
            | Some a ->
                emit
                  (Vvar (var, a, node_last a var))
                  (Vvar (var, node_id, 0))
                  Cfl.Pointer_grammar.Assign a node_id
            | None -> ()
          end)
        (Varver.occurring_vars ver))
    cfet.Cfet.nodes;
  { medges = !medges; bounds = !bounds; allocs = !allocs }

(* ------------------------------------------------------------------ *)
(* Instantiation over the clone tree.                                  *)
(* ------------------------------------------------------------------ *)

let vertex (g : t) ~inst ~meth (r : vref) : int =
  let key, info =
    match r with
    | Vvar (v, node, version) ->
        ( (inst, version + 2, node, Symbol.intern v),
          Var_vertex { inst; var = v; node; version; meth } )
    | Vobj (sid, node) ->
        ((inst, 1, node, sid), Obj_vertex { inst; sid; cls = ""; node; meth; at = Jir.Ast.no_pos })
  in
  match Hashtbl.find_opt g.index key with
  | Some id -> id
  | None ->
      let id = g.n_vertices in
      g.n_vertices <- id + 1;
      if id >= Array.length g.info then begin
        let bigger =
          Array.make (max 1024 (2 * Array.length g.info)) info
        in
        Array.blit g.info 0 bigger 0 (Array.length g.info);
        g.info <- bigger
      end;
      g.info.(id) <- info;
      Hashtbl.replace g.index key id;
      id

exception Too_many_edges of int

let add_edge (g : t) ~max_edges src dst label enc =
  if g.n_edges >= max_edges then raise (Too_many_edges g.n_edges);
  g.edges <- { src; dst; label; enc } :: g.edges;
  g.n_edges <- g.n_edges + 1

(* Build the full inlined alias graph. *)
let build ?(max_edges = 5_000_000) ?(track_null = false)
    ?(exclude = fun _ -> false) (icfet : Icfet.t) (clones : Clone_tree.t) : t =
  let g =
    { icfet; clones; n_vertices = 0; info = [||];
      index = Hashtbl.create 4096; edges = []; n_edges = 0; objects = [] }
  in
  let templates =
    Array.init (Icfet.n_methods icfet) (fun i ->
        build_template ~track_null ~exclude icfet i)
  in
  Array.iter
    (fun (inst : Clone_tree.instance) ->
      let meth = inst.Clone_tree.meth in
      let tpl = templates.(meth) in
      let i = inst.Clone_tree.inst_id in
      (* intra-method edges *)
      List.iter
        (fun te ->
          let src = vertex g ~inst:i ~meth te.tsrc in
          let dst = vertex g ~inst:i ~meth te.tdst in
          add_edge g ~max_edges src dst te.tlabel
            (Encoding.interval ~meth ~first:te.first ~last:te.last))
        tpl.medges;
      (* allocation metadata *)
      List.iter
        (fun (a : alloc_site) ->
          let id = vertex g ~inst:i ~meth (Vobj (a.sid, a.node)) in
          g.info.(id) <-
            Obj_vertex
              { inst = i; sid = a.sid; cls = a.cls; node = a.node; meth;
                at = a.at };
          g.objects <- id :: g.objects)
        tpl.allocs;
      (* cross-clone edges *)
      List.iter
        (fun b ->
          match b with
          | Param { arg_var; arg_version; caller_node; call_id; formal } -> (
              match Clone_tree.callee_instance clones ~caller:i ~call_id with
              | None -> ()
              | Some j ->
                  let callee_meth = (Clone_tree.instance clones j).Clone_tree.meth in
                  let src =
                    vertex g ~inst:i ~meth (Vvar (arg_var, caller_node, arg_version))
                  in
                  let dst = vertex g ~inst:j ~meth:callee_meth (Vvar (formal, 0, 0)) in
                  add_edge g ~max_edges src dst Cfl.Pointer_grammar.Assign
                    (Encoding.call call_id))
          | Ret_val
              { ret_var; ret_version; leaf; call_id; lhs_var; lhs_version;
                caller_node } -> (
              match Clone_tree.callee_instance clones ~caller:i ~call_id with
              | None -> ()
              | Some j ->
                  let callee_meth = (Clone_tree.instance clones j).Clone_tree.meth in
                  let src =
                    vertex g ~inst:j ~meth:callee_meth (Vvar (ret_var, leaf, ret_version))
                  in
                  let dst =
                    vertex g ~inst:i ~meth (Vvar (lhs_var, caller_node, lhs_version))
                  in
                  add_edge g ~max_edges src dst Cfl.Pointer_grammar.Assign
                    (Encoding.ret call_id)))
        tpl.bounds)
    clones.Clone_tree.instances;
  g.objects <- List.rev g.objects;
  g

let n_vertices (g : t) = g.n_vertices
let n_edges (g : t) = g.n_edges
let info (g : t) id = g.info.(id)
let objects (g : t) = g.objects

let iter_edges (g : t) f = List.iter f g.edges

(* ------------------------------------------------------------------ *)
(* Closure-graph slicing.                                              *)
(* ------------------------------------------------------------------ *)

(* Drop every edge [keep] rejects, preserving the order of the survivors
   (edge order seeds the engine deterministically).  Returns the number of
   edges dropped. *)
let filter_edges (g : t) ~keep : int =
  let kept = List.filter keep g.edges in
  let n_kept = List.length kept in
  let dropped = g.n_edges - n_kept in
  g.edges <- kept;
  g.n_edges <- n_kept;
  dropped

(* Slice away Assign-labeled edges that a whole-program points-to analysis
   proves no object can cross.  In the pointer grammar every use of an
   Assign edge extends some FlowsTo(o, src) into FlowsTo(o, dst) — New and
   Load are the only other FlowsTo producers — so an Assign edge whose
   source variable has an empty points-to set supports no derivation at
   all: dropping it leaves the closure, and therefore every warning,
   unchanged.  [reaches ~meth ~var] must answer "may any allocation flow
   into this variable?" conservatively (over-approximation keeps edges,
   never drops live ones); [meth] is the dense ICFET method index carried
   by the vertex.  Returns the number of edges sliced. *)
let slice_assign_edges (g : t) ~(reaches : meth:int -> var:string -> bool) :
    int =
  filter_edges g ~keep:(fun (e : edge) ->
      match e.label with
      | Cfl.Pointer_grammar.Assign -> (
          match g.info.(e.src) with
          | Var_vertex { var; meth; _ } -> reaches ~meth ~var
          | Obj_vertex _ -> true)
      | _ -> true)
