(* Generation of the program graph for the path-sensitive dataflow
   (typestate) analysis — the second phase of the paper's workflow (§2.2).

   For every tracked allocation the builder emits a control-flow graph over
   "points".  A point is (clone instance, CFET node, segment): a node with k
   call sites that dive into relevant callee clones has segments 0..k (the
   statement runs before/between/after the dives) plus a node-exit point
   k+1.  Edges:

     seg i --Step(effect of seg i)--> callee-root (dive), returning at
                                      seg i+1 via the callee's leaves
     seg k --Step(effect of seg k)--> node exit
     node exit --Step(id)--> children (branch) / caller continuation (leaf)

   The effect of a segment is the composition of the FSM transition
   functions of its events; an event is a library call whose receiver
   aliases the tracked object according to the phase-1 alias results, and
   the alias path's encoding is attached to the edge as an [Aux] fragment so
   the engine only counts the event on paths where the aliasing is feasible.
   Clones containing no alias of the object are not entered: calls into them
   are no-ops inside their segment (a deliberate abstraction documented in
   DESIGN.md).

   The engine closes  Track ::= Track Step  over these seeds: a transitive
   Track edge (source(o) -> point, f) says o reaches the point with FSM
   state f(initial) along some feasible path. *)

module Encoding = Pathenc.Encoding
module Icfet = Symexec.Icfet
module Cfet = Symexec.Cfet
module Transfn = Cfl.Transfn
module Dg = Cfl.Dataflow_grammar

type point = { inst : int; node : int; seg : int }

type tracked = {
  obj_vertex : int;   (* alias-graph object vertex *)
  obj_idx : int;      (* dense index among tracked objects *)
  alloc_inst : int;
  cls : string;
  at : Jir.Ast.pos;
  source_vertex : int;  (* dataflow vertex the Track path roots at *)
}

type exit_kind = Exit_normal | Exit_exceptional of string | Exit_escaped

type seed = { src : int; dst : int; label : Dg.t; enc : Encoding.t }

type t = {
  registry : Transfn.registry;
  fsm : Fsm.t;
  mutable n_vertices : int;
  point_index : (int * int * int * int, int) Hashtbl.t;
  mutable seeds : seed list;
  mutable n_seeds : int;
  mutable tracked : tracked list;
  exit_points : (int, exit_kind) Hashtbl.t;
  event_sites : (int, Jir.Ast.stmt) Hashtbl.t;
      (* edge-destination vertex -> last event statement flowing into it *)
}

let vertex (g : t) ~obj_idx (p : point) : int =
  let key = (obj_idx, p.inst, p.node, p.seg) in
  match Hashtbl.find_opt g.point_index key with
  | Some id -> id
  | None ->
      let id = g.n_vertices in
      g.n_vertices <- id + 1;
      Hashtbl.replace g.point_index key id;
      id

let source_vertex (g : t) : int =
  let id = g.n_vertices in
  g.n_vertices <- id + 1;
  id

let add_seed (g : t) src dst label enc =
  g.seeds <- { src; dst; label; enc } :: g.seeds;
  g.n_seeds <- g.n_seeds + 1

(* ------------------------------------------------------------------ *)
(* Helpers over one object's alias results.                            *)
(* ------------------------------------------------------------------ *)

(* (inst, var, node, version) -> shortest feasible alias encoding.  Keeping
   one representative per occurrence bounds the dataflow graph; see
   DESIGN.md. *)
type alias_map = (int * string * int * int, Encoding.t) Hashtbl.t

(* Effect of one segment on the tracked object: composed transition function
   id, the Aux fragments of the alias paths consulted, and the last event
   statement (for reporting).  [library] is {!Fsm.stmt_event}'s "call leaves
   the program" test. *)
let segment_effect (g : t) ~library ~(meth_ast : Jir.Ast.meth)
    (aliases : alias_map) (ver : Varver.t) ~inst ~node
    (stmts : Jir.Ast.stmt list) :
    int * Encoding.element list * Jir.Ast.stmt option =
  let effect = ref Transfn.identity_id in
  let auxes = ref [] in
  let last_event = ref None in
  List.iter
    (fun s ->
      match Fsm.stmt_event g.fsm ~library ~meth:meth_ast s with
      | None -> ()
      | Some (recv, event) -> (
          let version = Varver.use ver ~sid:s.Jir.Ast.sid ~var:recv in
          match Hashtbl.find_opt aliases (inst, recv, node, version) with
          | None -> ()
          | Some alias_enc ->
              let vec = Fsm.event_vector g.fsm event in
              let fid = Transfn.intern g.registry vec in
              effect := Transfn.compose g.registry !effect fid;
              auxes := Encoding.Aux alias_enc :: !auxes;
              last_event := Some s))
    stmts;
  (!effect, List.rev !auxes, !last_event)

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)
(* ------------------------------------------------------------------ *)

(* Dataflow points one tracked object may add to the graph before the build
   gives up. *)
let max_points_per_object = 500_000

exception Too_large of string

(* Information the builder needs about phase-1 results: for an object
   vertex, the var vertices it flows to, with encodings. *)
type flows = (int, (int * Encoding.t) list) Hashtbl.t

let build (icfet : Icfet.t) (clones : Clone_tree.t) (ag : Alias_graph.t)
    (flows : flows) (fsm : Fsm.t) : t =
  let registry = Transfn.create ~n_states:(Fsm.n_states fsm) in
  Dg.set_registry registry;
  let g =
    { registry; fsm; n_vertices = 0;
      point_index = Hashtbl.create 4096; seeds = [];
      n_seeds = 0; tracked = []; exit_points = Hashtbl.create 64;
      event_sites = Hashtbl.create 256 }
  in
  let library (c : Jir.Ast.call) =
    Icfet.meth_idx icfet
      (Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname)
    = None
  in
  (* reverse call-site map: callee instance -> entering (caller, call id) *)
  let entries_rev : (int, (int * int) list) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (caller, call_id) callee ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt entries_rev callee) in
      Hashtbl.replace entries_rev callee ((caller, call_id) :: cur))
    clones.Clone_tree.by_site;
  let tracked_objects =
    List.filter
      (fun ov ->
        match Alias_graph.info ag ov with
        | Alias_graph.Obj_vertex { cls; _ } -> Fsm.is_tracked fsm cls
        | Alias_graph.Var_vertex _ -> false)
      (Alias_graph.objects ag)
  in
  List.iteri
    (fun obj_idx obj_vertex ->
      let alloc_inst, alloc_node, cls, at =
        match Alias_graph.info ag obj_vertex with
        | Alias_graph.Obj_vertex { inst; node; cls; at; _ } ->
            (inst, node, cls, at)
        | Alias_graph.Var_vertex _ -> assert false
      in
      (* 1. alias occurrences of this object *)
      let aliases : alias_map = Hashtbl.create 64 in
      let alias_insts = ref [ alloc_inst ] in
      List.iter
        (fun (var_vertex, enc) ->
          match Alias_graph.info ag var_vertex with
          | Alias_graph.Var_vertex { inst; var; node; version; _ } ->
              alias_insts := inst :: !alias_insts;
              let key = (inst, var, node, version) in
              let better =
                match Hashtbl.find_opt aliases key with
                | None -> true
                | Some old -> Encoding.n_elements enc < Encoding.n_elements old
              in
              if better then Hashtbl.replace aliases key enc
          | Alias_graph.Obj_vertex _ -> ())
        (Option.value ~default:[] (Hashtbl.find_opt flows obj_vertex));
      (* 2. relevant instances: alias instances closed under callers *)
      let relevant : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let rec mark inst =
        if not (Hashtbl.mem relevant inst) then begin
          Hashtbl.replace relevant inst ();
          List.iter
            (fun (caller, _) -> mark caller)
            (Option.value ~default:[] (Hashtbl.find_opt entries_rev inst))
        end
      in
      List.iter mark !alias_insts;
      (* 3. per-node dive sites and segments, cached for return edges *)
      let dives_of : (int * int, (int * int * int) list) Hashtbl.t =
        Hashtbl.create 256
      in
      (* (inst, node) -> (call_id, callee_inst, sid) list in stmt order *)
      let compute_dives inst (n : Cfet.node) meth =
        List.filter_map
          (fun (ci : Cfet.call_info) ->
            match
              Icfet.call_id_of_site icfet ~meth ~node:n.Cfet.id
                ~sid:ci.Cfet.call_stmt.Jir.Ast.sid
            with
            | None -> None
            | Some call_id -> (
                match
                  Clone_tree.callee_instance clones ~caller:inst ~call_id
                with
                | Some j when Hashtbl.mem relevant j ->
                    Some (call_id, j, ci.Cfet.call_stmt.Jir.Ast.sid)
                | _ -> None))
          n.Cfet.calls
      in
      let segments dives (n : Cfet.node) =
        let k = List.length dives in
        let segs = Array.make (k + 1) [] in
        let remaining = ref (List.map (fun (_, _, sid) -> sid) dives) in
        let seg = ref 0 in
        List.iter
          (fun (s : Jir.Ast.stmt) ->
            segs.(!seg) <- s :: segs.(!seg);
            match !remaining with
            | sid :: rest when sid = s.Jir.Ast.sid ->
                remaining := rest;
                incr seg
            | _ -> ())
          n.Cfet.stmts;
        Array.map List.rev segs
      in
      Hashtbl.iter
        (fun inst () ->
          let meth = (Clone_tree.instance clones inst).Clone_tree.meth in
          let cfet = Icfet.cfet icfet meth in
          Hashtbl.iter
            (fun node_id (n : Cfet.node) ->
              Hashtbl.replace dives_of (inst, node_id)
                (compute_dives inst n meth))
            cfet.Cfet.nodes)
        relevant;
      (* 4. emit points and hop edges *)
      let entry_set = clones.Clone_tree.entry_instances in
      Hashtbl.iter
        (fun inst () ->
          let meth = (Clone_tree.instance clones inst).Clone_tree.meth in
          let cfet = Icfet.cfet icfet meth in
          Hashtbl.iter
            (fun node_id (n : Cfet.node) ->
              let dives = Hashtbl.find dives_of (inst, node_id) in
              let segs = segments dives n in
              let k = List.length dives in
              if g.n_vertices > max_points_per_object * (obj_idx + 1)
              then raise (Too_large "dataflow graph too large");
              (* segment hops *)
              let node_vv = Varver.analyze n.Cfet.stmts in
              for i = 0 to k do
                let src = vertex g ~obj_idx { inst; node = node_id; seg = i } in
                let effect, auxes, event_stmt =
                  segment_effect g ~library ~meth_ast:cfet.Cfet.meth aliases
                    node_vv ~inst ~node:node_id segs.(i)
                in
                let base_enc =
                  auxes
                  @ [ Encoding.Interval
                        { meth; first = node_id; last = node_id } ]
                in
                let dst, enc =
                  if i < k then begin
                    let call_id, callee_inst, _ = List.nth dives i in
                    ( vertex g ~obj_idx { inst = callee_inst; node = 0; seg = 0 },
                      base_enc @ [ Encoding.Call call_id ] )
                  end
                  else
                    ( vertex g ~obj_idx { inst; node = node_id; seg = k + 1 },
                      base_enc )
                in
                add_seed g src dst (Dg.Step effect) enc;
                (match event_stmt with
                | Some s ->
                    if not (Hashtbl.mem g.event_sites dst) then
                      Hashtbl.replace g.event_sites dst s
                | None -> ())
              done;
              (* node-exit hops *)
              let exit_v = vertex g ~obj_idx { inst; node = node_id; seg = k + 1 } in
              match (n.Cfet.cond, n.Cfet.exit) with
              | Some _, _ ->
                  let t_child = Option.get n.Cfet.t_child in
                  let f_child = Option.get n.Cfet.f_child in
                  List.iter
                    (fun child ->
                      let dst = vertex g ~obj_idx { inst; node = child; seg = 0 } in
                      add_seed g exit_v dst (Dg.Step Transfn.identity_id)
                        [ Encoding.Interval
                            { meth; first = node_id; last = child } ])
                    [ t_child; f_child ]
              | None, Some leaf_exit -> (
                  let entering =
                    List.filter
                      (fun (caller, _) -> Hashtbl.mem relevant caller)
                      (Option.value ~default:[]
                         (Hashtbl.find_opt entries_rev inst))
                  in
                  let is_entry = List.mem inst entry_set in
                  if is_entry || entering = [] then
                    Hashtbl.replace g.exit_points exit_v
                      (match leaf_exit with
                      | Cfet.Normal _ -> Exit_normal
                      | Cfet.Exceptional e -> Exit_exceptional e)
                  else
                    List.iter
                      (fun (caller, call_id) ->
                        let ce = Icfet.call_edge icfet call_id in
                        let caller_node = ce.Icfet.caller_node in
                        let caller_dives =
                          Option.value ~default:[]
                            (Hashtbl.find_opt dives_of (caller, caller_node))
                        in
                        let rec pos i = function
                          | [] -> None
                          | (cid, _, _) :: rest ->
                              if cid = call_id then Some i else pos (i + 1) rest
                        in
                        match (leaf_exit, pos 0 caller_dives) with
                        | Cfet.Normal _, Some p ->
                            let dst =
                              vertex g ~obj_idx
                                { inst = caller; node = caller_node;
                                  seg = p + 1 }
                            in
                            add_seed g exit_v dst (Dg.Step Transfn.identity_id)
                              [ Encoding.Ret call_id;
                                Encoding.Interval
                                  { meth = ce.Icfet.caller_meth;
                                    first = caller_node; last = caller_node } ]
                        | Cfet.Exceptional _, _ ->
                            (* transfer to the caller's exception branch: the
                               false sibling of the node containing the call,
                               which exists exactly when the call heads a
                               may-throw divergence *)
                            let caller_cfet =
                              Icfet.cfet icfet ce.Icfet.caller_meth
                            in
                            let sibling = caller_node - 1 in
                            if
                              ce.Icfet.diverges
                              && caller_node > 0
                              && Hashtbl.mem caller_cfet.Cfet.nodes sibling
                            then begin
                              let dst =
                                vertex g ~obj_idx
                                  { inst = caller; node = sibling; seg = 0 }
                              in
                              add_seed g exit_v dst
                                (Dg.Step Transfn.identity_id)
                                [ Encoding.Ret call_id;
                                  Encoding.Interval
                                    { meth = ce.Icfet.caller_meth;
                                      first = sibling; last = sibling } ]
                            end
                            else
                              Hashtbl.replace g.exit_points exit_v
                                Exit_escaped
                        | Cfet.Normal _, None -> ())
                      entering)
              | None, None -> assert false)
            cfet.Cfet.nodes)
        relevant;
      (* 5. the Track seed at the allocation *)
      let src = source_vertex g in
      let alloc_meth = (Clone_tree.instance clones alloc_inst).Clone_tree.meth in
      let alloc_cfet = Icfet.cfet icfet alloc_meth in
      let alloc_sid =
        match Alias_graph.info ag obj_vertex with
        | Alias_graph.Obj_vertex { sid; _ } -> sid
        | Alias_graph.Var_vertex _ -> assert false
      in
      let dives =
        Option.value ~default:[]
          (Hashtbl.find_opt dives_of (alloc_inst, alloc_node))
      in
      let alloc_seg =
        (* segment containing the allocation statement *)
        let node = Cfet.node alloc_cfet alloc_node in
        let seg = ref 0 in
        let found = ref 0 in
        let remaining = ref (List.map (fun (_, _, sid) -> sid) dives) in
        List.iter
          (fun (s : Jir.Ast.stmt) ->
            if s.Jir.Ast.sid = alloc_sid then found := !seg;
            match !remaining with
            | sid :: rest when sid = s.Jir.Ast.sid ->
                remaining := rest;
                incr seg
            | _ -> ())
          node.Cfet.stmts;
        !found
      in
      let dst = vertex g ~obj_idx { inst = alloc_inst; node = alloc_node; seg = alloc_seg } in
      (* anchor the track at the method entry so the branch conditions that
         guard the allocation constrain the rest of the object's path *)
      add_seed g src dst (Dg.Track Transfn.identity_id)
        [ Encoding.Interval { meth = alloc_meth; first = 0; last = alloc_node } ];
      g.tracked <-
        { obj_vertex; obj_idx; alloc_inst; cls; at; source_vertex = src }
        :: g.tracked)
    tracked_objects;
  g.tracked <- List.rev g.tracked;
  g.seeds <- List.rev g.seeds;
  g

let seeds (g : t) = g.seeds
let tracked (g : t) = g.tracked
let n_vertices (g : t) = g.n_vertices
let n_seeds (g : t) = g.n_seeds
let exit_kind (g : t) v = Hashtbl.find_opt g.exit_points v
let event_site (g : t) v = Hashtbl.find_opt g.event_sites v
let registry (g : t) = g.registry
