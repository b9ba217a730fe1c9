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
   state f(initial) along some feasible path.  Nothing composes two Steps,
   so a Step joins only a Track edge that ends at its source: [build]
   walks forward from the allocation's segment and emits the out-edges of
   the points the walk reaches, and no others.

   The builder writes the seeds straight into the engine's seed buffer, in
   emission order, as flat records.  Points are numbered in first-touch
   order through an int table per object, and an encoding without [Aux]
   fragments is interned once per shape (see [shape_encoding]).  What a
   node's statements fire, and where its calls lead, does not depend on the
   object, so each is computed once per build. *)

module Encoding = Pathenc.Encoding
module Icfet = Symexec.Icfet
module Cfet = Symexec.Cfet
module Transfn = Cfl.Transfn
module Dg = Cfl.Dataflow_grammar
module Edgebuf = Engine.Edgebuf

type tracked = {
  obj_vertex : int;   (* alias-graph object vertex *)
  obj_idx : int;      (* dense index among tracked objects *)
  alloc_inst : int;
  cls : string;
  at : Jir.Ast.pos;
  source_vertex : int;  (* dataflow vertex the Track path roots at *)
}

type exit_kind = Exit_normal | Exit_exceptional of string | Exit_escaped

type t = {
  registry : Transfn.registry;
  fsm : Fsm.t;
  mutable n_vertices : int;
  mutable n_seeds : int;
  mutable tracked : tracked list;
  exit_points : (int, exit_kind) Hashtbl.t;
  event_sites : (int, Jir.Ast.stmt) Hashtbl.t;
      (* edge-destination vertex -> last event statement flowing into it *)
}

let source_vertex (g : t) : int =
  let id = g.n_vertices in
  g.n_vertices <- id + 1;
  id

(* (inst, var, node, version) -> shortest feasible alias encoding.  Keeping
   one representative per occurrence bounds the dataflow graph; see
   DESIGN.md. *)
type alias_map = (int * string * int * int, Encoding.t) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Seed encodings.                                                     *)
(* ------------------------------------------------------------------ *)

(* Every seed encoding without an [Aux] fragment has one of four shapes,
   named by a tag and three ints:
   - a segment hop (meth, node, call id or -1): [node..node] (Call id);
   - a branch (meth, node, child): [node..child];
   - a return (call id, target node, _): Ret id [target..target], in the
     caller's method — the caller node after a normal return, its
     exception sibling after an exceptional one;
   - the Track anchor (meth, allocation node, _): [0..node].
   Each shape is interned once per build. *)
let shape_hop = 0
let shape_branch = 1
let shape_ret = 2
let shape_anchor = 3

let shape_encoding icfet tag a b c : Encoding.t =
  if tag = shape_hop then
    Encoding.Interval { meth = a; first = b; last = b }
    :: (if c >= 0 then [ Encoding.Call c ] else [])
  else if tag = shape_branch then
    [ Encoding.Interval { meth = a; first = b; last = c } ]
  else if tag = shape_ret then
    [ Encoding.Ret a;
      Encoding.Interval
        { meth = (Icfet.call_edge icfet a).Icfet.caller_meth; first = b;
          last = b } ]
  else [ Encoding.Interval { meth = a; first = 0; last = b } ]

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

(* A memo from int pairs to values computed on first use, for the facts
   of a build that do not depend on the object. *)
let memo2 (dummy : 'a) (f : int -> int -> 'a) : int -> int -> 'a =
  let index = Inttbl.create 256 in
  let vals = ref (Array.make 256 dummy) in
  let n = ref 0 in
  fun a b ->
    let i = Inttbl.find index a b 0 in
    if i >= 0 then !vals.(i)
    else begin
      let v = f a b in
      if !n = Array.length !vals then begin
        let bigger = Array.make (2 * !n) dummy in
        Array.blit !vals 0 bigger 0 !n;
        vals := bigger
      end;
      !vals.(!n) <- v;
      ignore (Inttbl.find_or_add index a b 0 !n : int);
      incr n;
      v
    end

(* A node's statements as [build] reads them: their sids in execution
   order, and each statement that fires an event as (position, receiver,
   receiver version, the event's transfer function, statement). *)
type node_events = {
  sids : int array;
  events : (int * string * int * int * Jir.Ast.stmt) array;
}

(* Where a node's segments end, given its k dives as (call id, callee
   instance, sid) triples: segment i holds the statements at positions
   [ends.(i-1), ends.(i)), from 0 for i = 0; [ends.(k)] is the node's end.
   Segment i runs up to and including dive i's call.  The scan matches the
   calls in order, and a dive whose call it does not find ends at the
   node's end, as does every dive after it. *)
let segment_ends (sids : int array) (dives : int array) =
  let k = Array.length dives / 3 in
  let ends = Array.make (k + 1) (Array.length sids) in
  let seg = ref 0 in
  Array.iteri
    (fun j sid ->
      if !seg < k && sid = dives.((3 * !seg) + 2) then begin
        ends.(!seg) <- j + 1;
        incr seg
      end)
    sids;
  ends

(* Build the graph, appending its seeds to [seeds] in emission order. *)
let build ~(seeds : Edgebuf.t) (icfet : Icfet.t) (clones : Clone_tree.t)
    (ag : Alias_graph.t) (flows : flows) (fsm : Fsm.t) : t =
  let registry = Transfn.create ~n_states:(Fsm.n_states fsm) in
  Dg.set_registry registry;
  let g =
    { registry; fsm; n_vertices = 0; n_seeds = 0; tracked = [];
      exit_points = Hashtbl.create 64; event_sites = Hashtbl.create 256 }
  in
  let library (c : Jir.Ast.call) =
    Icfet.meth_idx icfet
      (Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname)
    = None
  in
  let push src dst label enc_id =
    Edgebuf.push seeds ~src ~dst ~label:(Dg.to_int label) ~enc_id;
    g.n_seeds <- g.n_seeds + 1
  in
  let step_id = Dg.Step Transfn.identity_id in
  let shapes = Inttbl.create 1024 in
  let shape tag a b c =
    let key = (a lsl 2) lor tag in
    let id = Inttbl.find shapes key b c in
    if id >= 0 then id
    else
      Inttbl.find_or_add shapes key b c
        (Edgebuf.intern seeds (shape_encoding icfet tag a b c))
  in
  let n_inst = Clone_tree.n_instances clones in
  let meth_of inst = (Clone_tree.instance clones inst).Clone_tree.meth in
  let node_of meth node_id = Cfet.node (Icfet.cfet icfet meth) node_id in
  (* reverse call-site map: callee instance -> entering (caller, call id) *)
  let entries_rev = Array.make n_inst [] in
  Hashtbl.iter
    (fun (caller, call_id) callee ->
      entries_rev.(callee) <- (caller, call_id) :: entries_rev.(callee))
    clones.Clone_tree.by_site;
  let is_entry = Array.make n_inst false in
  List.iter (fun i -> is_entry.(i) <- true) clones.Clone_tree.entry_instances;
  (* (inst, node) -> the node's call sites that enter a callee clone, as
     (call id, callee instance, sid) triples in statement order; an object
     dives into the relevant ones *)
  let call_sites =
    memo2 [||] (fun inst node_id ->
        let meth = meth_of inst in
        List.concat_map
          (fun (ci : Cfet.call_info) ->
            let sid = ci.Cfet.call_stmt.Jir.Ast.sid in
            match Icfet.call_id_of_site icfet ~meth ~node:node_id ~sid with
            | None -> []
            | Some call_id -> (
                match
                  Clone_tree.callee_instance clones ~caller:inst ~call_id
                with
                | Some j -> [ call_id; j; sid ]
                | None -> []))
          (node_of meth node_id).Cfet.calls
        |> Array.of_list)
  in
  (* (meth, node) -> the node's statements and events; versions are
     computed only in a node where a statement fires an event *)
  let node_events =
    memo2 { sids = [||]; events = [||] } (fun meth node_id ->
        let cfet = Icfet.cfet icfet meth in
        let stmts = (Cfet.node cfet node_id).Cfet.stmts in
        let versions = lazy (Varver.analyze stmts) in
        let events =
          List.concat
            (List.mapi
               (fun pos (s : Jir.Ast.stmt) ->
                 match Fsm.stmt_event fsm ~library ~meth:cfet.Cfet.meth s with
                 | None -> []
                 | Some (recv, event) ->
                     let version =
                       Varver.use (Lazy.force versions) ~sid:s.Jir.Ast.sid
                         ~var:recv
                     in
                     let fid =
                       Transfn.intern registry (Fsm.event_vector fsm event)
                     in
                     [ (pos, recv, version, fid, s) ])
               stmts)
        in
        { sids =
            Array.of_list
              (List.map (fun (s : Jir.Ast.stmt) -> s.Jir.Ast.sid) stmts);
          events = Array.of_list events })
  in
  let tracked_objects =
    List.filter
      (fun ov ->
        match Alias_graph.info ag ov with
        | Alias_graph.Obj_vertex { cls; _ } -> Fsm.is_tracked fsm cls
        | Alias_graph.Var_vertex _ -> false)
      (Alias_graph.objects ag)
  in
  (* instance -> index of the last object it was relevant to *)
  let rel = Array.make n_inst (-1) in
  List.iteri
    (fun obj_idx obj_vertex ->
      let alloc_inst, alloc_node, alloc_sid, cls, at =
        match Alias_graph.info ag obj_vertex with
        | Alias_graph.Obj_vertex { inst; node; sid; cls; at; _ } ->
            (inst, node, sid, cls, at)
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
      let rec mark inst =
        if rel.(inst) <> obj_idx then begin
          rel.(inst) <- obj_idx;
          List.iter (fun (caller, _) -> mark caller) entries_rev.(inst)
        end
      in
      List.iter mark !alias_insts;
      let is_relevant j = rel.(j) = obj_idx in
      (* the node's dives: its call sites into relevant clones *)
      let dives_of inst node_id =
        let c = call_sites inst node_id in
        let k = ref 0 in
        for i = 0 to (Array.length c / 3) - 1 do
          if is_relevant c.((3 * i) + 1) then incr k
        done;
        if 3 * !k = Array.length c then c
        else begin
          let d = Array.make (3 * !k) 0 in
          let j = ref 0 in
          for i = 0 to (Array.length c / 3) - 1 do
            if is_relevant c.((3 * i) + 1) then begin
              Array.blit c (3 * i) d (3 * !j) 3;
              incr j
            end
          done;
          d
        end
      in
      (* 3. this object's points, numbered in first-touch order; a newly
         numbered point goes on the walk's stack *)
      let base = g.n_vertices in
      let points = Inttbl.create 64 in
      let stack = ref [] in
      let vertex inst node seg =
        let id = g.n_vertices in
        let v = Inttbl.find_or_add points inst node seg id in
        if v = id then begin
          if id - base >= max_points_per_object then
            raise (Too_large "dataflow graph too large");
          g.n_vertices <- id + 1;
          stack := (id, inst, node, seg) :: !stack
        end;
        v
      in
      (* 4. a segment point's hop: into dive i's callee root, or from the
         last segment to the node exit.  Its effect composes the transition
         functions of the events the segment fires on the object. *)
      let hop v inst meth node_id dives i =
        let k = Array.length dives / 3 in
        let ne = node_events meth node_id in
        let ends = segment_ends ne.sids dives in
        let lo = if i = 0 then 0 else ends.(i - 1) and hi = ends.(i) in
        let effect = ref Transfn.identity_id in
        let auxes = ref [] in
        let last_event = ref None in
        Array.iter
          (fun (pos, recv, version, fid, s) ->
            if pos >= lo && pos < hi then
              match Hashtbl.find_opt aliases (inst, recv, node_id, version) with
              | None -> ()
              | Some alias_enc ->
                  effect := Transfn.compose registry !effect fid;
                  auxes := Encoding.Aux alias_enc :: !auxes;
                  last_event := Some s)
          ne.events;
        let dst, call =
          if i < k then (vertex dives.((3 * i) + 1) 0 0, dives.(3 * i))
          else (vertex inst node_id (k + 1), -1)
        in
        let enc_id =
          match !auxes with
          | [] -> shape shape_hop meth node_id call
          | auxes ->
              Edgebuf.intern seeds
                (List.rev_append auxes
                   (shape_encoding icfet shape_hop meth node_id call))
        in
        push v dst (Dg.Step !effect) enc_id;
        match !last_event with
        | Some s ->
            if not (Hashtbl.mem g.event_sites dst) then
              Hashtbl.replace g.event_sites dst s
        | None -> ()
      in
      (* 5. a node exit's edges: to both children of a branch, or from a
         leaf back to the relevant callers; an exit nothing continues from
         is recorded in [exit_points] *)
      let node_exit v inst meth node_id =
        let n = node_of meth node_id in
        match (n.Cfet.cond, n.Cfet.exit) with
        | Some _, _ ->
            List.iter
              (fun child ->
                push v (vertex inst child 0) step_id
                  (shape shape_branch meth node_id child))
              [ Option.get n.Cfet.t_child; Option.get n.Cfet.f_child ]
        | None, Some leaf_exit -> (
            let entering =
              List.filter (fun (caller, _) -> is_relevant caller)
                entries_rev.(inst)
            in
            if is_entry.(inst) || entering = [] then
              Hashtbl.replace g.exit_points v
                (match leaf_exit with
                | Cfet.Normal _ -> Exit_normal
                | Cfet.Exceptional e -> Exit_exceptional e)
            else
              List.iter
                (fun (caller, call_id) ->
                  let ce = Icfet.call_edge icfet call_id in
                  let caller_node = ce.Icfet.caller_node in
                  let caller_cfet = Icfet.cfet icfet ce.Icfet.caller_meth in
                  match leaf_exit with
                  | Cfet.Normal _ -> (
                      (* back to the segment after the dive *)
                      let caller_dives =
                        if Hashtbl.mem caller_cfet.Cfet.nodes caller_node then
                          dives_of caller caller_node
                        else [||]
                      in
                      let rec pos i =
                        if 3 * i >= Array.length caller_dives then None
                        else if caller_dives.(3 * i) = call_id then Some i
                        else pos (i + 1)
                      in
                      match pos 0 with
                      | Some p ->
                          push v (vertex caller caller_node (p + 1)) step_id
                            (shape shape_ret call_id caller_node 0)
                      | None -> ())
                  | Cfet.Exceptional _ ->
                      (* transfer to the caller's exception branch: the
                         false sibling of the node containing the call,
                         which exists exactly when the call heads a
                         may-throw divergence *)
                      let sibling = caller_node - 1 in
                      if
                        ce.Icfet.diverges
                        && caller_node > 0
                        && Hashtbl.mem caller_cfet.Cfet.nodes sibling
                      then
                        push v (vertex caller sibling 0) step_id
                          (shape shape_ret call_id sibling 0)
                      else Hashtbl.replace g.exit_points v Exit_escaped)
                entering)
        | None, None -> assert false
      in
      (* 6. walk forward from the allocation's segment, depth first: each
         point's out-edges are emitted once, when it leaves the stack, so
         the seeds are exactly those a Track path from the allocation can
         join *)
      let alloc_meth = meth_of alloc_inst in
      let alloc_seg =
        (* the segment holding the allocation: the number of segments that
           end at or before it *)
        let sids = (node_events alloc_meth alloc_node).sids in
        let pos = ref (-1) in
        Array.iteri (fun j sid -> if sid = alloc_sid then pos := j) sids;
        Array.fold_left
          (fun seg e -> if e <= !pos then seg + 1 else seg)
          0
          (segment_ends sids (dives_of alloc_inst alloc_node))
      in
      let dst = vertex alloc_inst alloc_node alloc_seg in
      let rec walk () =
        match !stack with
        | [] -> ()
        | (v, inst, node_id, seg) :: rest ->
            stack := rest;
            let meth = meth_of inst in
            let dives = dives_of inst node_id in
            if seg <= Array.length dives / 3 then
              hop v inst meth node_id dives seg
            else node_exit v inst meth node_id;
            walk ()
      in
      walk ();
      (* 7. the Track seed at the allocation, from a source vertex after
         the object's points.  It is anchored at the method entry so the
         branch conditions that guard the allocation constrain the rest of
         the object's path. *)
      let src = source_vertex g in
      push src dst (Dg.Track Transfn.identity_id)
        (shape shape_anchor alloc_meth alloc_node 0);
      g.tracked <-
        { obj_vertex; obj_idx; alloc_inst; cls; at; source_vertex = src }
        :: g.tracked)
    tracked_objects;
  g.tracked <- List.rev g.tracked;
  g

let tracked (g : t) = g.tracked
let n_vertices (g : t) = g.n_vertices
let n_seeds (g : t) = g.n_seeds
let exit_kind (g : t) v = Hashtbl.find_opt g.exit_points v
let event_site (g : t) v = Hashtbl.find_opt g.event_sites v
let registry (g : t) = g.registry
