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
   Track edge (source(o) -> point, c) says o reaches the point along some
   feasible path with code c, an FSM state or Error at the event that
   first drove it there; a path stops at its first Error.  Nothing
   composes two Steps, so a Step joins only a Track edge that ends at its
   source: [build] walks forward from the allocation's segment and records
   the out-arcs of the points the walk reaches, and no others.

   Phase 3 reads a Track fact only at an exit point or where an event
   first errs, so [build] numbers only the points phase 3 or the engine's
   checks need: the allocation's, the exit points, the destination of
   every non-identity Step, the source of every return (its feasibility
   check sees the callee interval the return drops), and every point
   whose in-degree is not 1.  Every other point has one identity in-arc,
   which is folded into its out-arcs by the engine's own composition, so
   the facts at the numbered points do not change (DESIGN.md, "Only the
   points phase 3 or the engine's checks read are numbered").

   The builder writes the seeds straight into the engine's seed buffer, in
   emission order, as flat records.  Points are indexed in first-touch
   order through an int table emptied for each object, and an encoding
   without [Aux] fragments is interned once per shape (see
   [shape_encoding]).  What a node's statements fire, and where its calls
   lead, does not depend on the object, so each is computed once per
   build. *)

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
  mutable n_vertices : int;
  mutable n_seeds : int;
  mutable tracked : tracked list;
  exit_points : (int, exit_kind) Hashtbl.t;
  mutable sites : Jir.Ast.pos array;
      (* event index (see [Transfn]) -> the event statement's position *)
}

let next_vertex (g : t) : int =
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
   Each shape is interned once per build: a seed that folds no point
   carries its arc's shape as it is. *)
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

(* Points the walk of one tracked object may visit, numbered or not,
   before the build gives up. *)
let max_points_per_object = 500_000

exception Too_large of string

(* Information the builder needs about phase-1 results: for an object
   vertex, the var vertices it flows to, with encodings. *)
type flows = (int, (int * Encoding.t) list) Hashtbl.t

(* A memo from int pairs to values computed on first use, for the facts
   of a build that do not depend on the object. *)
let memo2 (f : int -> int -> 'a) : int -> int -> 'a =
  let index = Inttbl.create 256 in
  let vals = ref [||] in
  let n = ref 0 in
  fun a b ->
    let i = Inttbl.find index a b 0 in
    if i >= 0 then !vals.(i)
    else begin
      let v = f a b in
      if !n = Array.length !vals then begin
        let bigger = Array.make (max 256 (2 * !n)) v in
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
   receiver version, the event's transfer function). *)
type node_events = {
  sids : int array;
  events : (int * string * int * int) array;
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

(* One object's walk, in arrays reused across objects and grown together.
   Points are indexed in first-touch order; a point's out-arcs, added when
   it leaves the walk's stack, are the arcs [first.(c), first.(c) +
   n_out.(c)), and the arcs lie in the order their sources left the
   stack. *)
type walk = {
  mutable indeg : int array;
  mutable keep : bool array;
  mutable first : int array;
  mutable n_out : int array;
  mutable vertex_of : int array;  (* point -> dataflow vertex, if kept *)
  mutable arc_src : int array;
  mutable arc_dst : int array;
  mutable arc_fn : int array;     (* the Step's transfer function *)
  mutable arc_enc : int array;    (* pool id of the arc's encoding *)
}

(* [a], long enough for index [i]. *)
let room a i dummy =
  if i < Array.length a then a
  else begin
    let b = Array.make (2 * (i + 1)) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Build the graph, appending its seeds to [seeds] in emission order. *)
let build ~(seeds : Edgebuf.t) (icfet : Icfet.t) (clones : Clone_tree.t)
    (ag : Alias_graph.t) (flows : flows) (fsm : Fsm.t) : t =
  let registry = Transfn.create ~n_states:(Fsm.n_states fsm) in
  Dg.set_registry registry;
  let g =
    { registry; n_vertices = 0; n_seeds = 0; tracked = [];
      exit_points = Hashtbl.create 64; sites = [||] }
  in
  (* event positions, newest first: one per [Transfn.event] *)
  let sites = ref [] in
  let library (c : Jir.Ast.call) =
    Icfet.meth_idx icfet
      (Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname)
    = None
  in
  let push src dst label enc_id =
    Edgebuf.push seeds ~src ~dst ~label:(Dg.to_int label) ~enc_id;
    g.n_seeds <- g.n_seeds + 1
  in
  let shapes = Inttbl.create 1024 in
  let shape tag a b c =
    let key = (a lsl 2) lor tag in
    let id = Inttbl.find shapes key b c in
    if id >= 0 then id
    else
      Inttbl.find_or_add shapes key b c
        (Edgebuf.intern seeds (shape_encoding icfet tag a b c))
  in
  (* pool ids (x, y) -> the pool id of their composition, as the engine
     composes them, or -1 when they do not compose; a chain the walk folds
     recurs for every object that passes through it *)
  let folds = Inttbl.create 1024 in
  let fold x y =
    let id = Inttbl.find folds x y 0 in
    if id >= 0 then id
    else
      match
        Encoding.compose_normalized (Edgebuf.enc seeds x) (Edgebuf.enc seeds y)
      with
      | enc -> Inttbl.find_or_add folds x y 0 (Edgebuf.intern seeds enc)
      | exception Encoding.Incomposable -> -1
  in
  let w =
    { indeg = [||]; keep = [||]; first = [||]; n_out = [||]; vertex_of = [||];
      arc_src = [||]; arc_dst = [||]; arc_fn = [||]; arc_enc = [||] }
  in
  let n_inst = Clone_tree.n_instances clones in
  let meth_of inst = (Clone_tree.instance clones inst).Clone_tree.meth in
  let node_of =
    memo2 (fun meth node_id -> Cfet.node (Icfet.cfet icfet meth) node_id)
  in
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
    memo2 (fun inst node_id ->
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
    memo2 (fun meth node_id ->
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
                       Transfn.event registry ~error:fsm.Fsm.error
                         (Fsm.event_vector fsm event)
                     in
                     sites := s.Jir.Ast.at :: !sites;
                     [ (pos, recv, version, fid) ])
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
  (* the objects' point table: emptied for each object, and replaced once
     a large object has grown it *)
  let points = ref (Inttbl.create 64) in
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
      (* 3. this object's points, indexed in first-touch order; a newly
         touched point goes on the walk's stack *)
      if Array.length !points.Inttbl.slots > 16_384 then
        points := Inttbl.create 64
      else Inttbl.clear !points;
      let points = !points in
      let n_points = ref 0 in
      let stack = ref [] in
      let point inst node seg =
        let c = !n_points in
        let v = Inttbl.find_or_add points inst node seg c in
        if v = c then begin
          if c >= max_points_per_object then
            raise (Too_large "dataflow graph too large");
          if c >= Array.length w.indeg then begin
            w.indeg <- room w.indeg c 0;
            w.keep <- room w.keep c false;
            w.first <- room w.first c 0;
            w.n_out <- room w.n_out c 0
          end;
          w.indeg.(c) <- 0;
          w.keep.(c) <- false;
          n_points := c + 1;
          stack := (c, inst, node, seg) :: !stack
        end;
        v
      in
      (* exit points, as (point, kind), newest first *)
      let exits = ref [] in
      let exit c kind =
        w.keep.(c) <- true;
        exits := (c, kind) :: !exits
      in
      let n_arcs = ref 0 in
      (* an out-arc of the point [c] being expanded, to [d]: a non-identity
         effect keeps [d], a return keeps [c] *)
      let arc ?(ret = false) c d fn enc =
        let a = !n_arcs in
        if a >= Array.length w.arc_src then begin
          w.arc_src <- room w.arc_src a 0;
          w.arc_dst <- room w.arc_dst a 0;
          w.arc_fn <- room w.arc_fn a 0;
          w.arc_enc <- room w.arc_enc a 0
        end;
        w.arc_src.(a) <- c;
        w.arc_dst.(a) <- d;
        w.arc_fn.(a) <- fn;
        w.arc_enc.(a) <- enc;
        n_arcs := a + 1;
        w.indeg.(d) <- w.indeg.(d) + 1;
        if fn <> Transfn.identity_id then w.keep.(d) <- true;
        if ret then w.keep.(c) <- true
      in
      (* 4. a segment point's hop: into dive i's callee root, or from the
         last segment to the node exit.  Its effect composes the transition
         functions of the events the segment fires on the object. *)
      let hop c inst meth node_id dives i =
        let k = Array.length dives / 3 in
        let ne = node_events meth node_id in
        let effect = ref Transfn.identity_id in
        let auxes = ref [] in
        if Array.length ne.events > 0 then begin
          let ends = segment_ends ne.sids dives in
          let lo = if i = 0 then 0 else ends.(i - 1) and hi = ends.(i) in
          Array.iter
            (fun (pos, recv, version, fid) ->
              if pos >= lo && pos < hi then
                match
                  Hashtbl.find_opt aliases (inst, recv, node_id, version)
                with
                | None -> ()
                | Some alias_enc ->
                    effect := Transfn.compose registry !effect fid;
                    auxes := Encoding.Aux alias_enc :: !auxes)
            ne.events
        end;
        let dst, call =
          if i < k then (point dives.((3 * i) + 1) 0 0, dives.(3 * i))
          else (point inst node_id (k + 1), -1)
        in
        let enc_id =
          match !auxes with
          | [] -> shape shape_hop meth node_id call
          | auxes ->
              Edgebuf.intern seeds
                (List.rev_append auxes
                   (shape_encoding icfet shape_hop meth node_id call))
        in
        arc c dst !effect enc_id
      in
      (* 5. a node exit's arcs: to both children of a branch, or from a
         leaf back to the relevant callers; an exit nothing continues from
         is an exit point *)
      let node_exit c inst meth node_id =
        let n = node_of meth node_id in
        match (n.Cfet.cond, n.Cfet.exit) with
        | Some _, _ ->
            List.iter
              (fun child ->
                arc c (point inst child 0) Transfn.identity_id
                  (shape shape_branch meth node_id child))
              [ Option.get n.Cfet.t_child; Option.get n.Cfet.f_child ]
        | None, Some leaf_exit -> (
            let entering =
              List.filter (fun (caller, _) -> is_relevant caller)
                entries_rev.(inst)
            in
            if is_entry.(inst) || entering = [] then
              exit c
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
                          arc ~ret:true c (point caller caller_node (p + 1))
                            Transfn.identity_id
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
                        arc ~ret:true c (point caller sibling 0)
                          Transfn.identity_id
                          (shape shape_ret call_id sibling 0)
                      else exit c Exit_escaped)
                entering)
        | None, None -> assert false
      in
      (* 6. walk forward from the allocation's segment, depth first: each
         point's out-arcs are added once, when it leaves the stack, so the
         arcs are exactly those a Track path from the allocation can join *)
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
      let alloc = point alloc_inst alloc_node alloc_seg in
      w.keep.(alloc) <- true;
      let rec walk () =
        match !stack with
        | [] -> ()
        | (c, inst, node_id, seg) :: rest ->
            stack := rest;
            w.first.(c) <- !n_arcs;
            let meth = meth_of inst in
            let dives = dives_of inst node_id in
            if seg <= Array.length dives / 3 then
              hop c inst meth node_id dives seg
            else node_exit c inst meth node_id;
            w.n_out.(c) <- !n_arcs - w.first.(c);
            walk ()
      in
      walk ();
      (* 7. number the points phase 3 and the engine's checks need, in
         first-touch order: the allocation's, every exit point, the
         destination of every non-identity Step, the source of every
         return, and every point whose in-degree is not 1 (DESIGN.md,
         "Only the points phase 3 or the engine's checks read are
         numbered") *)
      w.vertex_of <- room w.vertex_of !n_points (-1);
      for c = 0 to !n_points - 1 do
        if w.indeg.(c) <> 1 then w.keep.(c) <- true;
        w.vertex_of.(c) <-
          (if w.keep.(c) then next_vertex g else -1)
      done;
      List.iter
        (fun (c, kind) -> Hashtbl.replace g.exit_points w.vertex_of.(c) kind)
        (List.rev !exits);
      (* 8. emit each numbered point's out-arcs, in the order the points
         left the stack, folding each passed-through point's one identity
         in-arc into its out-arcs as the engine would compose them; [prefix]
         is the pool id of the path folded so far, -1 at the numbered
         point *)
      let rec follow src prefix a =
        let e = w.arc_enc.(a) in
        let id = if prefix < 0 then e else fold prefix e in
        if id >= 0 then begin
          let d = w.arc_dst.(a) in
          if w.keep.(d) then
            push src w.vertex_of.(d) (Dg.Step w.arc_fn.(a)) id
          else
            for b = w.first.(d) to w.first.(d) + w.n_out.(d) - 1 do
              follow src id b
            done
        end
      in
      for a = 0 to !n_arcs - 1 do
        let c = w.arc_src.(a) in
        if w.keep.(c) then follow w.vertex_of.(c) (-1) a
      done;
      (* 9. the Track seed at the allocation, from a source vertex after
         the object's points.  It is anchored at the method entry so the
         branch conditions that guard the allocation constrain the rest of
         the object's path. *)
      let src = next_vertex g in
      push src w.vertex_of.(alloc) (Dg.Track fsm.Fsm.initial)
        (shape shape_anchor alloc_meth alloc_node 0);
      g.tracked <-
        { obj_vertex; obj_idx; alloc_inst; cls; at; source_vertex = src }
        :: g.tracked)
    tracked_objects;
  g.tracked <- List.rev g.tracked;
  g.sites <- Array.of_list (List.rev !sites);
  g

let tracked (g : t) = g.tracked
let n_vertices (g : t) = g.n_vertices
let n_seeds (g : t) = g.n_seeds
let exit_kind (g : t) v = Hashtbl.find_opt g.exit_points v

(* What a Track code says about the object: the state it is in, or where
   the event that first drove it into Error is. *)
type fact = In_state of int | Error_at of Jir.Ast.pos

let fact (g : t) code =
  if Transfn.is_error g.registry code then
    Error_at g.sites.(Transfn.error_event g.registry code)
  else In_state code
