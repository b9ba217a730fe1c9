(* Tests for graph generation: the clone tree (context sensitivity plan),
   variable versioning, the alias program graph, and the dataflow graph. *)

module Icfet = Symexec.Icfet
module Clone_tree = Graphgen.Clone_tree
module Alias_graph = Graphgen.Alias_graph
module Dataflow_graph = Graphgen.Dataflow_graph
module Varver = Graphgen.Varver
module Pg = Cfl.Pointer_grammar

let prepare src =
  let p = Jir.Unroll.unroll_program ~bound:2 (Jir.Resolve.parse_exn src) in
  let icfet = Icfet.build p in
  let cg = Jir.Callgraph.build p in
  let clones = Clone_tree.build icfet cg in
  (p, icfet, cg, clones)

(* ---------------- clone tree ---------------- *)

let diamond = {|
class Leaf {
  void work(int x) { return; }
}
class Mid {
  void m1(int x) { Leaf.work(x); return; }
  void m2(int x) { Leaf.work(x); return; }
}
class Main {
  void main(int x) {
    Mid.m1(x);
    Mid.m2(x);
    return;
  }
}
entry Main.main;
|}

let test_clone_tree_diamond () =
  let _, _, _, clones = prepare diamond in
  (* main, m1, m2, and TWO clones of Leaf.work *)
  Alcotest.(check int) "five instances" 5 (Clone_tree.n_instances clones);
  Alcotest.(check int) "one entry" 1
    (List.length clones.Clone_tree.entry_instances)

let test_clone_tree_contexts () =
  let _, icfet, _, clones = prepare diamond in
  let work_instances =
    Array.to_list clones.Clone_tree.instances
    |> List.filter (fun (i : Clone_tree.instance) ->
           Jir.Ast.meth_id (Icfet.cfet icfet i.Clone_tree.meth).Symexec.Cfet.meth
           = "Leaf.work")
  in
  Alcotest.(check int) "two clones of Leaf.work" 2 (List.length work_instances);
  (* their context chains differ *)
  let chains =
    List.map
      (fun (i : Clone_tree.instance) ->
        Clone_tree.context_chain clones i.Clone_tree.inst_id)
      work_instances
  in
  Alcotest.(check bool) "distinct contexts" true
    (List.length (List.sort_uniq compare chains) = 2)

let recursive = {|
class R {
  void even(int n) {
    if (n > 0) {
      R.odd(n - 1);
    }
    return;
  }
  void odd(int n) {
    if (n > 0) {
      R.even(n - 1);
    }
    return;
  }
}
class Main {
  void main(int n) { R.even(n); return; }
}
entry Main.main;
|}

let test_clone_tree_recursion_shared () =
  let _, _, _, clones = prepare recursive in
  (* main + one shared group for {even, odd}: 3 instances, finite *)
  Alcotest.(check int) "three instances" 3 (Clone_tree.n_instances clones)

let test_clone_tree_cap () =
  let p, icfet, cg, _ = prepare diamond in
  ignore p;
  Alcotest.(check bool) "cap enforced" true
    (try
       ignore (Clone_tree.build ~max_instances:2 icfet cg);
       false
     with Clone_tree.Too_many_instances _ -> true)

(* ---------------- variable versioning ---------------- *)

let test_varver_kills () =
  let src = {|
class C {
  void m(int p) {
    FileWriter w = new FileWriter();
    w.close();
    w = new FileWriter();
    w.write(p);
    return;
  }
}
entry C.m;
|} in
  let _, icfet, _, _ = prepare src in
  let c = Option.get (Icfet.cfet_of_meth icfet "C.m") in
  let node = Symexec.Cfet.node c 0 in
  let vv = Varver.analyze node.Symexec.Cfet.stmts in
  let sids =
    List.filter_map
      (fun (s : Jir.Ast.stmt) ->
        match s.Jir.Ast.kind with
        | Jir.Ast.Expr c -> Some (s.Jir.Ast.sid, c.Jir.Ast.mname)
        | _ -> None)
      node.Symexec.Cfet.stmts
  in
  (match sids with
  | [ (close_sid, "close"); (write_sid, "write") ] ->
      Alcotest.(check int) "close sees version 1" 1
        (Varver.use vv ~sid:close_sid ~var:"w");
      Alcotest.(check int) "write sees version 2" 2
        (Varver.use vv ~sid:write_sid ~var:"w")
  | _ -> Alcotest.fail "unexpected events");
  Alcotest.(check int) "final version" 2 (Varver.last vv ~var:"w");
  Alcotest.(check bool) "no entry use of w" false
    (Varver.is_entry_use vv ~var:"w");
  Alcotest.(check bool) "p read at entry" true (Varver.is_entry_use vv ~var:"p")

(* ---------------- alias graph ---------------- *)

let test_alias_graph_figure5b () =
  (* the paper's Figure 5b example: the alias graph has the object vertex,
     new/assign edges within block 2, and artificial edges threading
     out/o into the deeper blocks *)
  let src = {|
class Main {
  void main(int a) {
    FileWriter out = null;
    FileWriter o = null;
    int x = a;
    int y = x;
    if (x >= 0) {
      out = new FileWriter();
      o = out;
      y = y - 1;
    } else {
      y = y + 1;
    }
    if (y > 0) {
      out.write(x);
      o.close();
    }
    return;
  }
}
entry Main.main;
|} in
  let _, icfet, _, clones = prepare src in
  let ag = Alias_graph.build icfet clones in
  Alcotest.(check int) "one object" 1 (List.length (Alias_graph.objects ag));
  let new_edges = ref 0 and artificial = ref [] in
  Alias_graph.iter_edges ag (fun e ->
      (match e.Alias_graph.label with
      | Pg.New -> incr new_edges
      | _ -> ());
      match (e.Alias_graph.label, e.Alias_graph.enc) with
      | Pg.Assign, [ Pathenc.Encoding.Interval { first; last; _ } ]
        when first <> last ->
          artificial := (first, last) :: !artificial
      | _ -> ());
  Alcotest.(check int) "one new edge" 1 !new_edges;
  (* out is threaded from block 2 into blocks 5 and 6 (the then-branch of
     the second conditional duplicated under both first-branch outcomes) *)
  Alcotest.(check bool) "artificial edges exist" true (!artificial <> [])

let test_alias_graph_interprocedural_edges () =
  let src = {|
class H {
  FileWriter make(int n) {
    FileWriter w = new FileWriter();
    return w;
  }
}
class Main {
  void main(int n) {
    H h = new H();
    FileWriter f = h.make(n);
    f.close();
    return;
  }
}
entry Main.main;
|} in
  let _, icfet, _, clones = prepare src in
  let ag = Alias_graph.build icfet clones in
  let param_edges = ref 0 and ret_edges = ref 0 in
  Alias_graph.iter_edges ag (fun e ->
      match e.Alias_graph.enc with
      | [ Pathenc.Encoding.Call _ ] -> incr param_edges
      | [ Pathenc.Encoding.Ret _ ] -> incr ret_edges
      | _ -> ());
  (* receiver-this edge + (no var args) for make; value-return edge for f *)
  Alcotest.(check bool) "param edges" true (!param_edges >= 1);
  Alcotest.(check int) "one return edge" 1 !ret_edges

let test_alias_graph_edge_cap () =
  let _, icfet, _, clones = prepare diamond in
  Alcotest.(check bool) "cap enforced" true
    (try ignore (Alias_graph.build ~max_edges:1 icfet clones); false
     with Alias_graph.Too_many_edges _ -> true)

(* ---------------- dataflow graph ---------------- *)

let run_alias_engine icfet ag =
  let workdir = Testdir.fresh () in
  let module AE = Engine.Make (Cfl.Pointer_grammar) in
  let t =
    AE.create
      ~config:(Engine.default_config ~workdir)
      ~decode:(Icfet.constraint_of icfet) ~workdir ()
  in
  Alias_graph.iter_edges ag (fun e ->
      AE.add_seed t ~src:e.Alias_graph.src ~dst:e.Alias_graph.dst
        ~label:e.Alias_graph.label ~enc:e.Alias_graph.enc);
  AE.run t;
  let flows : Dataflow_graph.flows = Hashtbl.create 64 in
  AE.iter_result_edges t (fun ~src ~dst ~label enc ->
      match (Pg.of_int label, Alias_graph.info ag src) with
      | Pg.Flows_to, Alias_graph.Obj_vertex _ ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt flows src) in
          Hashtbl.replace flows src ((dst, enc ()) :: cur)
      | _ -> ());
  flows

let test_dataflow_graph_structure () =
  let src = {|
class Main {
  void main(int a) {
    FileWriter w = new FileWriter();
    if (a > 0) {
      w.close();
    }
    return;
  }
}
entry Main.main;
|} in
  let _, icfet, _, clones = prepare src in
  let ag = Alias_graph.build icfet clones in
  let flows = run_alias_engine icfet ag in
  let fsm = Checkers.fsm "io" in
  let seeds = Engine.Edgebuf.create () in
  let dg = Dataflow_graph.build ~seeds icfet clones ag flows fsm in
  Alcotest.(check int) "one tracked object" 1
    (List.length (Dataflow_graph.tracked dg));
  Alcotest.(check bool) "seeds exist" true (Dataflow_graph.n_seeds dg > 0);
  Alcotest.(check int) "every seed in the buffer" (Dataflow_graph.n_seeds dg)
    (Engine.Edgebuf.n seeds);
  (* exactly one Track seed *)
  let track_seeds = ref 0 in
  for i = 0 to Engine.Edgebuf.n seeds - 1 do
    match Cfl.Dataflow_grammar.of_int (Engine.Edgebuf.label seeds i) with
    | Cfl.Dataflow_grammar.Track _ -> incr track_seeds
    | Cfl.Dataflow_grammar.Step _ -> ()
  done;
  Alcotest.(check int) "one track seed" 1 !track_seeds

let test_dataflow_untracked_class_ignored () =
  let src = {|
class Main {
  void main(int a) {
    Widget w = new Widget();
    w.spin(a);
    return;
  }
}
entry Main.main;
|} in
  let _, icfet, _, clones = prepare src in
  let ag = Alias_graph.build icfet clones in
  let flows = run_alias_engine icfet ag in
  let seeds = Engine.Edgebuf.create () in
  let dg =
    Dataflow_graph.build ~seeds icfet clones ag flows (Checkers.fsm "io")
  in
  Alcotest.(check int) "nothing tracked" 0
    (List.length (Dataflow_graph.tracked dg));
  Alcotest.(check int) "no seeds" 0 (Dataflow_graph.n_seeds dg);
  Alcotest.(check int) "an empty buffer" 0 (Engine.Edgebuf.n seeds)

(* [Dataflow_graph.build] walks forward from the allocation, so a point
   the object cannot reach is never numbered and emits no seed, and it
   numbers only the points phase 3 or the engine's checks need.  Here the
   allocation sits in [Factory.open], entered after a branch in [main]:

     main node 0: [if (a > 0)]        branch
     main node 2: [return]            true child, a leaf
     main node 1: [w = Factory.open(a); Helper.use(w); w.close(); return]
                  two dives (open, use): segments 0, 1, 2 and exit 3
     open node 0: [w = new FileWriter(); return w]   a leaf, no dives
     use node 0:  [f.write(1); return]                a leaf, no dives

   The walk visits seven points, in this order:
     open(0, seg 0) --hop-->         open(0, exit)
     open(0, exit)  --return-->      main(1, seg 1)
     main(1, seg 1) --dive-->        use(0, seg 0)
     use(0, seg 0)  --hop (write)--> use(0, exit)
     use(0, exit)   --return-->      main(1, seg 2)
     main(1, seg 2) --hop (close)--> main(1, exit), a program exit
   Four of them are numbered, in that order:
     0 open(0, seg 0): the allocation's point, where the Track seed lands;
     1 open(0, exit): the source of a return, which keeps the feasibility
       check of open's path before the return drops it;
     2 use(0, exit): the destination of write's Step, and the source of a
       return;
     3 main(1, exit): the destination of close's Step, and a program exit.
   main's segments 1 and 2 and use's segment 0 each have one identity
   in-Step and no event, exit or return of their own, so the builder folds
   them into their out-Steps: 0 -> 1 (the hop), 1 -> 2 (the return, the
   dive and write's hop) and 2 -> 3 (the return and close's hop).  With
   the Track seed from the source vertex 4 to point 0, that makes four
   seeds and five vertices.  Emitting every node of the three relevant
   clones would also number main's node 0 (segment and exit), node 2
   (segment and exit) and node 1's segment 0, all before the allocation. *)
let test_dataflow_walk_from_allocation () =
  let src = {|
class Factory {
  FileWriter open(int n) {
    FileWriter w = new FileWriter();
    return w;
  }
}
class Helper {
  void use(FileWriter f) {
    f.write(1);
    return;
  }
}
class Main {
  void main(int a) {
    if (a > 0) {
      return;
    }
    FileWriter w = Factory.open(a);
    Helper.use(w);
    w.close();
    return;
  }
}
entry Main.main;
|} in
  let _, icfet, _, clones = prepare src in
  let ag = Alias_graph.build icfet clones in
  let flows = run_alias_engine icfet ag in
  let seeds = Engine.Edgebuf.create () in
  let dg =
    Dataflow_graph.build ~seeds icfet clones ag flows (Checkers.fsm "io")
  in
  Alcotest.(check int) "one tracked object" 1
    (List.length (Dataflow_graph.tracked dg));
  Alcotest.(check int) "four seeds" 4 (Dataflow_graph.n_seeds dg);
  Alcotest.(check int) "every seed in the buffer" 4 (Engine.Edgebuf.n seeds);
  Alcotest.(check int) "four points and the source" 5
    (Dataflow_graph.n_vertices dg);
  let edges = ref [] in
  for i = 0 to Engine.Edgebuf.n seeds - 1 do
    let kind =
      match Cfl.Dataflow_grammar.of_int (Engine.Edgebuf.label seeds i) with
      | Cfl.Dataflow_grammar.Track _ -> "track"
      | Cfl.Dataflow_grammar.Step f when f = Cfl.Transfn.identity_id -> "id"
      | Cfl.Dataflow_grammar.Step _ -> "event"
    in
    edges :=
      (Engine.Edgebuf.src seeds i, Engine.Edgebuf.dst seeds i, kind) :: !edges
  done;
  Alcotest.(check (list (triple int int string)))
    "the hop, the folded write and close Steps, and the Track seed"
    [ (0, 1, "id"); (1, 2, "event"); (2, 3, "event"); (4, 0, "track") ]
    (List.rev !edges);
  Alcotest.(check bool) "the walk ends at a normal program exit" true
    (Dataflow_graph.exit_kind dg 3 = Some Dataflow_graph.Exit_normal)

(* [f name fsm dg seeds] for the dataflow graph of each typestate property
   of the nine built-in checkers, on the worked example and the mini
   subjects. *)
let each_dataflow_graph f =
  let figure3b =
    let path =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../examples/figure3b.jir"
    in
    In_channel.with_open_bin path In_channel.input_all
    |> Jir.Resolve.parse_exn ~file:"figure3b.jir"
  in
  let cs =
    List.map Checkers.resolve
      [ "io"; "lock"; "exception"; "socket"; "null"; "lock_order"; "taint";
        "close"; "exc_twr" ]
  in
  let module G = Workload.Generator in
  let generated f = (f () : G.subject).G.program in
  List.iter
    (fun (name, program) ->
      let workdir = Testdir.fresh () in
      let config =
        { (Grapple.Pipeline.default_config ~workdir) with
          Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
          prefilter_properties = Checkers.fsms cs }
      in
      let p = Grapple.Pipeline.prepare ~config ~workdir program in
      List.iter
        (fun (fsm : Fsm.t) ->
          let seeds = Engine.Edgebuf.create () in
          let dg =
            Dataflow_graph.build ~seeds p.Grapple.Pipeline.icfet
              p.Grapple.Pipeline.clones p.Grapple.Pipeline.alias_graph
              p.Grapple.Pipeline.flows fsm
          in
          f name fsm dg seeds)
        (Checkers.fsms cs);
      Grapple.Pipeline.cleanup p [])
    [ ("figure3b", figure3b);
      ("minizk", generated G.mini_zookeeper);
      ("minihadoop", generated G.mini_hadoop);
      ("minihdfs", generated G.mini_hdfs);
      ("minihbase", generated G.mini_hbase);
      ("minilocks", generated G.mini_locks);
      ("minitaint", generated G.mini_taint);
      ("miniclose", generated G.mini_close);
      ("minitwr", generated G.mini_twr) ]

(* The invariant of [Dataflow_graph.build]: every seed it emits can join
   a Track path.  A breadth-first search over the seed buffer from every
   Track seed must reach the source of every seed. *)
let test_dataflow_seeds_reachable () =
  each_dataflow_graph (fun name (fsm : Fsm.t) dg seeds ->
      let n_seeds = Engine.Edgebuf.n seeds in
      let succ = Array.make (Dataflow_graph.n_vertices dg) [] in
      let reached = Array.make (Dataflow_graph.n_vertices dg) false in
      let queue = Queue.create () in
      let reach v =
        if not reached.(v) then begin
          reached.(v) <- true;
          Queue.add v queue
        end
      in
      for i = 0 to n_seeds - 1 do
        let src = Engine.Edgebuf.src seeds i in
        succ.(src) <- Engine.Edgebuf.dst seeds i :: succ.(src);
        match Cfl.Dataflow_grammar.of_int (Engine.Edgebuf.label seeds i) with
        | Cfl.Dataflow_grammar.Track _ -> reach src
        | Cfl.Dataflow_grammar.Step _ -> ()
      done;
      while not (Queue.is_empty queue) do
        List.iter reach succ.(Queue.pop queue)
      done;
      let dead = ref 0 in
      for i = 0 to n_seeds - 1 do
        if not reached.(Engine.Edgebuf.src seeds i) then incr dead
      done;
      Alcotest.(check int)
        (Printf.sprintf "%s %s: of %d seeds, unreached" name fsm.Fsm.name
           n_seeds)
        0 !dead)

(* The builder numbers only the points phase 3 or the engine's checks
   need (DESIGN.md, "The builder emits only what a Track can reach").
   Read off the seed buffer, a numbered point is passable when its one
   in-seed is an identity Step and it is no exit point and no return's
   source (a return's seed starts with its [Ret]): the builder must have
   folded it.  And what phase 3 reads stays numbered: a seed reaches every
   point but the Track sources — the allocation points, exit points and
   destinations of effects among them — and no exit point sits at vertex
   -1, where the builder would put one it left unnumbered. *)
let test_dataflow_numbers_only_what_is_read () =
  each_dataflow_graph (fun name (fsm : Fsm.t) dg seeds ->
      let n = Dataflow_graph.n_vertices dg in
      let indeg = Array.make n 0 and kept = Array.make n false in
      for i = 0 to Engine.Edgebuf.n seeds - 1 do
        let dst = Engine.Edgebuf.dst seeds i in
        indeg.(dst) <- indeg.(dst) + 1;
        (match Cfl.Dataflow_grammar.of_int (Engine.Edgebuf.label seeds i) with
        | Cfl.Dataflow_grammar.Track _ -> kept.(dst) <- true
        | Cfl.Dataflow_grammar.Step f ->
            if f <> Cfl.Transfn.identity_id then kept.(dst) <- true);
        match Engine.Edgebuf.enc seeds (Engine.Edgebuf.enc_id seeds i) with
        | Pathenc.Encoding.Ret _ :: _ ->
            kept.(Engine.Edgebuf.src seeds i) <- true
        | _ -> ()
      done;
      let sources =
        List.map
          (fun (tr : Dataflow_graph.tracked) -> tr.Dataflow_graph.source_vertex)
          (Dataflow_graph.tracked dg)
      in
      let passable = ref [] and unreached = ref [] in
      for v = n - 1 downto 0 do
        let source = List.mem v sources in
        if indeg.(v) = 0 <> source then unreached := v :: !unreached;
        if
          indeg.(v) = 1 && (not kept.(v))
          && Dataflow_graph.exit_kind dg v = None
        then passable := v :: !passable
      done;
      let what = Printf.sprintf "%s %s: " name fsm.Fsm.name in
      Alcotest.(check (list int)) (what ^ "passable points numbered") []
        !passable;
      Alcotest.(check (list int)) (what ^ "points no seed reaches") []
        !unreached;
      Alcotest.(check bool) (what ^ "every exit point numbered") true
        (Dataflow_graph.exit_kind dg (-1) = None))

let suite =
  [ Alcotest.test_case "clone tree diamond" `Quick test_clone_tree_diamond;
    Alcotest.test_case "clone tree contexts" `Quick test_clone_tree_contexts;
    Alcotest.test_case "recursion shares clones" `Quick test_clone_tree_recursion_shared;
    Alcotest.test_case "clone tree cap" `Quick test_clone_tree_cap;
    Alcotest.test_case "variable versioning kills" `Quick test_varver_kills;
    Alcotest.test_case "alias graph figure 5b" `Quick test_alias_graph_figure5b;
    Alcotest.test_case "alias graph interprocedural" `Quick
      test_alias_graph_interprocedural_edges;
    Alcotest.test_case "alias graph edge cap" `Quick test_alias_graph_edge_cap;
    Alcotest.test_case "dataflow graph structure" `Quick test_dataflow_graph_structure;
    Alcotest.test_case "dataflow ignores untracked" `Quick
      test_dataflow_untracked_class_ignored;
    Alcotest.test_case "dataflow walk from the allocation" `Quick
      test_dataflow_walk_from_allocation;
    Alcotest.test_case "dataflow seeds all reachable" `Quick
      test_dataflow_seeds_reachable;
    Alcotest.test_case "dataflow numbers only what phase 3 reads" `Quick
      test_dataflow_numbers_only_what_is_read ]
