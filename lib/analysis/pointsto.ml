(* Whole-program Andersen points-to analysis over resolved JIR.

   Flow- and context-insensitive, field-sensitive on named fields: one
   abstract location per allocation site ([Rnew] statement id, plus the
   [Rnull] pseudo-allocation when null tracking is on), one node per
   (method, variable) pair, one lazily-created cell per (allocation,
   field).  Subset constraints:

     new:    x = new C      =>  {o_sid} ⊆ pts(x)
     copy:   x = y          =>  pts(y) ⊆ pts(x)
     load:   x = y.f        =>  ∀ o ∈ pts(y): pts(o.f) ⊆ pts(x)
     store:  x.f = y        =>  ∀ o ∈ pts(x): pts(y) ⊆ pts(o.f)
     call:   parameter binding / return flow for program-defined callees
             (library calls bind nothing; they only fire FSM events)

   The solver is a deterministic FIFO worklist over subset edges with
   online cycle elimination: the copy-edge graph is Tarjan-collapsed once
   after constraint generation and again whenever enough propagation work
   has accumulated, so cyclic copy chains (recursion, loops threaded
   through helpers) become single nodes.  All iteration orders are fixed
   (integer node ids, sorted sets), so results are byte-stable.

   The result is a sound over-approximation of the CFL-reachability
   [FlowsTo] relation the closure engine computes on the alias graph:
   every graph-derivable FlowsTo(o, v) fact has sid(o) ∈ pts(v).  That
   directional guarantee is what makes the alias-graph slicer sound: it
   drops Assign-labeled edges whose source variable has an empty points-to
   set — no FlowsTo derivation can cross such an edge, so the closure is
   unchanged edge-for-edge. *)

module IS = Set.Make (Int)
module SS = Set.Make (String)

type alloc = {
  o_sid : int;
  o_cls : string;
  o_at : Jir.Ast.pos;
  o_meth : string;  (* method id of the allocating method *)
}

type t = {
  program : Jir.Ast.program;
  idx : Jir.Ast.index;
  track_null : bool;
  (* nodes are dense ints; arrays grow as field cells appear during solving *)
  mutable n : int;
  mutable pts : IS.t array;
  mutable succ : IS.t array;  (* copy edges, may hold stale (merged) ids *)
  mutable loads : (string * int) list array;  (* base -> (field, dst) *)
  mutable stores : (string * int) list array;  (* base -> (field, src) *)
  mutable rep : int array;  (* union-find parent *)
  mutable in_q : bool array;
  queue : int Queue.t;
  var_node : (string * string, int) Hashtbl.t;  (* (method id, var) *)
  cell_node : (int * string, int) Hashtbl.t;  (* (alloc sid, field) *)
  allocs : (int, alloc) Hashtbl.t;
  mutable alloc_sids : int list;  (* sorted, set after solving *)
  mutable n_collapsed : int;  (* nodes merged away by cycle elimination *)
  mutable ops : int;  (* propagations since the last collapse *)
}

(* Variable node holding a method's returned objects; the bracket syntax
   cannot collide with source variable names. *)
let ret_var = "<ret>"

(* Receiver formal of instance methods; must agree with
   [Alias_graph.this_var]. *)
let this_var = "this"

(* Class of the [Rnull] pseudo-allocation; must agree with
   [Alias_graph.null_class] (graphgen depends on analysis-free layers only,
   so the string is repeated here). *)
let null_class = "<null>"

(* ---------------- node store ---------------- *)

let grow t wanted =
  let cap = max 64 (max wanted (2 * Array.length t.pts)) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.pts <- extend t.pts IS.empty;
  t.succ <- extend t.succ IS.empty;
  t.loads <- extend t.loads [];
  t.stores <- extend t.stores [];
  t.in_q <- extend t.in_q false;
  let r = Array.init cap (fun i -> i) in
  Array.blit t.rep 0 r 0 t.n;
  t.rep <- r

let new_node t =
  if t.n >= Array.length t.pts then grow t (t.n + 1);
  let i = t.n in
  t.n <- i + 1;
  i

let rec find t i =
  let p = t.rep.(i) in
  if p = i then i
  else begin
    let r = find t p in
    t.rep.(i) <- r;
    r
  end

let enqueue t i =
  let r = find t i in
  if not t.in_q.(r) then begin
    t.in_q.(r) <- true;
    Queue.add r t.queue
  end

let var_nd t mid v =
  match Hashtbl.find_opt t.var_node (mid, v) with
  | Some n -> n
  | None ->
      let n = new_node t in
      Hashtbl.add t.var_node (mid, v) n;
      n

let ret_nd t mid = var_nd t mid ret_var

let cell_nd t o f =
  match Hashtbl.find_opt t.cell_node (o, f) with
  | Some n -> n
  | None ->
      let n = new_node t in
      Hashtbl.add t.cell_node (o, f) n;
      n

(* ---------------- constraints ---------------- *)

let add_pts t node sid =
  let r = find t node in
  if not (IS.mem sid t.pts.(r)) then begin
    t.pts.(r) <- IS.add sid t.pts.(r);
    enqueue t r
  end

let add_edge t a b =
  let a = find t a and b = find t b in
  if a <> b && not (IS.mem b t.succ.(a)) then begin
    t.succ.(a) <- IS.add b t.succ.(a);
    if not (IS.subset t.pts.(a) t.pts.(b)) then begin
      t.pts.(b) <- IS.union t.pts.(b) t.pts.(a);
      enqueue t b
    end
  end

let add_load t base f dst =
  let r = find t base in
  t.loads.(r) <- (f, dst) :: t.loads.(r);
  enqueue t r

let add_store t base f src =
  let r = find t base in
  t.stores.(r) <- (f, src) :: t.stores.(r);
  enqueue t r

(* ---------------- cycle elimination ---------------- *)

(* Tarjan over the copy-edge graph restricted to representatives; every
   non-trivial SCC is merged into its smallest member.  Components are
   collected first and merged afterwards so [find] is stable during the
   traversal. *)
let collapse t =
  t.ops <- 0;
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let comps = ref [] in
  let succs v =
    IS.fold
      (fun w acc ->
        let w = find t w in
        if w = v then acc else IS.add w acc)
      t.succ.(v) IS.empty
  in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    IS.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      match pop [] with [] | [ _ ] -> () | members -> comps := members :: !comps
    end
  in
  for v = 0 to t.n - 1 do
    if find t v = v && not (Hashtbl.mem index v) then strongconnect v
  done;
  List.iter
    (fun members ->
      let r = List.fold_left min (List.hd members) members in
      List.iter
        (fun v ->
          if v <> r then begin
            t.n_collapsed <- t.n_collapsed + 1;
            t.pts.(r) <- IS.union t.pts.(r) t.pts.(v);
            t.succ.(r) <- IS.union t.succ.(r) t.succ.(v);
            t.loads.(r) <- List.sort_uniq compare (t.loads.(r) @ t.loads.(v));
            t.stores.(r) <-
              List.sort_uniq compare (t.stores.(r) @ t.stores.(v));
            t.rep.(v) <- r;
            t.pts.(v) <- IS.empty;
            t.succ.(v) <- IS.empty;
            t.loads.(v) <- [];
            t.stores.(v) <- []
          end)
        members;
      enqueue t r)
    (List.rev !comps)

(* ---------------- solving ---------------- *)

let process t r =
  let p = t.pts.(r) in
  List.iter
    (fun (f, dst) -> IS.iter (fun o -> add_edge t (cell_nd t o f) dst) p)
    t.loads.(r);
  List.iter
    (fun (f, src) -> IS.iter (fun o -> add_edge t src (cell_nd t o f)) p)
    t.stores.(r);
  IS.iter
    (fun d ->
      let d = find t d in
      if d <> r && not (IS.subset t.pts.(r) t.pts.(d)) then begin
        t.pts.(d) <- IS.union t.pts.(d) t.pts.(r);
        t.ops <- t.ops + 1;
        enqueue t d
      end)
    t.succ.(r)

let solve t =
  while not (Queue.is_empty t.queue) do
    let i = Queue.pop t.queue in
    t.in_q.(i) <- false;
    let r = find t i in
    if r = i then begin
      process t r;
      (* online cycle elimination: dynamic load/store edges keep creating
         new copy cycles, so re-collapse when propagation work piles up *)
      if t.ops > (4 * t.n) + 64 then collapse t
    end
    else enqueue t r
  done

(* ---------------- constraint generation ---------------- *)

let record_alloc t ~sid ~cls ~at ~mid =
  if not (Hashtbl.mem t.allocs sid) then
    Hashtbl.add t.allocs sid { o_sid = sid; o_cls = cls; o_at = at; o_meth = mid }

(* Bind actuals to formals of a program-defined callee; library calls bind
   nothing (their only effect is the FSM event the graph layer models). *)
let bind_args t ~mid (callee : Jir.Ast.meth) args =
  let cid = Jir.Ast.meth_id callee in
  List.iteri
    (fun i arg ->
      match arg with
      | Jir.Ast.Var y -> (
          match List.nth_opt callee.Jir.Ast.params i with
          | Some (_, formal) -> add_edge t (var_nd t mid y) (var_nd t cid formal)
          | None -> ())
      | _ -> ())
    args

let bind_call t ~mid ~lhs (c : Jir.Ast.call) =
  match
    Jir.Ast.find_method_idx t.idx ~cls:c.Jir.Ast.target_class
      ~meth:c.Jir.Ast.mname
  with
  | None -> ()
  | Some callee ->
      let cid = Jir.Ast.meth_id callee in
      (match c.Jir.Ast.recv with
      | Some r -> add_edge t (var_nd t mid r) (var_nd t cid this_var)
      | None -> ());
      bind_args t ~mid callee c.Jir.Ast.args;
      (match lhs with
      | Some v -> add_edge t (ret_nd t cid) (var_nd t mid v)
      | None -> ())

let gen_rhs t ~mid (s : Jir.Ast.stmt) v (r : Jir.Ast.rhs) =
  match r with
  | Jir.Ast.Rnew (cls, args) -> (
      record_alloc t ~sid:s.Jir.Ast.sid ~cls ~at:s.Jir.Ast.at ~mid;
      add_pts t (var_nd t mid v) s.Jir.Ast.sid;
      (* a program-defined constructor receives the fresh object as [this] *)
      match Jir.Ast.find_method_idx t.idx ~cls ~meth:"<init>" with
      | Some init ->
          add_edge t (var_nd t mid v)
            (var_nd t (Jir.Ast.meth_id init) this_var);
          bind_args t ~mid init args
      | None -> ())
  | Jir.Ast.Rload (y, f) -> add_load t (var_nd t mid y) f (var_nd t mid v)
  | Jir.Ast.Rcall c -> bind_call t ~mid ~lhs:(Some v) c
  | Jir.Ast.Rexpr (Jir.Ast.Var y) ->
      add_edge t (var_nd t mid y) (var_nd t mid v)
  | Jir.Ast.Rexpr _ -> ()
  | Jir.Ast.Rnull ->
      if t.track_null then begin
        record_alloc t ~sid:s.Jir.Ast.sid ~cls:null_class ~at:s.Jir.Ast.at ~mid;
        add_pts t (var_nd t mid v) s.Jir.Ast.sid
      end

let gen_stmt t ~mid (s : Jir.Ast.stmt) =
  match s.Jir.Ast.kind with
  | Jir.Ast.Decl (_, v, Some r) | Jir.Ast.Assign (v, r) -> gen_rhs t ~mid s v r
  | Jir.Ast.Decl (_, _, None) -> ()
  | Jir.Ast.Store (x, f, y) ->
      add_store t (var_nd t mid x) f (var_nd t mid y)
  | Jir.Ast.Expr c -> bind_call t ~mid ~lhs:None c
  | Jir.Ast.Return (Some (Jir.Ast.Var r)) ->
      add_edge t (var_nd t mid r) (ret_nd t mid)
  | Jir.Ast.Return _ | Jir.Ast.Throw _ -> ()
  | Jir.Ast.If _ | Jir.Ast.While _ | Jir.Ast.Try _ -> ()

let analyze ?(track_null = false) (program : Jir.Ast.program) : t =
  let t =
    {
      program;
      idx = Jir.Ast.index program;
      track_null;
      n = 0;
      pts = [||];
      succ = [||];
      loads = [||];
      stores = [||];
      rep = [||];
      in_q = [||];
      queue = Queue.create ();
      var_node = Hashtbl.create 256;
      cell_node = Hashtbl.create 64;
      allocs = Hashtbl.create 64;
      alloc_sids = [];
      n_collapsed = 0;
      ops = 0;
    }
  in
  List.iter
    (fun (m : Jir.Ast.meth) ->
      let mid = Jir.Ast.meth_id m in
      List.iter (gen_stmt t ~mid) (Jir.Ast.block_stmts m.Jir.Ast.body))
    (Jir.Ast.all_methods program);
  (* static copy cycles (recursion) collapse before the first propagation *)
  collapse t;
  solve t;
  t.alloc_sids <-
    List.sort compare (Hashtbl.fold (fun sid _ acc -> sid :: acc) t.allocs []);
  t

(* ---------------- queries ---------------- *)

let pts_node t n = t.pts.(find t n)

let pts_sids t ~meth_id ~var : int list =
  match Hashtbl.find_opt t.var_node (meth_id, var) with
  | None -> []
  | Some n -> IS.elements (pts_node t n)

let nonempty t ~meth_id ~var =
  match Hashtbl.find_opt t.var_node (meth_id, var) with
  | None -> false
  | Some n -> not (IS.is_empty (pts_node t n))

let alloc_site t sid = Hashtbl.find_opt t.allocs sid
let n_nodes t = t.n
let n_collapsed t = t.n_collapsed

(* Points-to set as (class, file, line) sites: statement ids are a global
   counter, so anything compared across program builds must be site-keyed. *)
let pts_sites t ~meth_id ~var : (string * string * int) list =
  pts_sids t ~meth_id ~var
  |> List.filter_map (fun sid -> Hashtbl.find_opt t.allocs sid)
  |> List.map (fun a ->
         (a.o_cls, a.o_at.Jir.Ast.file, a.o_at.Jir.Ast.line))
  |> List.sort_uniq compare

(* Deterministic dump of every non-empty variable points-to set, site-keyed
   so two analyses of equal programs render byte-identically. *)
let render t =
  let site (a : alloc) =
    Printf.sprintf "%s@%s:%d" a.o_cls a.o_at.Jir.Ast.file a.o_at.Jir.Ast.line
  in
  let buf = Buffer.create 1024 in
  Hashtbl.fold (fun key n acc -> (key, n) :: acc) t.var_node []
  |> List.sort compare
  |> List.iter (fun ((mid, v), n) ->
         let sites =
           IS.elements (pts_node t n)
           |> List.filter_map (fun sid -> Hashtbl.find_opt t.allocs sid)
           |> List.map site |> List.sort_uniq compare
         in
         if sites <> [] then
           Buffer.add_string buf
             (Printf.sprintf "%s %s -> {%s}\n" mid v (String.concat ", " sites)));
  Buffer.contents buf

(* ---------------- whole-program lints ---------------- *)

(* Does call [c] leave the program (its target is no program method)? *)
let library t (c : Jir.Ast.call) =
  Jir.Ast.find_method_idx t.idx ~cls:c.Jir.Ast.target_class
    ~meth:c.Jir.Ast.mname
  = None

(* Heap stores whose stored region is never loaded back through any alias
   of the receiver: the written cell is unreachable dead weight. *)
let never_read_diags (t : t) : Lint.diag list =
  (* (field, base points-to set) of every load in the program *)
  let loads = ref [] in
  List.iter
    (fun (m : Jir.Ast.meth) ->
      let mid = Jir.Ast.meth_id m in
      List.iter
        (fun (s : Jir.Ast.stmt) ->
          match s.Jir.Ast.kind with
          | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rload (y, f)))
          | Jir.Ast.Assign (_, Jir.Ast.Rload (y, f)) ->
              loads := (f, pts_node t (var_nd t mid y)) :: !loads
          | _ -> ())
        (Jir.Ast.block_stmts m.Jir.Ast.body))
    (Jir.Ast.all_methods t.program);
  let loads = !loads in
  let diags = ref [] in
  List.iter
    (fun (m : Jir.Ast.meth) ->
      let mid = Jir.Ast.meth_id m in
      List.iter
        (fun (s : Jir.Ast.stmt) ->
          match s.Jir.Ast.kind with
          | Jir.Ast.Store (x, f, y) ->
              let px = pts_node t (var_nd t mid x) in
              let py = pts_node t (var_nd t mid y) in
              if
                (not (IS.is_empty px))
                && (not (IS.is_empty py))
                && not
                     (List.exists
                        (fun (f', pw) ->
                          f' = f && not (IS.is_empty (IS.inter px pw)))
                        loads)
              then
                diags :=
                  Lint.diag "pointsto-never-read" mid s.Jir.Ast.at
                    (Printf.sprintf
                       "store into field '%s' is never loaded through any \
                        alias of the receiver"
                       f)
                  :: !diags
          | _ -> ())
        (Jir.Ast.block_stmts m.Jir.Ast.body))
    (Jir.Ast.all_methods t.program);
  List.sort_uniq compare !diags

(* Objects of a taint-source class parked in the heap and reaching a sink
   call in a *different* method: the alias chain (store, load through an
   alias, sink) is invisible to every intraprocedural lint. *)
let confused_sink_diags ?(sources = [ "UserInput" ])
    ?(sinks = [ "exec"; "send" ]) (t : t) : Lint.diag list =
  let source_sids =
    List.filter
      (fun sid ->
        let a = Hashtbl.find t.allocs sid in
        List.mem a.o_cls sources)
      t.alloc_sids
  in
  if source_sids = [] then []
  else begin
    (* sources that actually pass through the heap *)
    let stored = ref IS.empty in
    List.iter
      (fun (m : Jir.Ast.meth) ->
        let mid = Jir.Ast.meth_id m in
        List.iter
          (fun (s : Jir.Ast.stmt) ->
            match s.Jir.Ast.kind with
            | Jir.Ast.Store (_, _, y) ->
                stored := IS.union !stored (pts_node t (var_nd t mid y))
            | _ -> ())
          (Jir.Ast.block_stmts m.Jir.Ast.body))
      (Jir.Ast.all_methods t.program);
    let diags = ref [] in
    List.iter
      (fun (m : Jir.Ast.meth) ->
        let mid = Jir.Ast.meth_id m in
        List.iter
          (fun (s : Jir.Ast.stmt) ->
            match s.Jir.Ast.kind with
            | Jir.Ast.Expr c
            | Jir.Ast.Decl (_, _, Some (Jir.Ast.Rcall c))
            | Jir.Ast.Assign (_, Jir.Ast.Rcall c) -> (
                match c.Jir.Ast.recv with
                | Some r when library t c && List.mem c.Jir.Ast.mname sinks -> (
                    let reaching =
                      IS.inter !stored (pts_node t (var_nd t mid r))
                    in
                    let tainted =
                      List.filter
                        (fun sid ->
                          IS.mem sid reaching
                          && (Hashtbl.find t.allocs sid).o_meth <> mid)
                        source_sids
                    in
                    match tainted with
                    | [] -> ()
                    | sid :: _ ->
                        let a = Hashtbl.find t.allocs sid in
                        diags :=
                          Lint.diag "pointsto-confused-sink" mid s.Jir.Ast.at
                            (Printf.sprintf
                               "tainted %s allocated at %s:%d reaches sink \
                                '%s' through the heap"
                               a.o_cls a.o_at.Jir.Ast.file a.o_at.Jir.Ast.line
                               c.Jir.Ast.mname)
                          :: !diags)
                | _ -> ())
            | _ -> ())
          (Jir.Ast.block_stmts m.Jir.Ast.body))
      (Jir.Ast.all_methods t.program);
    List.sort_uniq compare !diags
  end

(* Both points-to lints, ordered like {!Lint.check_program}. *)
let diags (t : t) : Lint.diag list =
  never_read_diags t @ confused_sink_diags t
  |> List.sort (fun (a : Lint.diag) (b : Lint.diag) ->
         compare
           (a.Lint.at.Jir.Ast.file, a.Lint.at.Jir.Ast.line, a.Lint.lint,
            a.Lint.meth)
           (b.Lint.at.Jir.Ast.file, b.Lint.at.Jir.Ast.line, b.Lint.lint,
            b.Lint.meth))
