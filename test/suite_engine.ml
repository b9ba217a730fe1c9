(* Tests for the disk-based engine: LRU cache, storage, partitioning,
   transitive closure with and without constraints, repartitioning, and the
   memoization counters. *)

module E = Pathenc.Encoding
module Pg = Cfl.Pointer_grammar
module AEngine = Engine.Make (Cfl.Pointer_grammar)

(* ---------------- LRU ---------------- *)

let test_lru_basic () =
  let c = Engine.Lru.create 2 in
  Engine.Lru.add c "a" 1;
  Engine.Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Engine.Lru.find c "a");
  Engine.Lru.add c "c" 3;  (* evicts b: a was refreshed by the find *)
  Alcotest.(check (option int)) "b evicted" None (Engine.Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Engine.Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Engine.Lru.find c "c");
  Alcotest.(check int) "size" 2 (Engine.Lru.size c)

let test_lru_update () =
  let c = Engine.Lru.create 2 in
  Engine.Lru.add c "a" 1;
  Engine.Lru.add c "a" 10;
  Alcotest.(check (option int)) "updated" (Some 10) (Engine.Lru.find c "a");
  Alcotest.(check int) "no duplicate" 1 (Engine.Lru.size c)

let test_lru_order () =
  let c = Engine.Lru.create 3 in
  Engine.Lru.add c 1 ();
  Engine.Lru.add c 2 ();
  Engine.Lru.add c 3 ();
  ignore (Engine.Lru.find c 1);
  Alcotest.(check (list int)) "mru order" [ 1; 3; 2 ] (Engine.Lru.keys c)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru capacity invariant" ~count:100
    QCheck.(list (pair (int_bound 20) (int_bound 100)))
    (fun ops ->
      let c = Engine.Lru.create 5 in
      List.iter (fun (k, v) -> Engine.Lru.add c k v) ops;
      Engine.Lru.size c <= 5)

(* ---------------- storage ---------------- *)

(* Edges as (src, dst, label code, encoding) tuples, to and from the flat
   buffer the storage codec reads and writes. *)
let buf_of_edges edges =
  let buf = Engine.Edgebuf.create () in
  List.iter
    (fun (src, dst, label, enc) ->
      Engine.Edgebuf.push_edge buf ~src ~dst ~label enc)
    edges;
  buf

let edges_of_buf buf =
  let module B = Engine.Edgebuf in
  List.init (B.n buf) (fun i ->
      (B.src buf i, B.dst buf i, B.label buf i, B.enc buf (B.enc_id buf i)))

let write_edges ?block_cap ~path edges =
  Engine.Storage.write_flat ?block_cap ~path (buf_of_edges edges)

(* The valid prefix read back, and the corruption marker. *)
let read_edges path =
  let outcome = Engine.Storage.read_flat ~path in
  (edges_of_buf outcome.Engine.Storage.buf, outcome.Engine.Storage.corrupt)

let test_storage_roundtrip () =
  let dir = Testdir.fresh () in
  let path = Filename.concat dir "edges.bin" in
  let edges =
    [ (1, 2, 0, [ E.Interval { meth = 0; first = 0; last = 3 } ]);
      (1000, 2000, 77, [ E.Call 5; E.Ret 5 ]) ]
  in
  let _ = write_edges ~path edges in
  let back, corrupt = read_edges path in
  Alcotest.(check int) "count" 2 (List.length back);
  Alcotest.(check bool) "contents equal" true (back = edges);
  Alcotest.(check bool) "intact" true (corrupt = None)

let test_storage_missing_file () =
  let outcome = Engine.Storage.read_flat ~path:"/nonexistent/nowhere.bin" in
  Alcotest.(check int) "no edges" 0
    (Engine.Edgebuf.n outcome.Engine.Storage.buf);
  Alcotest.(check int) "no bytes" 0 outcome.Engine.Storage.bytes

(* ---------------- closure without constraints ---------------- *)

(* a trivially-true decode: every path is feasible *)
let true_decode (_ : E.t) = Smt.Formula.True

let mk_engine ?(config = None) () =
  let workdir = Testdir.fresh () in
  let config =
    match config with
    | Some c -> { c with Engine.workdir }
    | None -> Engine.default_config ~workdir
  in
  AEngine.create ~config ~decode:true_decode ~workdir ()

let seed_chain t n =
  (* o --new--> v0 --assign--> v1 --assign--> ... --assign--> v(n-1) *)
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New
    ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ];
  for i = 1 to n - 1 do
    AEngine.add_seed t ~src:i ~dst:(i + 1) ~label:Pg.Assign
      ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ]
  done

let count_label t label =
  AEngine.fold_edges t
    (fun acc e -> if Pg.equal e.AEngine.label label then acc + 1 else acc)
    0

let test_closure_chain () =
  let t = mk_engine () in
  seed_chain t 5;
  AEngine.run t;
  (* flowsTo reaches every variable in the chain *)
  Alcotest.(check int) "flowsTo edges" 5 (count_label t Pg.Flows_to);
  (* each flowsTo has a mirrored bar edge *)
  Alcotest.(check int) "bar edges" 5 (count_label t Pg.Flows_to_bar);
  (* all pairs rooted at the object alias pairwise: 5x5 *)
  Alcotest.(check int) "alias edges" 25 (count_label t Pg.Alias)

let test_closure_store_load () =
  (* h1 = new H; w = new W; h1.f = w; h2 = h1; u = h2.f
     flowsTo(o_w, u) requires store/alias/load matching *)
  let t = mk_engine () in
  let iv = [ E.Interval { meth = 0; first = 0; last = 0 } ] in
  let oh = 0 and h1 = 1 and ow = 2 and w = 3 and h2 = 4 and u = 5 in
  AEngine.add_seed t ~src:oh ~dst:h1 ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:ow ~dst:w ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:w ~dst:h1 ~label:(Pg.Store 9) ~enc:iv;
  AEngine.add_seed t ~src:h1 ~dst:h2 ~label:Pg.Assign ~enc:iv;
  AEngine.add_seed t ~src:h2 ~dst:u ~label:(Pg.Load 9) ~enc:iv;
  AEngine.run t;
  let flows_to_u = ref false in
  AEngine.iter_result_edges t (fun ~src ~dst ~label _ ->
      if Pg.equal (Pg.of_int label) Pg.Flows_to && src = ow && dst = u then
        flows_to_u := true);
  Alcotest.(check bool) "object flows through the heap" true !flows_to_u

let test_closure_field_mismatch () =
  let t = mk_engine () in
  let iv = [ E.Interval { meth = 0; first = 0; last = 0 } ] in
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:2 ~dst:3 ~label:Pg.New ~enc:iv;
  AEngine.add_seed t ~src:3 ~dst:1 ~label:(Pg.Store 9) ~enc:iv;
  AEngine.add_seed t ~src:1 ~dst:4 ~label:(Pg.Load 8) ~enc:iv;
  AEngine.run t;
  let bad = ref false in
  AEngine.iter_result_edges t (fun ~src ~dst ~label _ ->
      if Pg.equal (Pg.of_int label) Pg.Flows_to && src = 2 && dst = 4 then
        bad := true);
  Alcotest.(check bool) "different fields do not match" false !bad

let test_repartitioning () =
  let workdir = Testdir.fresh () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.max_edges_per_partition = 8 }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t 20;
  AEngine.run t;
  Alcotest.(check bool) "partitions split" true (AEngine.n_partitions t > 1);
  Alcotest.(check bool) "repartitions counted" true
    (Engine.Metrics.count (AEngine.metrics t).Engine.Metrics.repartitions > 0);
  (* closure is still complete after splits *)
  Alcotest.(check int) "flowsTo complete" 20 (count_label t Pg.Flows_to)

let test_cache_counters () =
  let workdir = Testdir.fresh () in
  let t =
    AEngine.create
      ~config:(Engine.default_config ~workdir) ~decode:true_decode ~workdir ()
  in
  seed_chain t 6;
  AEngine.run t;
  let m = AEngine.metrics t in
  Alcotest.(check bool) "lookups happened" true (Engine.Metrics.count m.Engine.Metrics.cache_lookups > 0);
  Alcotest.(check bool) "some hits" true (Engine.Metrics.count m.Engine.Metrics.cache_hits > 0);
  Alcotest.(check bool) "solved <= lookups" true
    (Engine.Metrics.count m.Engine.Metrics.constraints_solved
    <= Engine.Metrics.count m.Engine.Metrics.cache_lookups)

(* A two-production grammar small enough to hand-count the engine's cache
   traffic: a.b => c and c.b => d, with no unary or mirror consequences. *)
module Abc = struct
  type t = int

  let equal = Int.equal
  let to_int l = l
  let of_int l = l
  let compose_code a b = match (a, b) with 0, 1 -> 2 | 2, 1 -> 3 | _ -> -1
  let compose a b = match compose_code a b with -1 -> None | c -> Some c
  let unary _ = []
  let mirror _ = None
  let is_result l = l >= 2
  let pp = Fmt.int
end

module CEngine = Engine.Make (Abc)

(* regression: a candidate whose verdict came from the cache used to be
   probed and counted a second time when the verdict was applied, so every
   hit counted as two hits and two lookups.  Superstep 1 derives c(0,2)
   with encoding e, a miss that is solved; superstep 2 — a second chunk —
   derives d(0,3) from it with the same encoding e, a hit. *)
let test_cache_hit_counted_once () =
  let workdir = Testdir.fresh () in
  let config = Engine.default_config ~workdir in
  let t = CEngine.create ~config ~decode:true_decode ~workdir () in
  CEngine.add_seed t ~src:0 ~dst:1 ~label:0 ~enc:[ E.Call 1 ];
  CEngine.add_seed t ~src:1 ~dst:2 ~label:1 ~enc:[];
  CEngine.add_seed t ~src:2 ~dst:3 ~label:1 ~enc:[];
  CEngine.run t;
  let m = CEngine.metrics t in
  let count c = Engine.Metrics.count c in
  Alcotest.(check int) "edges added" 2 (count m.Engine.Metrics.edges_added);
  Alcotest.(check int) "lookups" 2 (count m.Engine.Metrics.cache_lookups);
  Alcotest.(check int) "hits" 1 (count m.Engine.Metrics.cache_hits);
  Alcotest.(check int) "solved" 1 (count m.Engine.Metrics.constraints_solved);
  CEngine.cleanup t

(* Two encodings that decode to one constraint: c(0,2) with encoding
   [Call 1] and c(5,7) with [Call 2] miss the encoding cache, and the second
   finds the first's verdict under the constraint (decoded afresh, so equal
   but not shared).  With the cache off, each costs a solver call. *)
let test_constraint_cache () =
  let decode (_ : E.t) =
    Smt.Formula.ge
      (Smt.Linexpr.var (Smt.Symbol.intern "x"))
      (Smt.Linexpr.const 0)
  in
  let counts ~cache_enabled =
    let workdir = Testdir.fresh () in
    let config =
      { (Engine.default_config ~workdir) with Engine.cache_enabled }
    in
    let t = CEngine.create ~config ~decode ~workdir () in
    CEngine.add_seed t ~src:0 ~dst:1 ~label:0 ~enc:[ E.Call 1 ];
    CEngine.add_seed t ~src:1 ~dst:2 ~label:1 ~enc:[];
    CEngine.add_seed t ~src:5 ~dst:6 ~label:0 ~enc:[ E.Call 2 ];
    CEngine.add_seed t ~src:6 ~dst:7 ~label:1 ~enc:[];
    CEngine.run t;
    let m = CEngine.metrics t in
    let count c = Engine.Metrics.count c in
    Alcotest.(check int) "edges added" 2 (count m.Engine.Metrics.edges_added);
    CEngine.cleanup t;
    ( count m.Engine.Metrics.constraints_solved,
      count m.Engine.Metrics.cache_hits,
      count m.Engine.Metrics.cache_lookups )
  in
  let triple = Alcotest.(triple int int int) in
  Alcotest.check triple "cache on: solved, hits, lookups" (1, 1, 2)
    (counts ~cache_enabled:true);
  Alcotest.check triple "cache off: solved, hits, lookups" (2, 0, 0)
    (counts ~cache_enabled:false)

(* The partitions' intervals and record counts, after checking the one
   partitioning rule on their files: the intervals tile the vertices from
   0, every record's source lies in its partition's interval (so no vertex
   spans two partitions), and a partition holds at most [cap] records
   unless they all share one source. *)
let layout t ~cap =
  let next = ref 0 in
  List.map
    (fun (p : CEngine.pmeta) ->
      let lo = p.CEngine.lo and hi = p.CEngine.hi in
      Alcotest.(check int) "intervals tile the vertices" !next lo;
      next := hi;
      let buf =
        (Engine.Storage.read_flat ~path:p.CEngine.path).Engine.Storage.buf
      in
      let n = Engine.Edgebuf.n buf in
      let srcs =
        List.sort_uniq compare (List.init n (Engine.Edgebuf.src buf))
      in
      List.iter
        (fun s ->
          if s < lo || s >= hi then
            Alcotest.failf "source %d in partition [%d, %d)" s lo hi)
        srcs;
      if n > cap && List.length srcs > 1 then
        Alcotest.failf "[%d, %d) holds %d records of %d sources, over %d" lo
          hi n (List.length srcs) cap;
      (lo, hi, n))
    t.CEngine.parts

(* A partition file's (src, dst) records, in file order. *)
let records (p : CEngine.pmeta) =
  let buf =
    (Engine.Storage.read_flat ~path:p.CEngine.path).Engine.Storage.buf
  in
  List.init (Engine.Edgebuf.n buf) (fun i ->
      (Engine.Edgebuf.src buf i, Engine.Edgebuf.dst buf i))

(* Sources 0-5 hold two seeds each and source 6 five, under an 8-edge
   budget: the seeds are cut at source changes into pieces of at most four,
   and source 6 alone exceeds four.  Label 1 composes with nothing, so the
   run derives no edge.  Then the last partition grows to ten records and
   its flush splits it by the same rule with half its size, five, as the
   cap: into two, each in file order. *)
let test_partition_rule () =
  let workdir = Testdir.fresh () in
  let config =
    { (Engine.default_config ~workdir) with Engine.max_edges_per_partition = 8 }
  in
  let t = CEngine.create ~config ~decode:true_decode ~workdir () in
  List.iter
    (fun (src, k) ->
      for i = 1 to k do
        CEngine.add_seed t ~src ~dst:(20 + i) ~label:1 ~enc:[]
      done)
    [ (0, 2); (1, 2); (2, 2); (3, 2); (4, 2); (5, 2); (6, 5) ];
  CEngine.run t;
  let triples = Alcotest.(list (triple int int int)) in
  Alcotest.check triples "initial partitions"
    [ (0, 2, 4); (2, 4, 4); (4, 6, 4); (6, 26, 5) ]
    (layout t ~cap:4);
  let last = List.nth t.CEngine.parts 3 in
  let l = CEngine.load t last in
  List.iter
    (fun (src, k) ->
      for i = 1 to k do
        Engine.Edgebuf.push_edge l.CEngine.buf ~src ~dst:(20 + i) ~label:1 []
      done)
    [ (7, 1); (8, 2); (9, 2) ];
  l.CEngine.dirty <- true;
  CEngine.flush t l;
  Alcotest.check triples "the over-budget partition split in two"
    [ (0, 2, 4); (2, 4, 4); (4, 6, 4); (6, 7, 5); (7, 26, 5) ]
    (layout t ~cap:5);
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "the split keeps file order"
    [ (6, 21); (6, 22); (6, 23); (6, 24); (6, 25);
      (7, 21); (8, 21); (8, 22); (9, 21); (9, 22) ]
    (records (List.nth t.CEngine.parts 3)
    @ records (List.nth t.CEngine.parts 4));
  Alcotest.(check int) "one split" 1
    (Engine.Metrics.count (CEngine.metrics t).Engine.Metrics.repartitions);
  CEngine.cleanup t

(* regression: [Metrics.time] used to drop the elapsed time when the timed
   function raised, under-reporting every component that ever aborted
   (budget exhaustion, injected faults) *)
let test_metrics_time_records_on_raise () =
  let m = Engine.Metrics.create () in
  (try
     Engine.Metrics.time m `Solve (fun () ->
         Unix.sleepf 0.02;
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "elapsed time survives the raise" true
    (Engine.Metrics.seconds m.Engine.Metrics.solve_s >= 0.01)

(* regression: the engine used to count a cache lookup (never a hit) even
   with [cache_enabled = false], reporting a fake 0% hit rate *)
let test_cache_disabled_counts_no_lookups () =
  let workdir = Testdir.fresh () in
  let config =
    { (Engine.default_config ~workdir) with Engine.cache_enabled = false }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  seed_chain t 6;
  AEngine.run t;
  let m = AEngine.metrics t in
  Alcotest.(check int) "no lookups against a disabled cache" 0
    (Engine.Metrics.count m.Engine.Metrics.cache_lookups);
  Alcotest.(check int) "no hits either" 0
    (Engine.Metrics.count m.Engine.Metrics.cache_hits);
  Alcotest.(check bool) "hit rate is None, not a fake 0%" true
    (Engine.Metrics.hit_rate m = None);
  Alcotest.(check bool) "work still happened" true
    (Engine.Metrics.count m.Engine.Metrics.constraints_solved > 0)

let test_constraint_pruning () =
  (* a decode that rejects any encoding mentioning node 13 *)
  let workdir = Testdir.fresh () in
  let decode (enc : E.t) =
    let rec bad = function
      | [] -> false
      | E.Interval { last = 13; _ } :: _ -> true
      | _ :: tl -> bad tl
    in
    if bad enc then Smt.Formula.False else Smt.Formula.True
  in
  let t =
    AEngine.create
      ~config:(Engine.default_config ~workdir) ~decode ~workdir ()
  in
  let iv last = [ E.Interval { meth = 0; first = 0; last } ] in
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:(iv 0);
  AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:(iv 5);
  AEngine.add_seed t ~src:1 ~dst:3 ~label:Pg.Assign ~enc:(iv 13);
  AEngine.run t;
  let reaches dst =
    AEngine.fold_edges t
      (fun acc e ->
        acc
        || (Pg.equal e.AEngine.label Pg.Flows_to && e.AEngine.src = 0
            && e.AEngine.dst = dst))
      false
  in
  Alcotest.(check bool) "feasible branch kept" true (reaches 2);
  Alcotest.(check bool) "infeasible branch pruned" false (reaches 3)

let test_encodings_per_key_cap () =
  let workdir = Testdir.fresh () in
  let config =
    { (Engine.default_config ~workdir) with Engine.max_encodings_per_key = 1 }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  (* two parallel paths from o to v *)
  let iv last = [ E.Interval { meth = 0; first = 0; last } ] in
  AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:(iv 0);
  AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:(iv 1);
  AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:(iv 2);
  AEngine.run t;
  let count =
    AEngine.fold_edges t
      (fun acc e ->
        if Pg.equal e.AEngine.label Pg.Flows_to && e.AEngine.dst = 2 then
          acc + 1
        else acc)
      0
  in
  Alcotest.(check int) "one witness kept" 1 count

let test_metrics_breakdown_sums_to_100 () =
  let t = mk_engine () in
  seed_chain t 8;
  AEngine.run t;
  let parts = Engine.Metrics.breakdown (AEngine.metrics t) in
  let total = List.fold_left (fun a (_, p) -> a +. p) 0. parts in
  Alcotest.(check bool) "percentages sum to ~100" true
    (Float.abs (total -. 100.) < 1e-6 || total = 0.)

(* reference implementation: naive in-memory closure with the same label
   logic and no constraints, used to differential-test the disk engine *)
let reference_closure (seeds : (int * int * Pg.t) list) : (int * int * int) list =
  let present = Hashtbl.create 256 in
  let queue = Queue.create () in
  let by_src = Hashtbl.create 64 and by_dst = Hashtbl.create 64 in
  let push tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := v :: !r
    | None -> Hashtbl.replace tbl k (ref [ v ])
  in
  let rec add (src, dst, label) =
    let key = (src, dst, Pg.to_int label) in
    if not (Hashtbl.mem present key) then begin
      Hashtbl.replace present key ();
      push by_src src (dst, label);
      push by_dst dst (src, label);
      Queue.add (src, dst, label) queue;
      List.iter (fun l -> add (src, dst, l)) (Pg.unary label);
      match Pg.mirror label with
      | Some l -> add (dst, src, l)
      | None -> ()
    end
  in
  List.iter add seeds;
  while not (Queue.is_empty queue) do
    let src, dst, label = Queue.pop queue in
    (match Hashtbl.find_opt by_src dst with
    | Some outs ->
        List.iter
          (fun (dst2, l2) ->
            match Pg.compose label l2 with
            | Some l3 -> add (src, dst2, l3)
            | None -> ())
          !outs
    | None -> ());
    (match Hashtbl.find_opt by_dst src with
    | Some ins ->
        List.iter
          (fun (src0, l1) ->
            match Pg.compose l1 label with
            | Some l3 -> add (src0, dst, l3)
            | None -> ())
          !ins
    | None -> ())
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) present [] |> List.sort compare

let arb_graph =
  let open QCheck in
  let edge =
    Gen.map3
      (fun src dst kind ->
        let label =
          match kind mod 5 with
          | 0 -> Pg.New
          | 1 | 2 -> Pg.Assign
          | 3 -> Pg.Store (kind mod 2)
          | _ -> Pg.Load (kind mod 2)
        in
        (src, dst, label))
      (Gen.int_bound 8) (Gen.int_bound 8) (Gen.int_bound 20)
  in
  make
    ~print:(fun es ->
      String.concat ";"
        (List.map (fun (s, d, l) -> Printf.sprintf "%d-%s->%d" s (Pg.to_string l) d) es))
    (Gen.list_size (Gen.int_range 1 14) edge)

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches in-memory reference closure" ~count:30
    (* budgets from one partition for every edge down to one per source,
       with splits on the way *)
    QCheck.(pair (int_range 1 128) arb_graph)
    (fun (budget, edges) ->
      let workdir = Testdir.fresh () in
      let config =
        { (Engine.default_config ~workdir) with
          Engine.max_edges_per_partition = budget;
          (* one witness per fact and no length cap: every fact keeps a
             composable encoding, so the closure is complete and bounded by
             the fact space even on cyclic graphs (unbounded witnesses blow
             up through Rev fragments) *)
          max_encodings_per_key = 1;
          max_path_elements = 0 }
      in
      let t = AEngine.create ~config ~decode:true_decode ~workdir () in
      List.iter
        (fun (src, dst, label) ->
          AEngine.add_seed t ~src ~dst ~label
            ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ])
        edges;
      AEngine.run t;
      let engine_facts =
        AEngine.fold_edges t
          (fun acc e -> (e.AEngine.src, e.AEngine.dst, Pg.to_int e.AEngine.label) :: acc)
          []
        |> List.sort_uniq compare
      in
      engine_facts = reference_closure edges)

(* property: closure results are independent of the partition budget; the
   reference runs in one partition *)
let prop_partitioning_invariance =
  QCheck.Test.make ~name:"closure independent of partitioning" ~count:8
    QCheck.(int_range 1 48)
    (fun budget ->
      let t1 = mk_engine () in
      seed_chain t1 7;
      AEngine.run t1;
      let reference = count_label t1 Pg.Flows_to in
      let workdir = Testdir.fresh () in
      let config =
        { (Engine.default_config ~workdir) with
          Engine.max_edges_per_partition = budget }
      in
      let t2 = AEngine.create ~config ~decode:true_decode ~workdir () in
      seed_chain t2 7;
      AEngine.run t2;
      count_label t2 Pg.Flows_to = reference)

(* ---------------- join indexes ---------------- *)

module Buf = Engine.Edgebuf
module Keys = Engine.Keys
module Chains = Engine.Chains

(* The partition under test owns sources [10, 18) and is paired with one
   owning [30, 35); destinations range over [0, 40), so some fall outside
   both intervals and must never be chained. *)
let ix_lo = 10
let ix_hi = 18
let ix_lo2 = 30
let ix_hi2 = 35

(* Drive the index the way the engine does — the first [loaded] records
   arrive as a file (indexed, then chained by [rebuild]), the rest are
   inserted under the witness cap — and compare every answer with a
   Hashtbl reference: membership, per-key counts, and chain walks at every
   bound. *)
let prop_index_matches_reference =
  let open QCheck in
  let op =
    Gen.quad (Gen.int_range ix_lo (ix_hi - 1)) (Gen.int_bound 39)
      (Gen.int_bound 2) (Gen.int_bound 3)
  in
  Test.make ~name:"join index matches a naive reference" ~count:200
    (make
       ~print:(fun (cap, loaded, ops) ->
         Printf.sprintf "cap=%d loaded=%d [%s]" cap loaded
           (String.concat "; "
              (List.map
                 (fun (s, d, l, e) -> Printf.sprintf "%d-%d->%d/%d" s l d e)
                 ops)))
       (Gen.triple (Gen.int_bound 3) (Gen.int_bound 40)
          (Gen.list_size (Gen.int_range 0 120) op)))
    (fun (cap, loaded, ops) ->
      let buf = Buf.create ~capacity:1 () in
      let keys = Keys.create 0 in
      let chains = Chains.create 0 in
      let present = Hashtbl.create 64 and counts = Hashtbl.create 64 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let bytes_of e = E.to_bytes [ E.Call e ] in
      let rebuild () =
        Chains.rebuild chains buf ~lo:ix_lo ~hi:ix_hi ~lo1:ix_lo ~hi1:ix_hi
          ~lo2:ix_lo2 ~hi2:ix_hi2
      in
      if loaded = 0 then rebuild ();
      List.iteri
        (fun k (src, dst, label, e) ->
          let bytes = bytes_of e in
          let slot = Keys.find keys buf ~src ~dst ~label in
          let known =
            match Buf.find_bytes buf bytes with
            | Some cid -> Keys.mem keys buf slot cid
            | None -> false
          in
          let kept = Keys.count keys slot in
          expect (known = Hashtbl.mem present (src, dst, label, bytes));
          let kept_ref = Hashtbl.find_opt counts (src, dst, label) in
          expect (kept = Option.value ~default:0 kept_ref);
          if not (known || (cap > 0 && kept >= cap)) then begin
            Buf.push buf ~src ~dst ~label ~enc_id:(Buf.intern_bytes buf bytes);
            Keys.add keys buf slot (Buf.n buf - 1);
            if k >= loaded then Chains.append chains buf (Buf.n buf - 1);
            Hashtbl.replace present (src, dst, label, bytes) ();
            Hashtbl.replace counts (src, dst, label) (kept + 1)
          end;
          if k + 1 = loaded then rebuild ())
        ops;
      if List.length ops < loaded then rebuild ();
      let n = Buf.n buf in
      let walk first next bound =
        let rec go p acc =
          if p < 0 || p >= bound then List.rev acc else go (next p) (p :: acc)
        in
        go first []
      in
      let naive key bound =
        List.filter (fun p -> key p) (List.init (min bound n) Fun.id)
      in
      let in_pair v =
        (v >= ix_lo && v < ix_hi) || (v >= ix_lo2 && v < ix_hi2)
      in
      for bound = 0 to n do
        for v = ix_lo to ix_hi - 1 do
          expect
            (walk (Chains.first_src chains v) (Chains.next_src chains) bound
            = naive (fun p -> Buf.src buf p = v) bound)
        done;
        for v = 0 to 39 do
          let expected =
            if in_pair v then naive (fun p -> Buf.dst buf p = v) bound else []
          in
          expect
            (walk (Chains.first_dst chains v) (Chains.next_dst chains) bound
            = expected)
        done
      done;
      (* a file holding an exact duplicate record is detected *)
      let dup = Buf.create () in
      let copy p =
        Buf.push dup ~src:(Buf.src buf p) ~dst:(Buf.dst buf p)
          ~label:(Buf.label buf p)
          ~enc_id:(Buf.intern_bytes dup (Buf.enc_bytes buf (Buf.enc_id buf p)))
      in
      for p = 0 to n - 1 do
        copy p
      done;
      expect (not (Keys.build (Keys.create 0) dup));
      if n > 0 then copy 0;
      expect (Keys.build (Keys.create 0) dup = (n > 0));
      !ok)

(* ---------------- golden derivation order ---------------- *)

(* A fixed seeded pointer-grammar graph whose seeds all carry distinct
   encodings, closed under a 2-witness cap and a partition budget small
   enough to split partitions, route edges to unloaded partitions and
   reprocess pairs.  Fact-set comparisons cannot see which witnesses the
   engine keeps, nor the order it writes them in; this digest pins both,
   so a join that visits partners in another order fails here even when
   every fact-set test passes. *)
let golden_decode (enc : E.t) =
  if Hashtbl.hash (E.to_bytes enc) mod 7 = 0 then Smt.Formula.False
  else Smt.Formula.True

let test_golden_derivation_order () =
  let rng = Random.State.make [| 2019 |] in
  let workdir = Testdir.fresh () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.max_edges_per_partition = 60;
      max_encodings_per_key = 2;
      max_path_elements = 6 }
  in
  let t = AEngine.create ~config ~decode:golden_decode ~workdir () in
  for i = 0 to 79 do
    let src = Random.State.int rng 40 in
    let dst = Random.State.int rng 40 in
    let label =
      match Random.State.int rng 6 with
      | 0 -> Pg.New
      | 1 | 2 -> Pg.Assign
      | 3 -> Pg.Store (Random.State.int rng 2)
      | 4 -> Pg.Load (Random.State.int rng 2)
      | _ -> Pg.New
    in
    AEngine.add_seed t ~src ~dst ~label ~enc:[ E.Call i ]
  done;
  AEngine.run t;
  let b = Buffer.create 65536 in
  AEngine.fold_edges t
    (fun () e ->
      Printf.bprintf b "%d %d %d %S\n" e.AEngine.src e.AEngine.dst
        (Pg.to_int e.AEngine.label) (E.to_bytes e.AEngine.enc))
    ();
  let m = AEngine.metrics t in
  let got =
    Printf.sprintf "%s edges_added=%d pairs=%d parts=%d splits=%d seeds=%d"
      (Digest.to_hex (Digest.string (Buffer.contents b)))
      (Engine.Metrics.count m.Engine.Metrics.edges_added)
      (Engine.Metrics.count m.Engine.Metrics.pairs_processed)
      (AEngine.n_partitions t)
      (Engine.Metrics.count m.Engine.Metrics.repartitions)
      (AEngine.n_seed_edges t)
  in
  AEngine.cleanup t;
  Alcotest.(check string) "digest and counters"
    "294715c4b14a06765a55b1450e5870cb edges_added=259 pairs=172 parts=12 \
     splits=4 seeds=126"
    got

let suite =
  [ Alcotest.test_case "lru basic" `Quick test_lru_basic;
    Alcotest.test_case "lru update" `Quick test_lru_update;
    Alcotest.test_case "lru order" `Quick test_lru_order;
    QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
    Alcotest.test_case "storage roundtrip" `Quick test_storage_roundtrip;
    Alcotest.test_case "storage missing file" `Quick test_storage_missing_file;
    Alcotest.test_case "closure over a chain" `Quick test_closure_chain;
    Alcotest.test_case "closure through the heap" `Quick test_closure_store_load;
    Alcotest.test_case "field mismatch" `Quick test_closure_field_mismatch;
    Alcotest.test_case "eager repartitioning" `Quick test_repartitioning;
    Alcotest.test_case "partition rule: half the budget, cut at sources"
      `Quick test_partition_rule;
    Alcotest.test_case "cache counters" `Quick test_cache_counters;
    Alcotest.test_case "cache hit counted once" `Quick
      test_cache_hit_counted_once;
    Alcotest.test_case "one solve per distinct constraint" `Quick
      test_constraint_cache;
    Alcotest.test_case "metrics time on raise" `Quick
      test_metrics_time_records_on_raise;
    Alcotest.test_case "disabled cache counts nothing" `Quick
      test_cache_disabled_counts_no_lookups;
    Alcotest.test_case "constraint pruning" `Quick test_constraint_pruning;
    Alcotest.test_case "encodings-per-key cap" `Quick test_encodings_per_key_cap;
    Alcotest.test_case "breakdown sums to 100" `Quick test_metrics_breakdown_sums_to_100;
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
    QCheck_alcotest.to_alcotest prop_partitioning_invariance;
    QCheck_alcotest.to_alcotest prop_index_matches_reference;
    Alcotest.test_case "golden derivation order" `Quick
      test_golden_derivation_order ]
