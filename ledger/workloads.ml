(* The benchmark's workloads: which subject each one checks, with which
   checkers and which configuration, and how its ground truth is carried
   over to the JIR text the program actually receives.

   A workload's subject keeps the committed profile seed (101-404, 900),
   so its shape — and therefore its cost — is the same for every benchmark
   seed.  The benchmark seed varies only the surface of the input: the
   declaration order of classes and of the methods inside each class.
   Offsetting the profile seed instead would change the cost of one run by
   up to 2x (minihadoop and minihdfs share a shape and differ 3.7 s vs
   1.8 s), far beyond the bounds the benchmark gates on. *)

module Ast = Jir.Ast
module Generator = Workload.Generator
module Patterns = Workload.Patterns
module Pipeline = Grapple.Pipeline

type t = {
  name : string;
  subject : unit -> Generator.subject;
  checkers : unit -> Checkers.t list;
  shard_procs : int;
  max_edges_per_partition : int option;  (* [None]: the engine default *)
}

(* the paper's four plus the four shipped DSL properties: every family the
   mega generator plants *)
let all8_checkers () =
  Checkers.all ()
  @ List.map Checkers.resolve [ "lock_order"; "taint"; "close"; "exc_twr" ]

(* 240 units: 103K LoC, the megaload tier's 100K+ scale at about 2 s per
   check, so one run holds enough repetitions for a steady median *)
let mega_units = 240

(* Why each workload is here, and which layer it stresses: BENCHMARK.json
   and README.md. *)
let all =
  [ { name = "hdfs";
      subject = Generator.mini_hdfs;
      checkers = Checkers.all;
      shard_procs = 0;
      max_edges_per_partition = None };
    { name = "hdfs-shard2";
      subject = Generator.mini_hdfs;
      checkers = Checkers.all;
      shard_procs = 2;
      max_edges_per_partition = None };
    { name = "ooc-zk";
      subject = Generator.mini_zookeeper;
      checkers = Checkers.all;
      shard_procs = 0;
      max_edges_per_partition = Some 4_000 };
    { name = "mega103k";
      subject = (fun () -> Generator.mega_100k ~units:mega_units ());
      checkers = all8_checkers;
      shard_procs = 0;
      max_edges_per_partition = None } ]

let find name = List.find_opt (fun w -> w.name = name) all

let names () = List.map (fun w -> w.name) all

(* The configuration `grapple check` builds for these checkers, plus the
   workload's own settings. *)
let config (w : t) ~workdir ~shard_procs : Pipeline.config =
  let base = Pipeline.default_config ~workdir in
  let engine =
    match w.max_edges_per_partition with
    | Some n -> { base.Pipeline.engine with Engine.max_edges_per_partition = n }
    | None -> base.Pipeline.engine
  in
  { base with
    Pipeline.library_throwers = Checkers.Specs.library_throwers;
    prefilter_properties =
      List.filter_map
        (fun (c : Checkers.t) ->
          match c.Checkers.kind with
          | `Typestate f -> Some f
          | `Exception_walk _ -> None)
        (w.checkers ());
    workers = 1;
    shard_procs;
    engine }

(* ---------------- seeded surface variation ---------------- *)

(* Seed 0 is the committed subject as generated; any other seed permutes
   class order and method order.  Neither carries meaning in JIR, so the
   program — and every warning it should produce — is unchanged. *)
let vary ~seed (p : Ast.program) : Ast.program =
  if seed = 0 then p
  else
    let rng = Workload.Rng.create seed in
    let classes =
      List.map
        (fun (c : Ast.cls) ->
          { c with Ast.methods = Workload.Rng.shuffle rng c.Ast.methods })
        p.Ast.classes
    in
    { p with Ast.classes = Workload.Rng.shuffle rng classes }

(* ---------------- ground truth through the text ---------------- *)

(* The pretty-printer does not keep the generator's line numbers, so the
   planted bugs' lines must be carried over: walk the printed program and
   its parse in lockstep and map each statement's generated line to its
   parsed line. *)
let remap_lines (generated : Ast.program) (parsed : Ast.program) :
    (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 4096 in
  let mismatch what =
    failwith ("Workloads.remap_lines: structure differs at " ^ what)
  in
  let rec block (a : Ast.block) (b : Ast.block) =
    if List.compare_lengths a b <> 0 then mismatch "block length";
    List.iter2 stmt a b
  and stmt (a : Ast.stmt) (b : Ast.stmt) =
    Hashtbl.replace tbl a.Ast.at.Ast.line b.Ast.at.Ast.line;
    match (a.Ast.kind, b.Ast.kind) with
    | Ast.If (_, t1, f1), Ast.If (_, t2, f2) ->
        block t1 t2;
        block f1 f2
    | Ast.While (_, b1), Ast.While (_, b2) -> block b1 b2
    | Ast.Try (b1, c1), Ast.Try (b2, c2) ->
        block b1 b2;
        if List.compare_lengths c1 c2 <> 0 then mismatch "catch list";
        List.iter2
          (fun (x : Ast.catch) (y : Ast.catch) ->
            block x.Ast.handler y.Ast.handler)
          c1 c2
    | ( (Ast.Decl _ | Ast.Assign _ | Ast.Store _ | Ast.Throw _ | Ast.Return _
        | Ast.Expr _),
        (Ast.Decl _ | Ast.Assign _ | Ast.Store _ | Ast.Throw _ | Ast.Return _
        | Ast.Expr _) ) ->
        ()
    | _ -> mismatch (Printf.sprintf "line %d" a.Ast.at.Ast.line)
  in
  if List.compare_lengths generated.Ast.classes parsed.Ast.classes <> 0 then
    mismatch "class list";
  List.iter2
    (fun (c1 : Ast.cls) (c2 : Ast.cls) ->
      if List.compare_lengths c1.Ast.methods c2.Ast.methods <> 0 then
        mismatch c1.Ast.cname;
      List.iter2
        (fun (m1 : Ast.meth) (m2 : Ast.meth) -> block m1.Ast.body m2.Ast.body)
        c1.Ast.methods c2.Ast.methods)
    generated.Ast.classes parsed.Ast.classes;
  tbl

(* What the benchmark hands the program, and what it checks the answer
   against. *)
type input = {
  text : string;
  file : string;  (* the name the program is told it is checking *)
  loc : int;
  expected : Patterns.expectation list;  (* lines of [text] *)
}

let input (w : t) ~seed : input =
  let subject = w.subject () in
  let program = vary ~seed subject.Generator.program in
  let text = Jir.Pp.program_to_string program in
  let file = subject.Generator.profile.Generator.name ^ ".jir" in
  let lines = remap_lines program (Jir.Resolve.parse_exn ~file text) in
  let expected =
    List.map
      (fun (e : Patterns.expectation) ->
        match Hashtbl.find_opt lines e.Patterns.exp_line with
        | Some l -> { e with Patterns.exp_line = l }
        | None ->
            failwith
              (Printf.sprintf
                 "Workloads.input: planted %s bug at line %d is no statement"
                 e.Patterns.exp_checker e.Patterns.exp_line))
      subject.Generator.expected
  in
  { text; file; loc = List.length (String.split_on_char '\n' text); expected }

type score = { tp : int; fp : int; fn : int }

(* Score the warnings of every checker the workload runs; planted bugs of
   checkers it does not run (null, lints) are out of scope.  Families
   overlap — an unhandled-exception bug is also an exc_twr violation — so a
   warning that misses its own checker's ground truth is a false positive
   only when no planted bug of any family sits on its line with its kind. *)
let score ~(expected : Patterns.expectation list)
    (results : (string * Grapple.Report.t list) list) : score =
  let planted (r : Grapple.Report.t) =
    List.exists
      (fun (e : Patterns.expectation) ->
        e.Patterns.exp_line = Workload.Scoring.report_line r
        && Workload.Scoring.kind_matches r.Grapple.Report.kind
             e.Patterns.exp_kind)
      expected
  in
  List.fold_left
    (fun acc (checker, reports) ->
      let s =
        Workload.Scoring.score ~allow_empty:true ~checker ~expected ~reports ()
      in
      { tp = acc.tp + s.Workload.Scoring.tp;
        fp =
          acc.fp
          + List.length
              (List.filter
                 (fun r -> not (planted r))
                 s.Workload.Scoring.fp_reports);
        fn = acc.fn + s.Workload.Scoring.fn })
    { tp = 0; fp = 0; fn = 0 } results
