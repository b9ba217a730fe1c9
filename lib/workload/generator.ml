(* Assembly of synthetic subjects.

   A subject is a layered service architecture: classes are organized into
   layers; every method of layer i may call methods of layer i-1 (bounded
   fanout, so the clone tree stays within budget); the entry method drives
   the top layer.  Pattern snippets — correct fillers, infeasible-path
   decoys, and the profile's quota of injected bugs — are planted into
   method bodies.  Every injected bug carries a ground-truth expectation
   keyed by source line, which the scoring module matches against Grapple's
   warnings. *)

type profile = {
  name : string;
  description : string;
  seed : int;
  layers : int;              (* call-chain depth *)
  classes_per_layer : int;
  methods_per_class : int;
  patterns_per_method : int; (* correct patterns planted per method *)
  calls_per_method : int;    (* calls into the previous layer *)
  bugs : (string * int) list;  (* checker -> number of injected bugs *)
  lint_bugs : (string * int) list;
      (* lint slug -> number of injected lint-detectable bugs *)
  loops_per_subject : int;
}

type subject = {
  profile : profile;
  program : Jir.Ast.program;
  expected : Patterns.expectation list;
  loc : int;
  n_methods : int;
}

let helpers_class = "Helpers"

(* One method body: planted patterns + calls into the previous layer +
   occasionally a bounded loop around a filler.  [callees] must already be
   the chosen call targets: the generator guarantees every method of the
   previous layer is called by someone, so all planted bugs are reachable
   from the entry point. *)
let gen_method (ctx : Patterns.ctx) ~cls ~name ~callees ~planted ~n_patterns
    ~with_loop =
  let param = "p0" in
  let pieces = ref [] in
  let helpers = ref [] in
  let expected = ref [] in
  let add (piece : Patterns.piece) =
    pieces := !pieces @ [ piece.Patterns.stmts ];
    helpers := !helpers @ piece.Patterns.helpers;
    expected := !expected @ piece.Patterns.expected
  in
  List.iter (fun mk -> add (mk ctx ~param)) planted;
  for _ = 1 to n_patterns do
    add ((Rng.pick ctx.Patterns.rng Patterns.correct_patterns) ctx ~param)
  done;
  let call_stmts =
    List.map
      (fun (ccls, cname) ->
        Jir.Builder.sstmt ~at:(Patterns.next_line ctx) ccls cname
          [ Jir.Builder.v param ])
      callees
  in
  let body = List.concat !pieces @ call_stmts in
  (* a loop wraps one extra pattern, not the whole body: unrolling doubles
     the branches under the loop, and CFETs are exponential in branch
     count, so keeping loop bodies small keeps tree sizes realistic *)
  let body =
    if with_loop then begin
      let looped = (Rng.pick ctx.Patterns.rng Patterns.correct_patterns) ctx ~param in
      helpers := !helpers @ looped.Patterns.helpers;
      expected := !expected @ looped.Patterns.expected;
      let iv = Patterns.fresh ctx "it" in
      body
      @ [ Jir.Builder.decl ~at:(Patterns.next_line ctx) Jir.Ast.Tint iv
            (Jir.Builder.e (Jir.Builder.i 0));
          Jir.Builder.while_ ~at:(Patterns.next_line ctx)
            Jir.Builder.(v iv <: i 2)
            (looped.Patterns.stmts
            @ [ Jir.Builder.assign ~at:(Patterns.next_line ctx) iv
                  Jir.Builder.(e (v iv +: i 1)) ]) ]
    end
    else body
  in
  let body = body @ [ Jir.Builder.ret0 ~at:(Patterns.next_line ctx) () ] in
  ( Jir.Builder.meth ~cls ~name ~params:[ (Jir.Ast.Tint, param) ] body,
    !helpers,
    !expected )

let generate (p : profile) : subject =
  let file = p.name ^ ".jir" in
  let ctx = Patterns.create_ctx ~seed:p.seed ~file ~helpers_class in
  let rng = ctx.Patterns.rng in
  (* distribute the bug quota over (layer, class, method) slots *)
  let slots = ref [] in
  for layer = 0 to p.layers - 1 do
    for c = 0 to p.classes_per_layer - 1 do
      for m = 0 to p.methods_per_class - 1 do
        slots := (layer, c, m) :: !slots
      done
    done
  done;
  let slots = Rng.shuffle rng !slots in
  let bug_plan : (int * int * int, (Patterns.ctx -> param:string -> Patterns.piece) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec assign_bugs bug_rng bugs slots =
    match (bugs, slots) with
    | [], rest -> rest
    | (_, n) :: rest, _ when n <= 0 -> assign_bugs bug_rng rest slots
    | (patterns, n) :: rest, slot :: more ->
        let pattern = Rng.pick bug_rng patterns in
        let cur =
          match Hashtbl.find_opt bug_plan slot with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.replace bug_plan slot r;
              r
        in
        cur := pattern :: !cur;
        assign_bugs bug_rng ((patterns, n - 1) :: rest) more
    | _ :: _, [] ->
        invalid_arg "Generator.generate: more bugs than method slots"
  in
  let after_checker_bugs =
    assign_bugs rng
      (List.map (fun (c, n) -> (Patterns.bug_patterns_for c, n)) p.bugs)
      slots
  in
  (* lint bugs draw from a stream of their own: planting them must not
     perturb the shared rng, or every draw after this point — loop
     placement, call targets, pattern choices — changes and the subject is
     a different program (with a different, possibly pathological, analysis
     cost) from its unlinted counterpart *)
  let lint_rng = Rng.create (p.seed lxor 0x6c696e74) in
  ignore
    (assign_bugs lint_rng
       (List.map (fun (l, n) -> (Patterns.lint_patterns_for l, n)) p.lint_bugs)
       after_checker_bugs);
  (* loops sprinkled over a few slots *)
  let loop_slots = Hashtbl.create 8 in
  List.iteri
    (fun i slot -> if i < p.loops_per_subject then Hashtbl.replace loop_slots slot ())
    (Rng.shuffle rng slots);
  let all_helpers = ref [] in
  let all_expected = ref [] in
  let layer_methods : (int, (string * string) list) Hashtbl.t = Hashtbl.create 8 in
  let classes = ref [] in
  for layer = 0 to p.layers - 1 do
    let prev_layer =
      if layer = 0 then []
      else Option.value ~default:[] (Hashtbl.find_opt layer_methods (layer - 1))
    in
    (* call-target assignment: cover every previous-layer method at least
       once before handing out random extras, so no planted bug is dead
       code *)
    let uncovered = ref (Rng.shuffle rng prev_layer) in
    let pick_callees n =
      let rec go n acc =
        if n = 0 || prev_layer = [] then List.rev acc
        else
          match !uncovered with
          | c :: rest ->
              uncovered := rest;
              go (n - 1) (c :: acc)
          | [] -> go (n - 1) (Rng.pick rng prev_layer :: acc)
      in
      go n []
    in
    let this_layer = ref [] in
    for c = 0 to p.classes_per_layer - 1 do
      let cname = Printf.sprintf "%s_L%d_C%d" (String.capitalize_ascii p.name) layer c in
      let methods = ref [] in
      for m = 0 to p.methods_per_class - 1 do
        let name = Printf.sprintf "op%d" m in
        let planted =
          match Hashtbl.find_opt bug_plan (layer, c, m) with
          | Some r -> !r
          | None -> []
        in
        let with_loop = Hashtbl.mem loop_slots (layer, c, m) in
        let mth, helpers, expected =
          gen_method ctx ~cls:cname ~name
            ~callees:(pick_callees (min p.calls_per_method (List.length prev_layer)))
            ~planted
            ~n_patterns:p.patterns_per_method
            ~with_loop
        in
        methods := mth :: !methods;
        all_helpers := !all_helpers @ helpers;
        all_expected := !all_expected @ expected;
        this_layer := (cname, name) :: !this_layer
      done;
      classes := Jir.Builder.cls cname (List.rev !methods) :: !classes
    done;
    Hashtbl.replace layer_methods layer !this_layer
  done;
  (* the entry point drives the top layer *)
  let top = Option.value ~default:[] (Hashtbl.find_opt layer_methods (p.layers - 1)) in
  let main_body =
    List.map
      (fun (cls, name) ->
        Jir.Builder.sstmt ~at:(Patterns.next_line ctx) cls name
          [ Jir.Builder.v "argc" ])
      top
    @ [ Jir.Builder.ret0 ~at:(Patterns.next_line ctx) () ]
  in
  let main_cls =
    Jir.Builder.cls "Main"
      [ Jir.Builder.meth ~cls:"Main" ~name:"main"
          ~params:[ (Jir.Ast.Tint, "argc") ] main_body ]
  in
  let helpers_cls = Jir.Builder.cls helpers_class !all_helpers in
  let program =
    Jir.Builder.resolved
      ~entries:[ ("Main", "main") ]
      (main_cls :: helpers_cls :: List.rev !classes)
  in
  let loc =
    let text = Jir.Pp.program_to_string program in
    List.length (String.split_on_char '\n' text)
  in
  { profile = p;
    program;
    expected = !all_expected;
    loc;
    n_methods = List.length (Jir.Ast.all_methods program) }

(* ------------------------------------------------------------------ *)
(* The four subjects of the evaluation, shaped after Table 1/Table 2:   *)
(* HBase is the largest and carries the most exception bugs; ZooKeeper  *)
(* is the smallest; the lock checker finds exactly one bug, in HDFS.    *)
(* Bug counts are the paper's scaled down by roughly 8x so a laptop     *)
(* regenerates every table in minutes.                                  *)
(* ------------------------------------------------------------------ *)

let mini_zookeeper () =
  generate
    { name = "minizk";
      description = "distributed coordination service (ZooKeeper profile)";
      seed = 101;
      layers = 3;
      classes_per_layer = 2;
      methods_per_class = 3;
      patterns_per_method = 2;
      calls_per_method = 2;
      bugs = [ ("io", 1); ("exception", 7); ("socket", 1); ("null", 1) ];
      lint_bugs =
        [ ("use-before-init", 1); ("dead-branch", 1);
          ("pointsto-never-read", 1) ];
      loops_per_subject = 2 }

let mini_hadoop () =
  generate
    { name = "minihadoop";
      description = "data-processing platform (Hadoop profile)";
      seed = 202;
      layers = 3;
      classes_per_layer = 3;
      methods_per_class = 3;
      patterns_per_method = 2;
      calls_per_method = 2;
      bugs = [ ("exception", 7) ];
      lint_bugs =
        [ ("use-before-init", 1); ("interproc-null", 1);
          ("pointsto-confused-sink", 1) ];
      loops_per_subject = 3 }

let mini_hdfs () =
  generate
    { name = "minihdfs";
      description = "distributed file system (HDFS profile)";
      seed = 303;
      layers = 3;
      classes_per_layer = 3;
      methods_per_class = 3;
      patterns_per_method = 2;
      calls_per_method = 2;
      bugs = [ ("io", 1); ("lock", 1); ("exception", 5); ("socket", 1) ];
      lint_bugs = [ ("null-deref", 1); ("pointsto-never-read", 1) ];
      loops_per_subject = 3 }

let mini_hbase () =
  generate
    { name = "minihbase";
      description = "distributed database (HBase profile)";
      seed = 404;
      layers = 3;
      classes_per_layer = 4;
      methods_per_class = 3;
      patterns_per_method = 2;
      calls_per_method = 2;
      bugs = [ ("io", 2); ("exception", 22) ];
      lint_bugs =
        [ ("null-deref", 1); ("dead-branch", 1); ("interproc-null", 1);
          ("pointsto-never-read", 1); ("pointsto-confused-sink", 1) ];
      loops_per_subject = 4 }

(* Subjects for the DSL-defined checkers (lib/spec builtins).  Each plants
   only its own checker's bugs, so the scored TP counts are exact. *)

let mini_locks () =
  generate
    { name = "minilocks";
      description = "two-lock service (lock_order product-property profile)";
      seed = 505;
      layers = 2;
      classes_per_layer = 2;
      methods_per_class = 2;
      patterns_per_method = 1;
      calls_per_method = 1;
      bugs = [ ("lock_order", 2) ];
      lint_bugs = [];
      loops_per_subject = 1 }

let mini_taint () =
  generate
    { name = "minitaint";
      description = "request handler (taint source-to-sink profile)";
      seed = 606;
      layers = 2;
      classes_per_layer = 2;
      methods_per_class = 2;
      patterns_per_method = 1;
      calls_per_method = 1;
      bugs = [ ("taint", 3) ];
      lint_bugs = [];
      loops_per_subject = 1 }

let mini_close () =
  generate
    { name = "miniclose";
      description = "storage layer (double-close / use-after-close profile)";
      seed = 707;
      layers = 2;
      classes_per_layer = 2;
      methods_per_class = 2;
      patterns_per_method = 1;
      calls_per_method = 1;
      bugs = [ ("close", 2) ];
      lint_bugs = [];
      loops_per_subject = 1 }

(* The handler-aware exception profile: the decoys are undeclared throws
   the caller demonstrably catches -- the plain exception walk reports
   them (its residual false-positive class), exc_twr must not. *)
let mini_twr () =
  generate
    { name = "minitwr";
      description = "try-with-resources idiom (handler-aware exception profile)";
      seed = 808;
      layers = 2;
      classes_per_layer = 2;
      methods_per_class = 2;
      patterns_per_method = 1;
      calls_per_method = 1;
      bugs = [ ("exc_twr", 2); ("exc_twr_decoy", 2) ];
      lint_bugs = [];
      loops_per_subject = 0 }

let all_subjects () =
  [ mini_zookeeper (); mini_hadoop (); mini_hdfs (); mini_hbase () ]

let dsl_subjects () =
  [ mini_locks (); mini_taint (); mini_close (); mini_twr () ]

(* ------------------------------------------------------------------ *)
(* The megaload tier (ISSUE 9): 100K-1M-LoC subjects shaped after what  *)
(* Sawja reports for real Java codebases — many compilation units       *)
(* reusing a shared library (high fan-in), per-unit class-hierarchy     *)
(* depth, and planted bugs at a fixed density per method count.         *)
(*                                                                      *)
(* Each unit is an island with its own entry point: unit call graphs    *)
(* never cross, so the clone tree grows linearly in the unit count      *)
(* (~40 instances per unit) instead of multiplying, while the shared    *)
(* library classes are cloned once per call site — exactly the fan-in   *)
(* profile that stresses the triage tiers and the out-of-core engine.   *)
(* ------------------------------------------------------------------ *)

type mega_profile = {
  m_name : string;
  m_description : string;
  m_seed : int;
  m_units : int;               (* compilation units (call-graph islands) *)
  m_layers : int;              (* hierarchy depth inside a unit *)
  m_classes_per_layer : int;
  m_methods_per_class : int;
  m_calls_per_method : int;
  m_lib_classes : int;         (* shared library classes (fan-in targets) *)
  m_lib_methods : int;         (* methods per shared library class *)
  m_lib_fanin : int;           (* library calls per bottom-layer method *)
  m_bug_every_n_methods : int; (* plant one bug per N method slots *)
  m_pattern_every_n_methods : int;
      (* plant one correct typestate pattern per N method slots; the other
         methods are resource-free straight-line code, which is what most
         of a real million-LoC codebase looks like *)
  m_filler_stmts : int;        (* straight-line int statements per method *)
  m_families : string list;    (* bug families cycled over the plan *)
  m_loops_per_unit : int;
}

(* A mega-tier method body: optional planted piece (bug or correct
   pattern), straight-line integer filler, calls into the callee set,
   return.  Filler is pure scalar code: it adds realistic method length
   without adding branches (CFETs are exponential in branch count) or
   tracked allocations. *)
let mega_method (ctx : Patterns.ctx) ~cls ~name ~callees ~planted ~filler
    ~with_loop =
  let param = "p0" in
  let pieces = ref [] in
  let helpers = ref [] in
  let expected = ref [] in
  List.iter
    (fun mk ->
      let (piece : Patterns.piece) = mk ctx ~param in
      pieces := !pieces @ [ piece.Patterns.stmts ];
      helpers := !helpers @ piece.Patterns.helpers;
      expected := !expected @ piece.Patterns.expected)
    planted;
  let filler_stmts =
    let acc = Patterns.fresh ctx "acc" in
    Jir.Builder.decl ~at:(Patterns.next_line ctx) Jir.Ast.Tint acc
      (Jir.Builder.e (Jir.Builder.v param))
    :: List.concat
         (List.init filler (fun i ->
              let k = (i * 7 mod 23) + 1 in
              [ Jir.Builder.assign ~at:(Patterns.next_line ctx) acc
                  Jir.Builder.(e (v acc +: i k)) ]))
  in
  let call_stmts =
    List.map
      (fun (ccls, cname) ->
        Jir.Builder.sstmt ~at:(Patterns.next_line ctx) ccls cname
          [ Jir.Builder.v param ])
      callees
  in
  let body = List.concat !pieces @ filler_stmts @ call_stmts in
  let body =
    if with_loop then begin
      let iv = Patterns.fresh ctx "it" in
      let acc2 = Patterns.fresh ctx "sum" in
      body
      @ [ Jir.Builder.decl ~at:(Patterns.next_line ctx) Jir.Ast.Tint iv
            (Jir.Builder.e (Jir.Builder.i 0));
          Jir.Builder.decl ~at:(Patterns.next_line ctx) Jir.Ast.Tint acc2
            (Jir.Builder.e (Jir.Builder.v param));
          Jir.Builder.while_ ~at:(Patterns.next_line ctx)
            Jir.Builder.(v iv <: i 2)
            [ Jir.Builder.assign ~at:(Patterns.next_line ctx) acc2
                Jir.Builder.(e (v acc2 +: i 3));
              Jir.Builder.assign ~at:(Patterns.next_line ctx) iv
                Jir.Builder.(e (v iv +: i 1)) ] ]
    end
    else body
  in
  let body = body @ [ Jir.Builder.ret0 ~at:(Patterns.next_line ctx) () ] in
  ( Jir.Builder.meth ~cls ~name ~params:[ (Jir.Ast.Tint, param) ] body,
    !helpers,
    !expected )

let generate_mega (mp : mega_profile) : subject =
  let file = mp.m_name ^ ".jir" in
  let ctx = Patterns.create_ctx ~seed:mp.m_seed ~file ~helpers_class in
  let rng = ctx.Patterns.rng in
  let all_helpers = ref [] in
  let all_expected = ref [] in
  let classes = ref [] in
  (* the shared library: correct-pattern service methods every unit's
     bottom layer calls into *)
  let lib_methods = ref [] in
  for c = 0 to mp.m_lib_classes - 1 do
    let cname = Printf.sprintf "MegaLib%d" c in
    let methods = ref [] in
    for m = 0 to mp.m_lib_methods - 1 do
      let name = Printf.sprintf "svc%d" m in
      (* library methods are cloned once per call site across every unit,
         so only one method per library class carries a tracked-resource
         pattern; the rest are scalar service code *)
      let planted =
        if m = 0 then [ Rng.pick rng Patterns.correct_patterns ] else []
      in
      let mth, helpers, expected =
        mega_method ctx ~cls:cname ~name ~callees:[] ~planted
          ~filler:mp.m_filler_stmts ~with_loop:false
      in
      methods := mth :: !methods;
      all_helpers := !all_helpers @ helpers;
      all_expected := !all_expected @ expected;
      lib_methods := (cname, name) :: !lib_methods
    done;
    classes := Jir.Builder.cls cname (List.rev !methods) :: !classes
  done;
  let lib_methods = List.rev !lib_methods in
  (* the bug plan: one bug per [m_bug_every_n_methods] slots, families
     assigned round-robin over a shuffled slot order *)
  let slots = ref [] in
  for u = 0 to mp.m_units - 1 do
    for layer = 0 to mp.m_layers - 1 do
      for c = 0 to mp.m_classes_per_layer - 1 do
        for m = 0 to mp.m_methods_per_class - 1 do
          slots := (u, layer, c, m) :: !slots
        done
      done
    done
  done;
  let shuffled = Rng.shuffle rng !slots in
  let n_bugs =
    List.length shuffled / max 1 mp.m_bug_every_n_methods
  in
  let bug_plan = Hashtbl.create 256 in
  List.iteri
    (fun i slot ->
      if i < n_bugs && mp.m_families <> [] then begin
        let fam = List.nth mp.m_families (i mod List.length mp.m_families) in
        let pattern = Rng.pick rng (Patterns.bug_patterns_for fam) in
        Hashtbl.replace bug_plan slot pattern
      end)
    shuffled;
  let loop_plan = Hashtbl.create 64 in
  List.iteri
    (fun i slot ->
      if i < mp.m_units * mp.m_loops_per_unit then
        Hashtbl.replace loop_plan slot ())
    (Rng.shuffle rng !slots);
  (* the pattern plan: one correct tracked-resource pattern per
     [m_pattern_every_n_methods] slots; everything else is scalar code *)
  let pattern_plan = Hashtbl.create 256 in
  let n_patterns =
    List.length !slots / max 1 mp.m_pattern_every_n_methods
  in
  List.iteri
    (fun i slot ->
      if i < n_patterns then Hashtbl.replace pattern_plan slot ())
    (Rng.shuffle rng !slots);
  (* the units: layered islands whose bottom layer fans into the shared
     library and whose top layer is driven by a per-unit entry point *)
  let entries = ref [] in
  for u = 0 to mp.m_units - 1 do
    let layer_methods = Hashtbl.create 8 in
    for layer = 0 to mp.m_layers - 1 do
      let prev_layer =
        if layer = 0 then []
        else Option.value ~default:[] (Hashtbl.find_opt layer_methods (layer - 1))
      in
      let uncovered = ref (Rng.shuffle rng prev_layer) in
      let pick_callees n pool =
        let rec go n acc =
          if n = 0 || pool = [] then List.rev acc
          else
            match !uncovered with
            | c :: rest ->
                uncovered := rest;
                go (n - 1) (c :: acc)
            | [] -> go (n - 1) (Rng.pick rng pool :: acc)
        in
        go n []
      in
      let this_layer = ref [] in
      for c = 0 to mp.m_classes_per_layer - 1 do
        let cname = Printf.sprintf "U%d_L%d_C%d" u layer c in
        let methods = ref [] in
        for m = 0 to mp.m_methods_per_class - 1 do
          let name = Printf.sprintf "op%d" m in
          let callees =
            if layer = 0 then
              (* bottom layer: fan into the shared library *)
              List.init mp.m_lib_fanin (fun _ -> Rng.pick rng lib_methods)
            else
              pick_callees
                (min mp.m_calls_per_method (List.length prev_layer))
                prev_layer
          in
          let planted =
            match Hashtbl.find_opt bug_plan (u, layer, c, m) with
            | Some pat -> [ pat ]
            | None ->
                if Hashtbl.mem pattern_plan (u, layer, c, m) then
                  [ Rng.pick rng Patterns.correct_patterns ]
                else []
          in
          let with_loop = Hashtbl.mem loop_plan (u, layer, c, m) in
          let mth, helpers, expected =
            mega_method ctx ~cls:cname ~name ~callees ~planted
              ~filler:mp.m_filler_stmts ~with_loop
          in
          methods := mth :: !methods;
          all_helpers := !all_helpers @ helpers;
          all_expected := !all_expected @ expected;
          this_layer := (cname, name) :: !this_layer
        done;
        classes := Jir.Builder.cls cname (List.rev !methods) :: !classes
      done;
      Hashtbl.replace layer_methods layer !this_layer
    done;
    let top =
      Option.value ~default:[] (Hashtbl.find_opt layer_methods (mp.m_layers - 1))
    in
    let main_cls = Printf.sprintf "U%dMain" u in
    let main_body =
      List.map
        (fun (cls, name) ->
          Jir.Builder.sstmt ~at:(Patterns.next_line ctx) cls name
            [ Jir.Builder.v "argc" ])
        top
      @ [ Jir.Builder.ret0 ~at:(Patterns.next_line ctx) () ]
    in
    classes :=
      Jir.Builder.cls main_cls
        [ Jir.Builder.meth ~cls:main_cls ~name:"main"
            ~params:[ (Jir.Ast.Tint, "argc") ] main_body ]
      :: !classes;
    entries := (main_cls, "main") :: !entries
  done;
  let helpers_cls = Jir.Builder.cls helpers_class !all_helpers in
  let program =
    Jir.Builder.resolved ~entries:(List.rev !entries)
      (helpers_cls :: List.rev !classes)
  in
  let loc =
    let text = Jir.Pp.program_to_string program in
    List.length (String.split_on_char '\n' text)
  in
  { profile =
      { name = mp.m_name;
        description = mp.m_description;
        seed = mp.m_seed;
        layers = mp.m_layers;
        classes_per_layer = mp.m_classes_per_layer;
        methods_per_class = mp.m_methods_per_class;
        patterns_per_method = 0;
        calls_per_method = mp.m_calls_per_method;
        bugs = [];
        lint_bugs = [];
        loops_per_subject = mp.m_units * mp.m_loops_per_unit };
    program;
    expected = !all_expected;
    loc;
    n_methods = List.length (Jir.Ast.all_methods program) }

let default_mega_families =
  [ "io"; "socket"; "exception"; "lock"; "lock_order"; "taint"; "close";
    "exc_twr" ]

(* >=100K LoC at the default 400 units; [units] scales the tier up or
   down (CI uses a smaller count, `bench -- megaload` honours the
   GRAPPLE_MEGALOAD_UNITS environment variable).  The density knobs are
   calibrated to a realistic resource-code ratio: ~1 in 4 methods
   touches a tracked resource, the rest is scalar code no checking
   instance enters — which is also what keeps the global closure
   tractable at this scale. *)
let mega_profile ?(name = "mega100k") ?(units = 400) () =
  { m_name = name;
    m_description =
      "megaload tier: shared-library islands, Sawja-style depth";
    m_seed = 900;
    m_units = units;
    m_layers = 2;
    m_classes_per_layer = 3;
    m_methods_per_class = 3;
    m_calls_per_method = 1;
    m_lib_classes = 4;
    m_lib_methods = 4;
    m_lib_fanin = 1;
    m_bug_every_n_methods = 40;
    m_pattern_every_n_methods = 4;
    m_filler_stmts = 14;
    m_families = default_mega_families;
    m_loops_per_unit = 1 }

let mega_100k ?units () =
  generate_mega (mega_profile ~name:"mega100k" ?units ())

(* The paper-scale tier (~1M LoC at 2400 units).  Checking it end to end
   takes minutes, so `bench -- megaload` drives the 100K tier by default
   and this one scales in via GRAPPLE_MEGALOAD_UNITS. *)
let mega_1m ?(units = 2400) () =
  generate_mega (mega_profile ~name:"mega1m" ~units ())
