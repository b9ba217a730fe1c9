(* Tests for the workload generator and the ground-truth scoring. *)

let small_profile ?(bugs = [ ("io", 2); ("exception", 2) ]) ?(lint_bugs = [])
    ?(seed = 42) () =
  { Workload.Generator.name = "testsubj";
    description = "test subject";
    seed;
    layers = 2;
    classes_per_layer = 2;
    methods_per_class = 2;
    patterns_per_method = 2;
    calls_per_method = 1;
    bugs;
    lint_bugs;
    loops_per_subject = 1 }

let test_generation_deterministic () =
  let s1 = Workload.Generator.generate (small_profile ()) in
  let s2 = Workload.Generator.generate (small_profile ()) in
  Alcotest.(check string) "same program"
    (Jir.Pp.program_to_string s1.Workload.Generator.program)
    (Jir.Pp.program_to_string s2.Workload.Generator.program);
  Alcotest.(check int) "same expectations"
    (List.length s1.Workload.Generator.expected)
    (List.length s2.Workload.Generator.expected)

let test_generation_seed_matters () =
  let s1 = Workload.Generator.generate (small_profile ~seed:1 ()) in
  let s2 = Workload.Generator.generate (small_profile ~seed:2 ()) in
  Alcotest.(check bool) "different programs" true
    (Jir.Pp.program_to_string s1.Workload.Generator.program
     <> Jir.Pp.program_to_string s2.Workload.Generator.program)

let test_bug_quota_planted () =
  let s = Workload.Generator.generate (small_profile ()) in
  let count checker =
    List.length
      (List.filter
         (fun e -> e.Workload.Patterns.exp_checker = checker)
         s.Workload.Generator.expected)
  in
  Alcotest.(check int) "io bugs" 2 (count "io");
  Alcotest.(check int) "exception bugs" 2 (count "exception");
  Alcotest.(check int) "no lock bugs" 0 (count "lock")

let test_generated_program_valid () =
  let s = Workload.Generator.generate (small_profile ()) in
  (* resolves cleanly (Builder.resolved would have raised otherwise) and
     parses back from its pretty-printed form *)
  let text = Jir.Pp.program_to_string s.Workload.Generator.program in
  let p = Jir.Resolve.parse_exn text in
  Alcotest.(check bool) "non-trivial" true (Jir.Ast.program_size p > 50);
  Alcotest.(check bool) "loc counted" true (s.Workload.Generator.loc > 50)

let test_expectation_lines_unique () =
  let s = Workload.Generator.generate (small_profile ()) in
  let lines =
    List.map (fun e -> e.Workload.Patterns.exp_line) s.Workload.Generator.expected
  in
  Alcotest.(check int) "lines unique" (List.length lines)
    (List.length (List.sort_uniq compare lines))

let test_subject_profiles_exist () =
  let zk = Workload.Generator.mini_zookeeper () in
  Alcotest.(check string) "name" "minizk"
    zk.Workload.Generator.profile.Workload.Generator.name;
  Alcotest.(check bool) "expectations planted" true
    (List.length zk.Workload.Generator.expected > 0)

(* ---------------- scoring ---------------- *)

let mk_report ?(checker = "io") ?(line = 5) kind =
  { Grapple.Report.checker;
    kind;
    cls = "FileWriter";
    alloc_at = { Jir.Ast.file = "t.jir"; line };
    site = None;
    context = [];
    witness = [];
    trace = [] }

let mk_exp ?(checker = "io") ?(line = 5) kind =
  { Workload.Patterns.exp_checker = checker; exp_kind = kind; exp_line = line;
    exp_note = "test" }

let test_scoring_tp () =
  let s =
    Workload.Scoring.score ~checker:"io"
      ~expected:[ mk_exp `Leak ]
      ~reports:[ mk_report (Grapple.Report.Leak "Open") ]
      ()
  in
  Alcotest.(check int) "tp" 1 s.Workload.Scoring.tp;
  Alcotest.(check int) "fp" 0 s.Workload.Scoring.fp;
  Alcotest.(check int) "fn" 0 s.Workload.Scoring.fn

let test_scoring_fp_wrong_line () =
  let s =
    Workload.Scoring.score ~checker:"io"
      ~expected:[ mk_exp ~line:5 `Leak ]
      ~reports:[ mk_report ~line:6 (Grapple.Report.Leak "Open") ]
      ()
  in
  Alcotest.(check int) "fp" 1 s.Workload.Scoring.fp;
  Alcotest.(check int) "fn" 1 s.Workload.Scoring.fn

let test_scoring_kind_mismatch () =
  let s =
    Workload.Scoring.score ~checker:"io"
      ~expected:[ mk_exp `Error ]
      ~reports:[ mk_report (Grapple.Report.Leak "Open") ]
      ()
  in
  Alcotest.(check int) "kind must match" 0 s.Workload.Scoring.tp

let test_scoring_filters_checker () =
  let s =
    Workload.Scoring.score ~allow_empty:true ~checker:"io"
      ~expected:[ mk_exp ~checker:"socket" `Leak ]
      ~reports:[ mk_report ~checker:"socket" (Grapple.Report.Leak "Open") ]
      ()
  in
  Alcotest.(check int) "other checker invisible" 0
    (s.Workload.Scoring.tp + s.Workload.Scoring.fp + s.Workload.Scoring.fn)

let test_scoring_each_expectation_once () =
  let s =
    Workload.Scoring.score ~checker:"io"
      ~expected:[ mk_exp `Leak ]
      ~reports:
        [ mk_report (Grapple.Report.Leak "Open");
          mk_report (Grapple.Report.Leak "Open") ]
      ()
  in
  Alcotest.(check int) "one tp" 1 s.Workload.Scoring.tp;
  Alcotest.(check int) "second is fp" 1 s.Workload.Scoring.fp

(* ---------------- lint bug injection ---------------- *)

let lint_profile () =
  small_profile
    ~lint_bugs:
      [ ("use-before-init", 2); ("dead-branch", 1) ]
    ()

let test_lint_bugs_found () =
  (* every lint expectation (the injected quota plus any labeled decoy the
     filler happened to plant) is flagged, and nothing else is *)
  let s = Workload.Generator.generate (lint_profile ()) in
  let diags = Analysis.Lint.check_program s.Workload.Generator.program in
  let ls =
    Workload.Scoring.score_lints ~expected:s.Workload.Generator.expected
      diags
  in
  Alcotest.(check bool) "quota planted" true (ls.Workload.Scoring.ltp >= 3);
  Alcotest.(check int) "no false positives" 0 ls.Workload.Scoring.lfp;
  Alcotest.(check int) "no misses" 0 ls.Workload.Scoring.lfn

let test_lint_clean_without_lint_bugs () =
  (* with no lint quota, every diagnostic the linter emits must still be
     explained by a labeled pattern: zero false positives on ground truth *)
  let s = Workload.Generator.generate (small_profile ()) in
  let diags = Analysis.Lint.check_program s.Workload.Generator.program in
  let ls =
    Workload.Scoring.score_lints ~allow_empty:true
      ~expected:s.Workload.Generator.expected diags
  in
  Alcotest.(check int) "no false positives" 0 ls.Workload.Scoring.lfp;
  Alcotest.(check int) "no misses" 0 ls.Workload.Scoring.lfn

let test_score_lints_each_expectation_once () =
  let e =
    { Workload.Patterns.exp_checker = "lint";
      exp_kind = `Lint "use-before-init";
      exp_line = 5;
      exp_note = "test" }
  in
  let d line =
    { Analysis.Lint.lint = "use-before-init"; meth = "C.m";
      at = { Jir.Ast.file = "t.jir"; line };
      message = "m" }
  in
  let ls =
    Workload.Scoring.score_lints ~expected:[ e ] [ d 5; d 5; d 9 ]
  in
  Alcotest.(check int) "one tp" 1 ls.Workload.Scoring.ltp;
  Alcotest.(check int) "rest are fp" 2 ls.Workload.Scoring.lfp

let test_generation_byte_identical () =
  (* same seed => byte-identical JIR text, including with lint bugs *)
  let gen () =
    Jir.Pp.program_to_string
      (Workload.Generator.generate (lint_profile ())).Workload.Generator
        .program
  in
  Alcotest.(check string) "byte identical" (gen ()) (gen ())

let test_every_tier_byte_identical () =
  (* same seed => byte-identical program at EVERY tier: the four paper
     mini profiles, the four DSL profiles, and the megaload tier *)
  let text (s : Workload.Generator.subject) =
    Jir.Pp.program_to_string s.Workload.Generator.program
  in
  let pair name gen = (name, text (gen ()), text (gen ())) in
  let tiers =
    [ pair "minizk" Workload.Generator.mini_zookeeper;
      pair "minihadoop" Workload.Generator.mini_hadoop;
      pair "minihdfs" Workload.Generator.mini_hdfs;
      pair "minihbase" Workload.Generator.mini_hbase;
      pair "minilocks" Workload.Generator.mini_locks;
      pair "minitaint" Workload.Generator.mini_taint;
      pair "miniclose" Workload.Generator.mini_close;
      pair "minitwr" Workload.Generator.mini_twr;
      pair "mega100k" (fun () -> Workload.Generator.mega_100k ~units:3 ());
      pair "mega1m" (fun () -> Workload.Generator.mega_1m ~units:3 ()) ]
  in
  List.iter
    (fun (name, a, b) -> Alcotest.(check string) name a b)
    tiers

let test_mega_seed_distinct_bugs () =
  (* different generator seeds => the megaload bug plan lands on
     different (checker, line) sites *)
  let bugs seed =
    let p =
      { (Workload.Generator.mega_profile ~units:6 ()) with
        Workload.Generator.m_seed = seed }
    in
    let s = Workload.Generator.generate_mega p in
    List.map
      (fun e ->
        (e.Workload.Patterns.exp_checker, e.Workload.Patterns.exp_line))
      s.Workload.Generator.expected
  in
  let a = bugs 900 and b = bugs 901 in
  Alcotest.(check bool) "bugs planted" true (a <> []);
  Alcotest.(check bool) "distinct bug plans" true (a <> b)

let test_mega_subject_shape () =
  let s = Workload.Generator.mega_100k ~units:6 () in
  (* one entry island per unit, LoC accounted, parses back *)
  Alcotest.(check int) "one entry per unit" 6
    (List.length s.Workload.Generator.program.Jir.Ast.entries);
  Alcotest.(check bool) "loc counted" true
    (s.Workload.Generator.loc > 1000);
  let text = Jir.Pp.program_to_string s.Workload.Generator.program in
  let p = Jir.Resolve.parse_exn text in
  Alcotest.(check int) "round trips" (List.length s.Workload.Generator.program.Jir.Ast.classes)
    (List.length p.Jir.Ast.classes)

let test_scoring_empty_ground_truth_raises () =
  (* scoring against an empty filtered ground truth is a harness bug
     (vacuous 100% TP) and must raise unless explicitly allowed *)
  let r = mk_report (Grapple.Report.Leak "opened") in
  Alcotest.check_raises "score raises"
    (Invalid_argument
       "Scoring.score: no ground-truth expectations for checker \"io\" \
        (pass ~allow_empty:true to score a zero-bug subject)")
    (fun () ->
      ignore
        (Workload.Scoring.score ~checker:"io" ~expected:[] ~reports:[ r ] ()));
  Alcotest.check_raises "score_lints raises"
    (Invalid_argument
       "Scoring.score_lints: no ground-truth expectations for \"lint\" \
        (pass ~allow_empty:true to score a zero-bug subject)")
    (fun () ->
      ignore (Workload.Scoring.score_lints ~expected:[] []));
  (* the explicit opt-in still scores a clean run *)
  let s =
    Workload.Scoring.score ~allow_empty:true ~checker:"io" ~expected:[]
      ~reports:[ r ] ()
  in
  Alcotest.(check int) "opt-in counts fps" 1 s.Workload.Scoring.fp

(* ---------------- rng ---------------- *)

let test_rng_deterministic () =
  let a = Workload.Rng.create 7 and b = Workload.Rng.create 7 in
  let seq r = List.init 20 (fun _ -> Workload.Rng.int r 1000) in
  Alcotest.(check (list int)) "same stream" (seq a) (seq b)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng respects bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Workload.Rng.create seed in
      let v = Workload.Rng.int r bound in
      v >= 0 && v < bound)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair small_int (small_list int))
    (fun (seed, l) ->
      let r = Workload.Rng.create seed in
      List.sort compare (Workload.Rng.shuffle r l) = List.sort compare l)

let suite =
  [ Alcotest.test_case "generation deterministic" `Quick test_generation_deterministic;
    Alcotest.test_case "seed matters" `Quick test_generation_seed_matters;
    Alcotest.test_case "bug quota planted" `Quick test_bug_quota_planted;
    Alcotest.test_case "generated program valid" `Quick test_generated_program_valid;
    Alcotest.test_case "expectation lines unique" `Quick test_expectation_lines_unique;
    Alcotest.test_case "subject profiles" `Quick test_subject_profiles_exist;
    Alcotest.test_case "scoring tp" `Quick test_scoring_tp;
    Alcotest.test_case "scoring wrong line" `Quick test_scoring_fp_wrong_line;
    Alcotest.test_case "scoring kind mismatch" `Quick test_scoring_kind_mismatch;
    Alcotest.test_case "scoring filters checker" `Quick test_scoring_filters_checker;
    Alcotest.test_case "each expectation once" `Quick test_scoring_each_expectation_once;
    Alcotest.test_case "lint bugs found" `Quick test_lint_bugs_found;
    Alcotest.test_case "lint clean without lint bugs" `Quick
      test_lint_clean_without_lint_bugs;
    Alcotest.test_case "lint expectation matched once" `Quick
      test_score_lints_each_expectation_once;
    Alcotest.test_case "every tier byte identical" `Quick
      test_every_tier_byte_identical;
    Alcotest.test_case "mega seed distinct bugs" `Quick
      test_mega_seed_distinct_bugs;
    Alcotest.test_case "mega subject shape" `Quick test_mega_subject_shape;
    Alcotest.test_case "scoring empty ground truth raises" `Quick
      test_scoring_empty_ground_truth_raises;
    Alcotest.test_case "generation byte identical" `Quick
      test_generation_byte_identical;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    QCheck_alcotest.to_alcotest prop_rng_bounds;
    QCheck_alcotest.to_alcotest prop_shuffle_permutation ]
