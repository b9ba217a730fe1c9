(* The soundness harness suite (ISSUE 9).

   Three layers of defence, cheapest first:

   - interpreter unit tests: the concrete reference interpreter is
     deterministic, honours catch dispatch, and cuts off on fuel;
   - corpus replay: every minimized counterexample ever found by the
     fuzzer (plus hand-written exception cases) is re-checked on every
     `dune runtest` — the unweakened pipeline must report its bug, and
     the harness must find no false negative and no invalid report;
   - live fuzzing: a short seeded fuzz run must come back clean, and the
     deliberately weakened summary tier must be caught as a false
     negative within a few iterations — proof the harness has teeth, not
     just that the pipeline is currently sound. *)

module Fuzz = Refinterp.Fuzz
module Interp = Refinterp.Interp
module Oracle = Refinterp.Oracle

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  Jir.Resolve.parse_exn ~file:(Filename.basename path) src

let parse_src src = Jir.Resolve.parse_exn ~file:"<test>" src

(* the glob_files dep copies test/corpus into the build directory next
   to the test binary; resolving against the executable works under both
   `dune runtest` and `dune exec` *)
let corpus_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jir")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat corpus_dir f)

(* ---------------- interpreter unit tests ---------------- *)

let throw_src =
  {|
class Main {
  void main(int argc) {
    if (argc > 0) {
      throw new AppError();
    }
    return;
  }
}
entry Main.main;
|}

let test_interp_deterministic () =
  let program = parse_src throw_src in
  let run seed =
    Interp.run ~config:(Interp.default_config ~seed) program
  in
  for seed = 1 to 10 do
    let a = run seed and b = run seed in
    Alcotest.(check int) "same steps" a.Interp.steps b.Interp.steps;
    Alcotest.(check bool) "same exit" true (a.Interp.exit_ = b.Interp.exit_);
    Alcotest.(check int) "same allocations"
      (List.length a.Interp.objects)
      (List.length b.Interp.objects)
  done;
  (* the seeded inputs must land on both sides of the branch *)
  let exits =
    List.init 20 (fun i -> (run (i + 1)).Interp.exit_)
  in
  let thrown =
    List.exists
      (function Interp.Exit_uncaught _ -> true | _ -> false)
      exits
  and normal = List.exists (( = ) Interp.Exit_normal) exits in
  Alcotest.(check bool) "both outcomes reached" true (thrown && normal)

let test_interp_throw_site () =
  let program = parse_src throw_src in
  let rec go seed =
    if seed > 50 then Alcotest.fail "no seed triggered the throw"
    else
      match (Interp.run ~config:(Interp.default_config ~seed) program)
              .Interp.exit_
      with
      | Interp.Exit_uncaught { exn_class; throw_at = Some at } ->
          Alcotest.(check string) "exception class" "AppError" exn_class;
          Alcotest.(check int) "throw line" 5 at.Jir.Ast.line
      | _ -> go (seed + 1)
  in
  go 1

let test_interp_catch () =
  let program =
    parse_src
      {|
class Main {
  void main(int argc) {
    try {
      throw new AppError();
    } catch (AppError e) {
      argc = 0;
    }
    return;
  }
}
entry Main.main;
|}
  in
  let out = Interp.run ~config:(Interp.default_config ~seed:1) program in
  Alcotest.(check bool) "caught throw exits normally" true
    (out.Interp.exit_ = Interp.Exit_normal)

let test_interp_fuel () =
  let program =
    parse_src
      {|
class Main {
  void main(int argc) {
    int x = 0;
    while (x < 1) {
      argc = argc + 1;
    }
    return;
  }
}
entry Main.main;
|}
  in
  let config = { (Interp.default_config ~seed:1) with Interp.fuel = 500 } in
  let out = Interp.run ~config program in
  Alcotest.(check bool) "runaway loop hits the fuel bound" true
    (out.Interp.exit_ = Interp.Exit_fuel)

let test_interp_event_trace () =
  (* a socket opened and closed: exactly the open/close library calls
     land on the object's trace, in order *)
  let program =
    parse_src
      {|
class Main {
  void main(int argc) {
    Socket s = new Socket();
    s.connect();
    s.close();
    return;
  }
}
entry Main.main;
|}
  in
  let out = Interp.run ~config:(Interp.default_config ~seed:1) program in
  match out.Interp.objects with
  | [ o ] ->
      let names =
        List.rev_map
          (fun (e : Interp.event) ->
            match e.Interp.ev_kind with
            | Interp.Ecall c -> c.Jir.Ast.mname
            | Interp.Estore _ -> "<store>"
            | Interp.Ereturn _ -> "<return>")
          o.Interp.o_events
      in
      Alcotest.(check (list string)) "event trace" [ "connect"; "close" ]
        names
  | objs ->
      Alcotest.failf "expected one allocation, got %d" (List.length objs)

(* ---------------- corpus replay ---------------- *)

let test_corpus_present () =
  let files = corpus_files () in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 corpus programs (found %d)"
       (List.length files))
    true
    (List.length files >= 10)

let replay path () =
  let program = parse_file path in
  let h = Fuzz.check_program ~runs:6 ~seed:1 program in
  let n_reports =
    List.fold_left (fun n (_, rs) -> n + List.length rs) 0 h.Fuzz.h_reports
  in
  Alcotest.(check bool)
    (path ^ ": pipeline reports the planted bug")
    true (n_reports > 0);
  List.iter
    (fun v ->
      Alcotest.failf "%s: false negative: %s" path
        (Oracle.violation_to_string v))
    h.Fuzz.h_uncovered;
  List.iter
    (fun (r, reason) ->
      Alcotest.failf "%s: invalid report from %s: %s" path
        r.Grapple.Report.checker reason)
    h.Fuzz.h_invalid

let test_corpus_concrete_violations () =
  (* in aggregate the corpus must exercise the concrete side too:
     replay is vacuous if no minimized program ever reaches a bad state
     under the interpreter *)
  let total =
    List.fold_left
      (fun n path ->
        let h = Fuzz.check_program ~runs:6 ~seed:1 (parse_file path) in
        n + List.length h.Fuzz.h_violations)
      0 (corpus_files ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "corpus exhibits concrete violations (saw %d)" total)
    true (total > 0)

(* [check_program] removes the workdir it creates: two harness runs under
   a fresh temp directory leave it empty. *)
let test_check_program_cleans_up () =
  let saved = Filename.get_temp_dir_name () in
  let tmp = Testdir.fresh () in
  Fun.protect ~finally:(fun () -> Filename.set_temp_dir_name saved)
  @@ fun () ->
  Filename.set_temp_dir_name tmp;
  let program = parse_file (List.hd (corpus_files ())) in
  ignore (Fuzz.check_program ~runs:1 ~seed:1 program : Fuzz.harness_result);
  ignore (Fuzz.check_program ~runs:1 ~seed:2 program : Fuzz.harness_result);
  Alcotest.(check (list string)) "nothing left in the temp directory" []
    (Array.to_list (Sys.readdir tmp))

(* ---------------- live fuzzing ---------------- *)

let test_fuzz_smoke () =
  let r = Fuzz.run { Fuzz.default_config with Fuzz.iters = 10 } in
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.failf "iter %d (seed %d): %s" f.Fuzz.f_iter f.Fuzz.f_seed
        f.Fuzz.f_summary)
    r.Fuzz.failures;
  Alcotest.(check bool) "confronted concrete violations" true
    (r.Fuzz.violations_seen > 0);
  Alcotest.(check bool) "confronted static reports" true
    (r.Fuzz.reports_seen > 0)

(* the shrinker skips a candidate whose printed text does not lex, as it
   skips one that does not parse or resolve: a variable named "@" prints a
   character no token begins with *)
let test_shrink_skips_unlexable () =
  let open Jir.Ast in
  let big = mk (Decl (Tint, "big", Some (Rexpr (Var "@")))) in
  let p = parse_src throw_src in
  let p =
    { p with
      classes =
        List.map
          (fun c ->
            { c with
              methods =
                List.map (fun m -> { m with body = big :: m.body }) c.methods
            })
          p.classes }
  in
  Alcotest.(check bool) "skipped" true
    (Option.is_none (Refinterp.Shrink.revalidate p))

let test_weakened_summary_tier () =
  (* drop the triage tier and the harness must catch the resulting false
     negatives within a few iterations *)
  let r =
    Fuzz.run
      { Fuzz.default_config with
        Fuzz.iters = 15;
        weaken_tier = Some Grapple.Pipeline.Summary;
        shrink_checks = 20 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "weakened summary tier caught as FN (%d failure(s))"
       (List.length r.Fuzz.failures))
    true
    (r.Fuzz.failures <> []);
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.(check bool)
        "counterexample was minimized to a parseable program" true
        (Jir.Pp.program_to_string f.Fuzz.f_program <> ""))
    r.Fuzz.failures

(* `grapple fuzz --weaken-tier` names only a tier that exists: any other
   name is a usage error (exit 124) rather than an unweakened run that
   passes.  Zero iterations: only the argument parse is under test. *)
let test_weaken_tier_names () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/grapple_cli.exe"
  in
  let status tier =
    Sys.command
      (Filename.quote_command exe ~stdout:Filename.null ~stderr:Filename.null
         [ "fuzz"; "--iters"; "0"; "--weaken-tier"; tier ])
  in
  Alcotest.(check int) "summary is a tier" 0 (status "summary");
  List.iter
    (fun tier ->
      Alcotest.(check int) (tier ^ " is a usage error") 124 (status tier))
    [ "escape"; "alias"; "bogus" ]

let suite =
  [ Alcotest.test_case "interp: deterministic per seed" `Quick
      test_interp_deterministic;
    Alcotest.test_case "interp: uncaught throw site" `Quick
      test_interp_throw_site;
    Alcotest.test_case "interp: catch dispatch" `Quick test_interp_catch;
    Alcotest.test_case "interp: fuel bound" `Quick test_interp_fuel;
    Alcotest.test_case "interp: library-call event trace" `Quick
      test_interp_event_trace;
    Alcotest.test_case "corpus: at least 10 programs" `Quick
      test_corpus_present ]
  @ List.map
      (fun path ->
        Alcotest.test_case ("replay " ^ Filename.basename path) `Quick
          (replay path))
      (corpus_files ())
  @ [ Alcotest.test_case "corpus: concrete violations exercised" `Quick
        test_corpus_concrete_violations;
      Alcotest.test_case "harness: check_program leaves no workdir" `Quick
        test_check_program_cleans_up;
      Alcotest.test_case "fuzz: 10-iteration smoke run is clean" `Quick
        test_fuzz_smoke;
      Alcotest.test_case "fuzz: weakened summary tier caught" `Slow
        test_weakened_summary_tier;
      Alcotest.test_case "fuzz: --weaken-tier names only real tiers" `Quick
        test_weaken_tier_names;
      Alcotest.test_case "shrink: a candidate that does not lex is skipped"
        `Quick test_shrink_skips_unlexable ]
