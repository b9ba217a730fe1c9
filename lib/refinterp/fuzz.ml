(* The adversarial soundness fuzzer (ISSUE 9 tentpole).

   Each iteration generates a small random subject through the same
   [Workload.Generator] machinery as the benchmark profiles, runs the
   full static pipeline (all four paper checkers plus the shipped DSL
   checkers, through whatever worker/shard configuration the caller
   asks for), concretely executes the program under several input
   seeds, and holds the two sides against each other with [Oracle]:

     (a) every concrete error-state trace or leak must be statically
         reported — a miss is a false negative smuggled through the
         summary triage tier or the engine;
     (b) every static report must be structurally valid — a real
         allocation (or throw) site whose claimed outcome the property
         FSM can produce.

   On a failure, the program is shrunk ([Shrink.minimize]) and the
   minimized counterexample written to the corpus directory so it
   becomes a permanent regression test. *)

module Pipeline = Grapple.Pipeline
module Report = Grapple.Report
module Generator = Workload.Generator
module Rng = Workload.Rng

(* The checker set the harness exercises: the paper's four (minus
   [null], whose tracked "allocation" is the null constant and which
   has no concrete-trace analogue) plus every shipped DSL checker, so
   the triage tier and all checker families are covered. *)
let checker_names =
  [ "io"; "lock"; "socket"; "exception"; "lock_order"; "taint"; "close";
    "exc_twr" ]

let exn_checker_names = [ "exception"; "exc_twr" ]

let checkers () = List.map (fun n -> Checkers.resolve n) checker_names

(* Bug families the generator can plant, one per checker family. *)
let bug_families =
  [ "io"; "lock"; "socket"; "exception"; "lock_order"; "taint"; "close";
    "exc_twr" ]

(* A small random profile.  Dimensions are tiny (1-2 layers / classes /
   methods) so a single iteration stays sub-second; the bug quota is
   capped by the number of method slots, which the generator enforces. *)
let random_profile ~seed : Generator.profile =
  let rng = Rng.create (0x50b5eed + (2 * seed)) in
  let layers = 1 + Rng.int rng 2 in
  let classes_per_layer = 1 + Rng.int rng 2 in
  let methods_per_class = 1 + Rng.int rng 2 in
  let slots = layers * classes_per_layer * methods_per_class in
  let fams = Rng.shuffle rng bug_families in
  let n_bugged = 1 + Rng.int rng (min slots (List.length fams)) in
  let bugs =
    List.filteri (fun i _ -> i < n_bugged) fams
    |> List.map (fun f -> (f, 1))
  in
  { Generator.name = Printf.sprintf "fuzz%d" seed;
    description = "soundness-fuzz subject";
    seed = (seed * 7919) + 13;
    layers;
    classes_per_layer;
    methods_per_class;
    patterns_per_method = Rng.int rng 2;
    calls_per_method = 1 + Rng.int rng 2;
    bugs;
    lint_bugs = [];
    loops_per_subject = Rng.int rng 2 }

(* ---------------- one program through the harness ---------------- *)

type harness_result = {
  h_reports : (string * Report.t list) list;
  h_violations : Oracle.violation list;  (* deduped concrete violations *)
  h_uncovered : Oracle.violation list;   (* direction (a) failures *)
  h_invalid : (Report.t * string) list;  (* direction (b) failures *)
  h_interp_runs : int;
}

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "grapple-fuzz-%d-%d" (Unix.getpid ()) !counter)
    in
    Engine.ensure_dir dir;
    dir

let interp_seeds ~runs ~seed =
  List.init (max 1 runs) (fun i -> (seed * 1_000) + (i * 77) + 1)

(* Run the static pipeline and the concrete interpreter over one
   resolved program and confront the two.  This is the harness core,
   shared by the fuzz loop, the corpus replay, and the weakened-tier
   tests.  A workdir it creates itself is removed before it returns; a
   caller's [workdir] is left as the pipeline leaves it. *)
let check_program ?(shard_procs = 0) ?weaken_tier
    ?(runs = 6) ?(seed = 1) ?workdir (program : Jir.Ast.program) :
    harness_result =
  let own = Option.is_none workdir in
  let workdir = match workdir with Some d -> d | None -> fresh_workdir () in
  let cs = checkers () in
  let fsms = Checkers.fsms cs in
  let config =
    { (Pipeline.default_config ~workdir) with
      Pipeline.library_throwers = Checkers.Specs.library_throwers;
      prefilter_properties = fsms;
      shard_procs;
      weaken_tier }
  in
  let prepared = Pipeline.prepare ~config ~workdir program in
  let reports, props, _schedule = Checkers.run_all_scheduled prepared cs in
  if own then Pipeline.cleanup prepared props;
  let seeds = interp_seeds ~runs ~seed in
  let violations =
    List.concat_map
      (fun s ->
        let iconfig =
          { (Interp.default_config ~seed:s) with
            Interp.library_throwers = Checkers.Specs.library_throwers }
        in
        let out = Interp.run ~config:iconfig program in
        Oracle.concrete_violations ~fsms ~exn_checkers:exn_checker_names out)
      seeds
  in
  (* the same site often misbehaves under several input seeds: one
     violation per (checker, kind, class, line) is enough *)
  let seen = Hashtbl.create 16 in
  let violations =
    List.filter
      (fun (v : Oracle.violation) ->
        let k = (v.Oracle.v_checker, v.Oracle.v_kind, v.Oracle.v_cls,
                 v.Oracle.v_line)
        in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      violations
  in
  { h_reports = reports;
    h_violations = violations;
    h_uncovered = Oracle.uncovered ~reports violations;
    h_invalid = Oracle.invalid_reports ~program ~fsms reports;
    h_interp_runs = List.length seeds }

(* ---------------- the fuzz loop ---------------- *)

type config = {
  iters : int;
  seed : int;
  shard_procs : int;
  weaken_tier : Pipeline.tier option;  (* test-only: see Pipeline.weaken_tier *)
  runs_per_program : int;       (* interpreter seeds per subject *)
  corpus_dir : string option;   (* minimized counterexamples land here *)
  shrink_checks : int;          (* harness re-runs the shrinker may spend *)
  log : string -> unit;
}

let default_config =
  { iters = 50;
    seed = 1;
    shard_procs = 0;
    weaken_tier = None;
    runs_per_program = 6;
    corpus_dir = None;
    shrink_checks = 120;
    log = ignore }

type failure = {
  f_iter : int;
  f_seed : int;            (* generator seed of the failing subject *)
  f_checker : string;
  f_summary : string;
  f_program : Jir.Ast.program;  (* minimized counterexample *)
  f_shrink_checks : int;
  f_corpus_file : string option;
}

type result = {
  iterations : int;
  interp_runs : int;
  violations_seen : int;  (* concrete violations confronted with reports *)
  reports_seen : int;     (* static reports confronted with the program *)
  failures : failure list;
}

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> c
      | _ -> '_')
    s

let write_corpus ~dir ~name ~summary program =
  Engine.ensure_dir dir;
  let path = Filename.concat dir (name ^ ".jir") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc ("// minimized soundness counterexample: " ^ summary);
      output_string oc "\n";
      output_string oc (Jir.Pp.program_to_string program));
  path

(* Describe the first failure of a harness result, if any, together
   with a predicate that recognizes the same failure class on a shrunk
   candidate. *)
let first_failure (h : harness_result) :
    (string * string * (harness_result -> bool)) option =
  match h.h_uncovered with
  | v :: _ ->
      let c = v.Oracle.v_checker in
      Some
        ( c,
          "false negative: " ^ Oracle.violation_to_string v,
          fun h' ->
            List.exists
              (fun (v' : Oracle.violation) -> v'.Oracle.v_checker = c)
              h'.h_uncovered )
  | [] -> (
      match h.h_invalid with
      | (r, reason) :: _ ->
          let c = r.Report.checker in
          Some
            ( c,
              Printf.sprintf "invalid report from %s: %s" c reason,
              fun h' ->
                List.exists
                  (fun ((r' : Report.t), _) -> r'.Report.checker = c)
                  h'.h_invalid )
      | [] -> None)

let run (cfg : config) : result =
  let interp_runs = ref 0 in
  let violations_seen = ref 0 in
  let reports_seen = ref 0 in
  let failures = ref [] in
  for i = 0 to cfg.iters - 1 do
    let iter_seed = (cfg.seed * 10_000) + i in
    let profile = random_profile ~seed:iter_seed in
    let subject = Generator.generate profile in
    let check ?runs p =
      check_program ~shard_procs:cfg.shard_procs
        ?weaken_tier:cfg.weaken_tier
        ~runs:(Option.value ~default:cfg.runs_per_program runs)
        ~seed:iter_seed p
    in
    let h = check subject.Generator.program in
    interp_runs := !interp_runs + h.h_interp_runs;
    violations_seen := !violations_seen + List.length h.h_violations;
    reports_seen :=
      !reports_seen
      + List.fold_left (fun n (_, rs) -> n + List.length rs) 0 h.h_reports;
    match first_failure h with
    | None -> ()
    | Some (checker, summary, fails) ->
        cfg.log
          (Printf.sprintf "iter %d (seed %d): %s — shrinking" i iter_seed
             summary);
        let minimized, checks =
          Shrink.minimize ~max_checks:cfg.shrink_checks
            ~still_fails:(fun p -> fails (check ~runs:3 p))
            subject.Generator.program
        in
        let corpus_file =
          Option.map
            (fun dir ->
              write_corpus ~dir
                ~name:(Printf.sprintf "fuzz_%s_%d" (slug checker) iter_seed)
                ~summary minimized)
            cfg.corpus_dir
        in
        failures :=
          { f_iter = i;
            f_seed = iter_seed;
            f_checker = checker;
            f_summary = summary;
            f_program = minimized;
            f_shrink_checks = checks;
            f_corpus_file = corpus_file }
          :: !failures
  done;
  { iterations = cfg.iters;
    interp_runs = !interp_runs;
    violations_seen = !violations_seen;
    reports_seen = !reports_seen;
    failures = List.rev !failures }
