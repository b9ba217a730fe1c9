(* Tests for the declarative property DSL (lib/spec): parser and validator
   diagnostics, printer round-trips, a field-for-field golden of the
   paper's checkers as compiled from the embedded text, null tracking that
   follows what a property tracks rather than its name, and the
   ground-truth scores of the four further DSL-defined checkers. *)

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "grapple-test-spec-%d-%d" (Unix.getpid ()) !counter)

(* ---------------- parsing and validation ---------------- *)

let expect_error ~line ~needle src =
  match Spec.compile ~file:"t.gspec" src with
  | _ -> Alcotest.failf "expected Spec_error (%s)" needle
  | exception Spec.Spec_error (pos, msg) ->
      Alcotest.(check string) "file" "t.gspec" pos.Spec.sp_file;
      Alcotest.(check int) ("line of: " ^ msg) line pos.Spec.sp_line;
      Alcotest.(check bool) ("column positioned: " ^ msg) true
        (pos.Spec.sp_col >= 1);
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" msg needle)
        true (contains msg needle)

let test_unknown_state () =
  expect_error ~line:5 ~needle:"unknown state"
    {|property p {
  track C;
  initial A;
  accepting A;
  on A e -> B;
}
|}

let test_nondeterministic_transition () =
  expect_error ~line:7 ~needle:"nondeterministic"
    {|property p {
  track C;
  initial A;
  accepting A;
  state B;
  on A e -> B;
  on A e -> Error;
  on B e -> A;
}
|}

let test_missing_error_message () =
  expect_error ~line:5 ~needle:"missing error message"
    {|property p {
  track C;
  initial A;
  accepting A;
  error Boom;
  on A e -> Boom;
}
|}

let test_unreachable_state () =
  expect_error ~line:5 ~needle:"unreachable state"
    {|property p {
  track C;
  initial A;
  accepting A;
  state Island;
  on A e -> A;
}
|}

let test_transition_out_of_error () =
  expect_error ~line:5 ~needle:"error state"
    {|property p {
  track C;
  initial A;
  accepting A;
  on Error e -> A;
}
|}

let test_unknown_event_in_declared_mode () =
  expect_error ~line:6 ~needle:"unknown event"
    {|property p {
  track C;
  initial A;
  accepting A;
  event go = call start;
  on A stop -> Error;
}
|}

let test_unknown_product_component () =
  expect_error ~line:1 ~needle:"unknown property"
    {|property p = product(a, b) {
  error "boom";
}
|}

(* ---------------- printer round-trip ---------------- *)

let roundtrip name (fsm : Fsm.t) =
  let text = Spec.print_fsm fsm in
  match Spec.compile ~file:(name ^ ".gspec") text with
  | [ { Spec.c_kind = Spec.Typestate fsm'; _ } ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips:\n%s" name text)
        true
        (Spec.equivalent fsm fsm')
  | _ -> Alcotest.failf "%s: round-trip did not yield one typestate" name

let test_roundtrip_dsl_builtins () =
  List.iter
    (fun (file, text) ->
      List.iter
        (fun (c : Spec.checker) ->
          match c.Spec.c_kind with
          | Spec.Typestate fsm -> roundtrip c.Spec.c_name fsm
          | Spec.Exception_walk _ -> ())
        (Spec.compile ~file text))
    Spec.Builtin.all

(* ---------------- paper-checker golden ---------------- *)

(* Every field of a paper checker, in a fixed textual form: for a
   typestate, the tracked-class order, the states in numbering order, the
   distinguished states, the event alphabet and how events match, the
   message templates, and the transitions sorted by (from, event); for an
   exception walk, its options. *)
let render_paper_checker (c : Checkers.t) =
  let b = Buffer.create 512 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let list l = "[" ^ String.concat " " l ^ "]" in
  line "%s" c.Checkers.name;
  (match c.Checkers.kind with
  | `Exception_walk (o : Checkers.Exception_checker.opts) ->
      line "  exception walk: name=%s handler_aware=%b" o.name o.handler_aware
  | `Typestate (f : Fsm.t) ->
      line "  fsm name: %s" f.Fsm.name;
      line "  tracked: %s" (list f.Fsm.tracked_classes);
      Array.iteri (fun i s -> line "  state %d: %s" i s) f.Fsm.state_names;
      line "  initial: %d  error: %d  accepting: %s" f.Fsm.initial
        f.Fsm.error (list (List.map string_of_int f.Fsm.accepting));
      line "  events: %s" (list f.Fsm.events);
      line "  ignore_unknown_events: %b" f.Fsm.ignore_unknown_events;
      List.iter
        (fun (d : Fsm.event_decl) ->
          line "  event %s = %s" d.Fsm.ev_name
            (String.concat " "
               (Spec.print_pattern d.Fsm.ev_pattern
               :: List.map Spec.print_guard d.Fsm.ev_guards)))
        f.Fsm.event_decls;
      List.iter (fun (s, m) -> line "  message %s: %s" s m) f.Fsm.messages;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) f.Fsm.transitions []
      |> List.sort compare
      |> List.iter (fun ((s, e), s') -> line "  on %d %s -> %d" s e s'));
  Buffer.contents b

(* Recorded from the hand-built FSM builders before they were deleted: the
   checkers compiled from the embedded paper text must stay identical to
   them, field for field. *)
let paper_golden =
  {|io
  fsm name: io
  tracked: [FileWriter FileReader FileInputStream FileOutputStream BufferedWriter BufferedReader PrintWriter DataOutputStream]
  state 0: Open
  state 1: Closed
  state 2: Error
  initial: 0  error: 2  accepting: [1]
  events: [close flush read write]
  ignore_unknown_events: true
  on 0 close -> 1
  on 0 flush -> 0
  on 0 read -> 0
  on 0 write -> 0
  on 1 close -> 1
  on 1 flush -> 2
  on 1 read -> 2
  on 1 write -> 2
lock
  fsm name: lock
  tracked: [ReentrantLock Lock ReadLock WriteLock]
  state 0: Unlocked
  state 1: Locked
  state 2: Error
  initial: 0  error: 2  accepting: [0]
  events: [lock unlock]
  ignore_unknown_events: true
  on 0 lock -> 1
  on 0 unlock -> 2
  on 1 unlock -> 0
exception
  exception walk: name=exception handler_aware=false
socket
  fsm name: socket
  tracked: [Socket ServerSocket ServerSocketChannel SocketChannel]
  state 0: Open
  state 1: Closed
  state 2: Bound
  state 3: Ready
  state 4: Error
  initial: 0  error: 4  accepting: [1]
  events: [accept bind close configureBlocking connect read setTcpNoDelay write]
  ignore_unknown_events: true
  on 0 accept -> 4
  on 0 bind -> 2
  on 0 close -> 1
  on 0 configureBlocking -> 0
  on 0 connect -> 3
  on 0 setTcpNoDelay -> 0
  on 1 accept -> 4
  on 1 bind -> 4
  on 1 connect -> 4
  on 2 accept -> 3
  on 2 close -> 1
  on 2 configureBlocking -> 2
  on 3 accept -> 3
  on 3 close -> 1
  on 3 read -> 3
  on 3 write -> 3
null
  fsm name: null
  tracked: [<null>]
  state 0: Null
  state 1: Error
  initial: 0  error: 1  accepting: [0]
  events: []
  ignore_unknown_events: false
|}

let test_paper_checkers_golden () =
  Alcotest.(check string) "paper checkers, field for field" paper_golden
    (String.concat ""
       (List.map
          (fun n -> render_paper_checker (Checkers.resolve n))
          [ "io"; "lock"; "exception"; "socket"; "null" ]))

(* the shipped specs/*.gspec files are the embedded Builtin texts *)
let test_shipped_specs_in_sync () =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  List.iter
    (fun (file, text) ->
      Alcotest.(check string) ("specs/" ^ file) text
        (read (Filename.concat "../specs" file)))
    Spec.Builtin.all

(* ---------------- checker resolution (CLI satellite) ---------------- *)

let test_resolve_names () =
  let c = Checkers.resolve "io" in
  Alcotest.(check string) "builtin" "io" c.Checkers.name;
  let c = Checkers.resolve "lock_order" in
  Alcotest.(check string) "dsl" "lock_order" c.Checkers.name;
  let loaded =
    List.map Checkers.of_spec (Spec.compile_file "../specs/close.gspec")
  in
  let c = Checkers.resolve ~loaded "close" in
  Alcotest.(check string) "loaded" "close" c.Checkers.name

let test_resolve_unknown_lists_available () =
  match Checkers.resolve "no_such_checker" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      List.iter
        (fun n ->
          let contains s sub =
            let k = String.length sub in
            let rec go i =
              i + k <= String.length s
              && (String.sub s i k = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) ("lists " ^ n) true (contains msg n))
        [ "no_such_checker"; "io"; "lock"; "exception"; "socket"; "null";
          "lock_order"; "taint"; "close"; "exc_twr" ]

(* the typestate projection keeps list order and drops both exception
   walks: the paper's plain one and the DSL's handler-aware exc_twr *)
let test_fsms_projection () =
  let cs =
    List.map Checkers.resolve
      [ "exc_twr"; "taint"; "io"; "exception"; "null"; "lock_order" ]
  in
  Alcotest.(check (list string))
    "typestate FSMs in order"
    [ "taint"; "io"; "null"; "lock_order" ]
    (List.map (fun (f : Fsm.t) -> f.Fsm.name) (Checkers.fsms cs))

(* ---------------- pipeline harness ---------------- *)

let prepare_and_run ?(workers = 1) ~track_null (cs : Checkers.t list)
    (program : Jir.Ast.program) =
  let workdir = fresh_workdir () in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
      track_null;
      prefilter_properties = Checkers.fsms cs;
      workers }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let results, _, _ = Checkers.run_all_scheduled prepared cs in
  results

(* the rendered report block, exactly what the CLI prints per checker *)
let render results =
  String.concat "\n"
    (List.concat_map
       (fun (name, reports) ->
         Printf.sprintf "== %s: %d" name (List.length reports)
         :: List.map Grapple.Report.to_string reports)
       results)

(* ---------------- null tracking by what a property tracks ---------------- *)

let differential_subject () =
  Workload.Generator.generate
    { Workload.Generator.name = "specdiff";
      description = "differential subject";
      seed = 909;
      layers = 2;
      classes_per_layer = 2;
      methods_per_class = 2;
      patterns_per_method = 2;
      calls_per_method = 1;
      bugs = [ ("io", 2); ("lock", 1); ("socket", 1); ("null", 1) ];
      lint_bugs = [];
      loops_per_subject = 1 }

(* Null tracking follows what a property tracks, not its name: the paper's
   null property loaded under another name reports the null checker's
   warnings, checker name aside. *)
let test_renamed_null_property () =
  let nullx =
    List.map Checkers.of_spec
      (Spec.compile ~file:"nullx.gspec"
         {|property nullx {
  track "<null>";
  initial Null;
  accepting Null;
  strict;
}|})
  in
  Alcotest.(check bool) "renamed property tracks null" true
    (Checkers.tracks_null nullx);
  let program = (differential_subject ()).Workload.Generator.program in
  let warnings cs =
    prepare_and_run ~track_null:(Checkers.tracks_null cs) cs program
    |> List.concat_map snd
    |> List.map (fun r ->
           Grapple.Report.to_string { r with Grapple.Report.checker = "null" })
  in
  let expected = warnings [ Checkers.resolve "null" ] in
  Alcotest.(check bool) "the null checker warns on the subject" true
    (expected <> []);
  Alcotest.(check (list string)) "same warnings under another name" expected
    (warnings nullx)

(* worker-count invariance of the full DSL checker set: the rendered
   reports must be byte-identical at 1 and 4 workers *)
let test_dsl_checkers_worker_invariant () =
  let cs =
    List.map Checkers.resolve [ "lock_order"; "taint"; "close"; "exc_twr" ]
  in
  let subject = Workload.Generator.mini_taint () in
  let program = subject.Workload.Generator.program in
  let r1 = render (prepare_and_run ~workers:1 ~track_null:false cs program) in
  let r4 = render (prepare_and_run ~workers:4 ~track_null:false cs program) in
  Alcotest.(check string) "workers 1 = workers 4" r1 r4

(* ---------------- DSL checker ground truth ---------------- *)

let score_subject (subject : Workload.Generator.subject) name =
  let c = Checkers.resolve name in
  let results =
    prepare_and_run ~track_null:false [ c ]
      subject.Workload.Generator.program
  in
  let reports =
    Option.value ~default:[] (List.assoc_opt name results)
  in
  Workload.Scoring.score ~checker:name
    ~expected:subject.Workload.Generator.expected ~reports ()

let check_perfect name subject expected_tp =
  let s = score_subject subject name in
  Alcotest.(check int) (name ^ " TP") expected_tp s.Workload.Scoring.tp;
  Alcotest.(check int) (name ^ " FP") 0 s.Workload.Scoring.fp;
  Alcotest.(check int) (name ^ " FN") 0 s.Workload.Scoring.fn

let test_lock_order_score () =
  check_perfect "lock_order" (Workload.Generator.mini_locks ()) 2

let test_taint_score () =
  check_perfect "taint" (Workload.Generator.mini_taint ()) 3

let test_close_score () =
  check_perfect "close" (Workload.Generator.mini_close ()) 2

(* exc_twr: same true positives as the paper's exception checker, strictly
   fewer false positives on the try-with-resources decoys *)
let test_exc_twr_beats_exception () =
  let subject = Workload.Generator.mini_twr () in
  let program = subject.Workload.Generator.program in
  let expected = subject.Workload.Generator.expected in
  let twr =
    let results =
      prepare_and_run ~track_null:false [ Checkers.resolve "exc_twr" ] program
    in
    let reports = Option.value ~default:[] (List.assoc_opt "exc_twr" results) in
    Workload.Scoring.score ~checker:"exc_twr" ~expected ~reports ()
  in
  let old =
    let results =
      prepare_and_run ~track_null:false [ Checkers.resolve "exception" ] program
    in
    let reports =
      Option.value ~default:[] (List.assoc_opt "exception" results)
      (* rename so the scorer matches them against the exc_twr ground
         truth: both walks target the same planted bugs *)
      |> List.map (fun r -> { r with Grapple.Report.checker = "exc_twr" })
    in
    Workload.Scoring.score ~checker:"exc_twr" ~expected ~reports ()
  in
  Alcotest.(check int) "exc_twr TP" 2 twr.Workload.Scoring.tp;
  Alcotest.(check int) "exc_twr FP" 0 twr.Workload.Scoring.fp;
  Alcotest.(check int) "exc_twr FN" 0 twr.Workload.Scoring.fn;
  Alcotest.(check int) "plain walk finds the same bugs" 2
    old.Workload.Scoring.tp;
  Alcotest.(check bool)
    (Printf.sprintf "plain walk FPs (%d) > exc_twr FPs (%d)"
       old.Workload.Scoring.fp twr.Workload.Scoring.fp)
    true
    (old.Workload.Scoring.fp > twr.Workload.Scoring.fp)

(* the product construction itself: alphabet union, component stall,
   pair-state naming *)
let test_product_semantics () =
  let cs = Spec.compile ~file:"b.gspec" Spec.Builtin.lock_order in
  let fsm =
    match cs with
    | [ { Spec.c_name = "lock_order"; c_kind = Spec.Typestate f } ] -> f
    | _ -> Alcotest.fail "lock_order compiles to one typestate checker"
  in
  Alcotest.(check bool) "lockB first errs" true
    (Fsm.run fsm [ "lockB" ] = fsm.Fsm.error);
  let st = Fsm.run fsm [ "lockA"; "lockB"; "unlockA" ] in
  Alcotest.(check bool) "A-first sequence accepted" true
    (st <> fsm.Fsm.error && Fsm.is_accepting fsm st);
  (* the product's error message template renders through describe_state *)
  let msg = Fsm.describe_state fsm fsm.Fsm.error ~cls:"LockPair" in
  Alcotest.(check string) "error message template"
    "lock-order inversion on LockPair: B acquired before A" msg

let suite =
  [ Alcotest.test_case "unknown state" `Quick test_unknown_state;
    Alcotest.test_case "nondeterministic transition" `Quick
      test_nondeterministic_transition;
    Alcotest.test_case "missing error message" `Quick
      test_missing_error_message;
    Alcotest.test_case "unreachable state" `Quick test_unreachable_state;
    Alcotest.test_case "transition out of error" `Quick
      test_transition_out_of_error;
    Alcotest.test_case "unknown event" `Quick
      test_unknown_event_in_declared_mode;
    Alcotest.test_case "unknown product component" `Quick
      test_unknown_product_component;
    Alcotest.test_case "round-trip DSL builtins" `Quick
      test_roundtrip_dsl_builtins;
    Alcotest.test_case "paper checkers golden" `Quick
      test_paper_checkers_golden;
    Alcotest.test_case "shipped specs in sync" `Quick
      test_shipped_specs_in_sync;
    Alcotest.test_case "resolve names" `Quick test_resolve_names;
    Alcotest.test_case "resolve unknown lists available" `Quick
      test_resolve_unknown_lists_available;
    Alcotest.test_case "typestate projection" `Quick test_fsms_projection;
    Alcotest.test_case "renamed null property" `Slow
      test_renamed_null_property;
    Alcotest.test_case "DSL checkers worker-invariant" `Slow
      test_dsl_checkers_worker_invariant;
    Alcotest.test_case "lock_order score" `Slow test_lock_order_score;
    Alcotest.test_case "taint score" `Slow test_taint_score;
    Alcotest.test_case "close score" `Slow test_close_score;
    Alcotest.test_case "exc_twr beats exception" `Slow
      test_exc_twr_beats_exception;
    Alcotest.test_case "product semantics" `Quick test_product_semantics ]
