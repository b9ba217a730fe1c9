(* Tests for the FSM specification DSL and typestate semantics. *)

let test_build_and_query () =
  let f = Checkers.fsm "io" in
  Alcotest.(check bool) "tracks FileWriter" true (Fsm.is_tracked f "FileWriter");
  Alcotest.(check bool) "does not track Socket" false (Fsm.is_tracked f "Socket");
  Alcotest.(check bool) "write is an event" true (Fsm.is_event f "write");
  Alcotest.(check string) "initial" "Open" (Fsm.state_name f f.Fsm.initial);
  Alcotest.(check bool) "error not accepting" false (Fsm.is_accepting f f.Fsm.error)

let test_step_semantics () =
  let f = Checkers.fsm "io" in
  let s0 = f.Fsm.initial in
  let closed = Fsm.step f s0 "close" in
  Alcotest.(check string) "close" "Closed" (Fsm.state_name f closed);
  Alcotest.(check string) "write after close is error" "Error"
    (Fsm.state_name f (Fsm.step f closed "write"));
  (* error is absorbing *)
  Alcotest.(check int) "absorbing" f.Fsm.error
    (Fsm.step f f.Fsm.error "close");
  (* unknown events stall by default *)
  Alcotest.(check int) "unknown event ignored" s0 (Fsm.step f s0 "toString")

let test_run_and_verdict () =
  let f = Checkers.fsm "io" in
  Alcotest.(check bool) "ok sequence" true
    (Fsm.check_sequence f [ "write"; "write"; "close" ] = Fsm.Ok_);
  Alcotest.(check bool) "missing close" true
    (match Fsm.check_sequence f [ "write" ] with
    | Fsm.Bad_final _ -> true
    | _ -> false);
  Alcotest.(check bool) "use after close" true
    (Fsm.check_sequence f [ "close"; "write" ] = Fsm.Reaches_error)

let test_figure3a_example () =
  (* Figure 3b's four paths against the Figure 3a FSM *)
  let f = Checkers.fsm "io" in
  Alcotest.(check bool) "path 1: new write close" true
    (Fsm.check_sequence f [ "write"; "close" ] = Fsm.Ok_);
  Alcotest.(check bool) "path 2: new only -> not accepting" true
    (match Fsm.check_sequence f [] with Fsm.Bad_final _ -> true | _ -> false)

let test_lock_property () =
  let f = Checkers.fsm "lock" in
  Alcotest.(check bool) "lock unlock ok" true
    (Fsm.check_sequence f [ "lock"; "unlock" ] = Fsm.Ok_);
  Alcotest.(check bool) "unlock first is error" true
    (Fsm.check_sequence f [ "unlock"; "lock" ] = Fsm.Reaches_error);
  Alcotest.(check bool) "held at exit is bad" true
    (match Fsm.check_sequence f [ "lock" ] with
    | Fsm.Bad_final _ -> true
    | _ -> false)

let test_socket_property () =
  let f = Checkers.fsm "socket" in
  Alcotest.(check bool) "bind accept close ok" true
    (Fsm.check_sequence f [ "bind"; "accept"; "close" ] = Fsm.Ok_);
  Alcotest.(check bool) "accept before bind is error" true
    (Fsm.check_sequence f [ "accept" ] = Fsm.Reaches_error);
  Alcotest.(check bool) "never closed leaks" true
    (match Fsm.check_sequence f [ "bind" ] with
    | Fsm.Bad_final _ -> true
    | _ -> false)

let test_event_vector () =
  let f = Checkers.fsm "io" in
  let v = Fsm.event_vector f "close" in
  Alcotest.(check int) "arity" (Fsm.n_states f) (Array.length v);
  Array.iteri
    (fun s s' ->
      Alcotest.(check int) "vector agrees with step" (Fsm.step f s "close") s')
    v

let test_nondeterministic_rejected () =
  let b = Fsm.builder "broken" in
  Fsm.track b "T";
  Fsm.initial b "A";
  Fsm.on b ~from:"A" ~event:"e" ~goto:"B";
  Fsm.on b ~from:"A" ~event:"e" ~goto:"C";
  Alcotest.(check bool) "nondeterminism rejected" true
    (try ignore (Fsm.build b); false with Fsm.Invalid_spec _ -> true)

let test_spec_requires_initial_and_classes () =
  let b = Fsm.builder "empty" in
  Fsm.track b "T";
  Alcotest.(check bool) "missing initial rejected" true
    (try ignore (Fsm.build b); false with Fsm.Invalid_spec _ -> true);
  let b2 = Fsm.builder "noclass" in
  Fsm.initial b2 "A";
  Alcotest.(check bool) "missing classes rejected" true
    (try ignore (Fsm.build b2); false with Fsm.Invalid_spec _ -> true)

let test_strict_events () =
  let b = Fsm.builder "strict" in
  Fsm.track b "T";
  Fsm.initial b "A";
  Fsm.accepting b "A";
  Fsm.on b ~from:"A" ~event:"e" ~goto:"A";
  Fsm.strict_events b;
  let f = Fsm.build b in
  Alcotest.(check int) "unknown event errors in strict mode" f.Fsm.error
    (Fsm.step f f.Fsm.initial "other")

(* property: run = fold of step *)
let prop_run_is_fold =
  let open QCheck in
  let events = [ "write"; "read"; "close"; "flush"; "noise" ] in
  QCheck.Test.make ~name:"fsm run = fold step" ~count:200
    (list_of_size (Gen.int_range 0 12) (oneofl events))
    (fun seq ->
      let f = Checkers.fsm "io" in
      Fsm.run f seq
      = List.fold_left (fun s e -> Fsm.step f s e) f.Fsm.initial seq)

let prop_error_absorbing =
  let open QCheck in
  let events = [ "write"; "read"; "close"; "flush" ] in
  QCheck.Test.make ~name:"fsm error absorbing" ~count:200
    (list_of_size (Gen.int_range 0 12) (oneofl events))
    (fun seq ->
      let f = Checkers.fsm "io" in
      List.fold_left (fun s e -> Fsm.step f s e) f.Fsm.error seq = f.Fsm.error)

let suite =
  [ Alcotest.test_case "build and query" `Quick test_build_and_query;
    Alcotest.test_case "step semantics" `Quick test_step_semantics;
    Alcotest.test_case "run and verdict" `Quick test_run_and_verdict;
    Alcotest.test_case "figure 3a example" `Quick test_figure3a_example;
    Alcotest.test_case "lock fsm" `Quick test_lock_property;
    Alcotest.test_case "socket fsm" `Quick test_socket_property;
    Alcotest.test_case "event vector" `Quick test_event_vector;
    Alcotest.test_case "nondeterminism rejected" `Quick test_nondeterministic_rejected;
    Alcotest.test_case "spec validation" `Quick test_spec_requires_initial_and_classes;
    Alcotest.test_case "strict events" `Quick test_strict_events;
    QCheck_alcotest.to_alcotest prop_run_is_fold;
    QCheck_alcotest.to_alcotest prop_error_absorbing ]
