(* Tests for the CFL grammar machinery: the pointer-analysis label logic
   (Figure 4), the dataflow label logic, and the transfer-function
   registry. *)

module Pg = Cfl.Pointer_grammar
module Dg = Cfl.Dataflow_grammar
module Transfn = Cfl.Transfn

let test_pointer_label_codes () =
  let roundtrip l = Pg.of_int (Pg.to_int l) in
  List.iter
    (fun l -> Alcotest.(check bool) (Pg.to_string l) true (Pg.equal l (roundtrip l)))
    [ Pg.New; Pg.Assign; Pg.Flows_to; Pg.Flows_to_bar; Pg.Alias;
      Pg.Store 0; Pg.Store 12345; Pg.Load 7; Pg.Ft_store 3; Pg.Ft_st_al 99 ]

let test_pointer_compositions () =
  let check_some a b expected =
    match Pg.compose a b with
    | Some l ->
        Alcotest.(check bool)
          (Printf.sprintf "%s . %s" (Pg.to_string a) (Pg.to_string b))
          true (Pg.equal l expected)
    | None -> Alcotest.fail "expected composition"
  in
  check_some Pg.Flows_to Pg.Assign Pg.Flows_to;
  check_some Pg.Flows_to (Pg.Store 4) (Pg.Ft_store 4);
  check_some (Pg.Ft_store 4) Pg.Alias (Pg.Ft_st_al 4);
  check_some (Pg.Ft_st_al 4) (Pg.Load 4) Pg.Flows_to;
  check_some Pg.Flows_to_bar Pg.Flows_to Pg.Alias;
  Alcotest.(check bool) "field mismatch blocks load" true
    (Pg.compose (Pg.Ft_st_al 4) (Pg.Load 5) = None);
  Alcotest.(check bool) "assign then flowsTo is nothing" true
    (Pg.compose Pg.Assign Pg.Flows_to = None)

let test_pointer_unary_mirror () =
  Alcotest.(check bool) "new implies flowsTo" true
    (Pg.unary Pg.New = [ Pg.Flows_to ]);
  Alcotest.(check bool) "flowsTo mirrors to bar" true
    (Pg.mirror Pg.Flows_to = Some Pg.Flows_to_bar);
  Alcotest.(check bool) "assign does not mirror" true (Pg.mirror Pg.Assign = None);
  Alcotest.(check bool) "results are flowsTo and alias" true
    (Pg.is_result Pg.Flows_to && Pg.is_result Pg.Alias
     && not (Pg.is_result Pg.New))

(* Three states, 2 the FSM's error: codes 0 and 1 are states, [3 + k] is
   Error at event k. *)
let test_transfn_registry () =
  let r = Transfn.create ~n_states:3 in
  Alcotest.(check int) "identity is 0" 0 Transfn.identity_id;
  let f = Transfn.event r ~error:2 [| 1; 2; 2 |] in
  let g = Transfn.event r ~error:2 [| 2; 0; 2 |] in
  Alcotest.(check (array int)) "event 0: 1 errs" [| 1; 3; 3 |]
    (Transfn.vector r f);
  Alcotest.(check (array int)) "event 1: 0 errs" [| 4; 0; 4 |]
    (Transfn.vector r g);
  Alcotest.(check int) "identity . f = f" f (Transfn.compose r Transfn.identity_id f);
  Alcotest.(check int) "f . identity = f" f (Transfn.compose r f Transfn.identity_id);
  Alcotest.(check bool) "an error code" true (Transfn.is_error r 3);
  Alcotest.(check int) "names its event" 1 (Transfn.error_event r 4);
  Alcotest.(check int) "an error code has no successor" (-1)
    (Transfn.apply r f 3);
  (* interning is canonical *)
  Alcotest.(check int) "same vector same id" f (Transfn.intern r [| 1; 3; 3 |])

(* f then g: 0 -> 1 -> Error at event 1; 1 errs at event 0 and stays
   there, whatever g would do *)
let test_transfn_first_error () =
  let r = Transfn.create ~n_states:3 in
  let f = Transfn.event r ~error:2 [| 1; 2; 2 |] in
  let g = Transfn.event r ~error:2 [| 2; 2; 2 |] in
  Alcotest.(check (array int)) "f then g" [| 4; 3; 3 |]
    (Transfn.vector r (Transfn.compose r f g));
  Alcotest.(check (array int)) "g then f" [| 4; 4; 4 |]
    (Transfn.vector r (Transfn.compose r g f))

let test_dataflow_labels () =
  let r = Transfn.create ~n_states:2 in
  Dg.set_registry r;
  let f = Transfn.intern r [| 1; 1 |] in
  Alcotest.(check bool) "track . step composes" true
    (Dg.compose (Dg.Track 0) (Dg.Step f) = Some (Dg.Track 1));
  Alcotest.(check bool) "step . step does not" true
    (Dg.compose (Dg.Step f) (Dg.Step f) = None);
  Alcotest.(check bool) "track . track does not" true
    (Dg.compose (Dg.Track f) (Dg.Track f) = None);
  Alcotest.(check bool) "roundtrip codes" true
    (Dg.of_int (Dg.to_int (Dg.Track 5)) = Dg.Track 5
     && Dg.of_int (Dg.to_int (Dg.Step 5)) = Dg.Step 5);
  Alcotest.(check bool) "track is a result" true
    (Dg.is_result (Dg.Track 0) && not (Dg.is_result (Dg.Step 0)))

(* Error is final: no Step leads a Track fact out of an error code, on the
   boxed labels or on the join's integer codes. *)
let test_dataflow_error_final () =
  let r = Transfn.create ~n_states:2 in
  Dg.set_registry r;
  let steps =
    [ Transfn.identity_id;
      Transfn.event r ~error:1 [| 1; 1 |];
      Transfn.event r ~error:1 [| 0; 0 |] ]
  in
  List.iter
    (fun f ->
      List.iter
        (fun c ->
          Alcotest.(check bool) "no production" true
            (Dg.compose (Dg.Track c) (Dg.Step f) = None);
          Alcotest.(check int) "no code" (-1)
            (Dg.compose_code (Dg.to_int (Dg.Track c)) (Dg.to_int (Dg.Step f))))
        [ 2; 3 ])
    steps

(* property: build-time composition is associative and keeps the first
   error, over vectors drawn with error codes *)
let prop_transfn_associative =
  let open QCheck in
  let vec = Gen.array_size (Gen.return 4) (Gen.int_bound 3) in
  QCheck.Test.make ~name:"transfn composition associative" ~count:200
    (make (Gen.triple vec vec vec))
    (fun (a, b, c) ->
      let r = Transfn.create ~n_states:4 in
      let fa = Transfn.event r ~error:3 a
      and fb = Transfn.event r ~error:3 b
      and fc = Transfn.event r ~error:3 c in
      let fab = Transfn.compose r fa fb in
      Transfn.compose r fab fc = Transfn.compose r fa (Transfn.compose r fb fc)
      && List.for_all
           (fun s ->
             let x = Transfn.apply r fa s in
             Transfn.apply r fab s
             = if Transfn.is_error r x then x else Transfn.apply r fb x)
           [ 0; 1; 2; 3 ])

(* A Track code means the same in every process: a fresh registry, built
   from the same graph, decodes every fact of a closed run to the same
   state or error site. *)
let test_track_code_decodes_everywhere () =
  let program =
    Jir.Resolve.parse_exn {|
class H {
  void keep(ReentrantLock l) {
    l.lock();
    return;
  }
}
class Main {
  void main(int x) {
    ReentrantLock lk = new ReentrantLock();
    if (x > 0) {
      lk.unlock();
    }
    H.keep(lk);
    lk.unlock();
    lk.unlock();
    return;
  }
}
entry Main.main;
|}
  in
  let workdir = Testdir.fresh () in
  let fsm = Checkers.fsm "lock" in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers }
  in
  let p = Grapple.Pipeline.prepare ~config ~workdir program in
  let comp = ref 0. in
  let dg1, e1 = Grapple.Pipeline.instance_engine p fsm ~comp in
  Grapple.Pipeline.Dataflow_engine.run e1;
  let codes =
    Grapple.Pipeline.Dataflow_engine.fold_edges e1
      (fun acc e ->
        match e.Grapple.Pipeline.Dataflow_engine.label with
        | Dg.Track c -> c :: acc
        | Dg.Step _ -> acc)
      []
    |> List.sort_uniq compare
  in
  Grapple.Pipeline.Dataflow_engine.cleanup e1;
  let dg2, e2 = Grapple.Pipeline.instance_engine p fsm ~comp in
  Grapple.Pipeline.Dataflow_engine.cleanup e2;
  let decode dg c =
    match Graphgen.Dataflow_graph.fact dg c with
    | Graphgen.Dataflow_graph.In_state s -> Printf.sprintf "state %d" s
    | Graphgen.Dataflow_graph.Error_at at ->
        Printf.sprintf "error at %d" at.Jir.Ast.line
  in
  let one = List.map (decode dg1) codes in
  Alcotest.(check (list string)) "same facts in both registries" one
    (List.map (decode dg2) codes);
  Alcotest.(check bool) "two first errors, each at its event" true
    (List.mem "error at 12" one && List.mem "error at 16" one);
  Grapple.Pipeline.cleanup p []

let prop_pointer_label_roundtrip =
  QCheck.Test.make ~name:"pointer label codes roundtrip" ~count:200
    QCheck.(pair (int_bound 8) (int_bound 10_000))
    (fun (tag, field) ->
      let l =
        match tag with
        | 0 -> Pg.New
        | 1 -> Pg.Assign
        | 2 -> Pg.Flows_to
        | 3 -> Pg.Flows_to_bar
        | 4 -> Pg.Alias
        | 5 -> Pg.Store field
        | 6 -> Pg.Load field
        | 7 -> Pg.Ft_store field
        | _ -> Pg.Ft_st_al field
      in
      Pg.equal l (Pg.of_int (Pg.to_int l)))

let suite =
  [ Alcotest.test_case "pointer label codes" `Quick test_pointer_label_codes;
    Alcotest.test_case "pointer compositions" `Quick test_pointer_compositions;
    Alcotest.test_case "pointer unary/mirror" `Quick test_pointer_unary_mirror;
    Alcotest.test_case "transfn registry" `Quick test_transfn_registry;
    Alcotest.test_case "transfn keeps the first error" `Quick
      test_transfn_first_error;
    Alcotest.test_case "dataflow labels" `Quick test_dataflow_labels;
    Alcotest.test_case "dataflow error is final" `Quick
      test_dataflow_error_final;
    Alcotest.test_case "track code decodes the same in two registries" `Quick
      test_track_code_decodes_everywhere;
    QCheck_alcotest.to_alcotest prop_transfn_associative;
    QCheck_alcotest.to_alcotest prop_pointer_label_roundtrip ]
