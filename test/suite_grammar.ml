(* Tests for the CFL grammar machinery: the pointer-analysis label logic
   (Figure 4), the dataflow label logic, and the transition-function
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

let test_transfn_registry () =
  let r = Transfn.create ~n_states:3 in
  Alcotest.(check int) "identity is 0" 0 Transfn.identity_id;
  let f = Transfn.intern r [| 1; 2; 2 |] in
  let g = Transfn.intern r [| 0; 0; 1 |] in
  Alcotest.(check int) "identity . f = f" f (Transfn.compose r Transfn.identity_id f);
  Alcotest.(check int) "f . identity = f" f (Transfn.compose r f Transfn.identity_id);
  let fg = Transfn.compose r f g in
  (* f then g: state 0 -> 1 -> 0; 1 -> 2 -> 1; 2 -> 2 -> 1 *)
  Alcotest.(check int) "apply composed 0" 0 (Transfn.apply r fg 0);
  Alcotest.(check int) "apply composed 1" 1 (Transfn.apply r fg 1);
  Alcotest.(check int) "apply composed 2" 1 (Transfn.apply r fg 2);
  (* interning is canonical *)
  Alcotest.(check int) "same vector same id" f (Transfn.intern r [| 1; 2; 2 |])

let test_dataflow_labels () =
  let r = Transfn.create ~n_states:2 in
  Dg.set_registry r;
  let f = Transfn.intern r [| 1; 1 |] in
  Alcotest.(check bool) "track . step composes" true
    (Dg.compose (Dg.Track Transfn.identity_id) (Dg.Step f) = Some (Dg.Track f));
  Alcotest.(check bool) "step . step does not" true
    (Dg.compose (Dg.Step f) (Dg.Step f) = None);
  Alcotest.(check bool) "track . track does not" true
    (Dg.compose (Dg.Track f) (Dg.Track f) = None);
  Alcotest.(check bool) "roundtrip codes" true
    (Dg.of_int (Dg.to_int (Dg.Track 5)) = Dg.Track 5
     && Dg.of_int (Dg.to_int (Dg.Step 5)) = Dg.Step 5);
  Alcotest.(check bool) "track is a result" true
    (Dg.is_result (Dg.Track 0) && not (Dg.is_result (Dg.Step 0)))

(* property: transition-function composition is associative *)
let prop_transfn_associative =
  let open QCheck in
  let vec = Gen.array_size (Gen.return 4) (Gen.int_bound 3) in
  QCheck.Test.make ~name:"transfn composition associative" ~count:200
    (make (Gen.triple vec vec vec))
    (fun (a, b, c) ->
      let r = Transfn.create ~n_states:4 in
      let fa = Transfn.intern r a
      and fb = Transfn.intern r b
      and fc = Transfn.intern r c in
      Transfn.compose r (Transfn.compose r fa fb) fc
      = Transfn.compose r fa (Transfn.compose r fb fc))

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
    Alcotest.test_case "dataflow labels" `Quick test_dataflow_labels;
    QCheck_alcotest.to_alcotest prop_transfn_associative;
    QCheck_alcotest.to_alcotest prop_pointer_label_roundtrip ]
