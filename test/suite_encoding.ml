(* Tests for the interval-sequence path encodings: composition (the four
   cases of §4.2), call/return cancellation, endpoints, and the binary
   serialization. *)

module E = Pathenc.Encoding

let enc = Alcotest.testable E.pp E.equal

let iv ?(meth = 0) first last = E.Interval { meth; first; last }

let test_case1_fusion () =
  (* {[a,b]} . {[b,c]} = {[a,c]} *)
  let x = [ iv 0 2 ] and y = [ iv 2 6 ] in
  Alcotest.check enc "fused" [ iv 0 6 ] (E.compose_normalized x y)

let test_case2_call_concat () =
  (* {[a,b]} . {(i} = {[a,b] (i} *)
  let x = [ iv 0 2 ] and y = [ E.Call 7 ] in
  Alcotest.check enc "concat" [ iv 0 2; E.Call 7 ] (E.compose_normalized x y)

let test_case3_cancellation () =
  (* {[a,b] (i [0,0]} . {[0,d] )i [b,c]} = {[a,c]} *)
  let x = [ iv 0 2; E.Call 7; iv ~meth:1 0 0 ] in
  let y = [ iv ~meth:1 0 5; E.Ret 7; iv 2 6 ] in
  Alcotest.check enc "matched pair removed" [ iv 0 6 ]
    (E.compose_normalized x y)

let test_case4_extended_calls () =
  (* unmatched calls accumulate *)
  let x = [ iv 0 2; E.Call 7; iv ~meth:1 0 0 ] in
  let y = [ iv ~meth:1 0 3; E.Call 9; iv ~meth:2 0 0 ] in
  Alcotest.check enc "call chain grows"
    [ iv 0 2; E.Call 7; iv ~meth:1 0 3; E.Call 9; iv ~meth:2 0 0 ]
    (E.compose_normalized x y)

let test_nested_cancellation () =
  (* inner pair cancels first, then the outer pair *)
  let path =
    [ iv 0 2; E.Call 1; iv ~meth:1 0 3; E.Call 2; iv ~meth:2 0 4; E.Ret 2;
      iv ~meth:1 3 7; E.Ret 1; iv 2 6 ]
  in
  Alcotest.check enc "both pairs removed" [ iv 0 6 ] (E.normalize path)

let test_incomposable_endpoints () =
  let x = [ iv 0 2 ] and y = [ iv 5 6 ] in
  Alcotest.check_raises "mismatched junction" E.Incomposable (fun () ->
      ignore (E.compose x y))

let test_incomposable_cross_method () =
  let x = [ iv ~meth:0 0 2 ] and y = [ iv ~meth:1 2 6 ] in
  Alcotest.check_raises "different methods" E.Incomposable (fun () ->
      ignore (E.compose x y))

let test_rev_endpoints () =
  (* Rev wraps a forward path; entry/exit swap *)
  let fwd = [ iv 0 6 ] in
  let bar = E.rev fwd in
  Alcotest.(check (option (pair int int))) "entry of rev = exit of fwd"
    (Some (0, 6)) (E.entry_point bar);
  Alcotest.(check (option (pair int int))) "exit of rev = entry of fwd"
    (Some (0, 0)) (E.exit_point bar)

let test_rev_composition () =
  (* flowsToBar . flowsTo at the shared object vertex *)
  let bar = E.rev [ iv 0 4 ] in
  let fwd = [ iv 0 6 ] in
  let alias = E.compose_normalized bar fwd in
  Alcotest.check enc "alias keeps both fragments"
    [ E.Rev [ iv 0 4 ]; iv 0 6 ] alias

let test_aux_is_opaque () =
  let x = [ iv 0 2; E.Aux [ iv 0 4 ] ] in
  let y = [ iv 2 6 ] in
  (* Aux at the end blocks fusion but not composition *)
  let composed = E.compose_normalized x y in
  Alcotest.check enc "concatenated" [ iv 0 2; E.Aux [ iv 0 4 ]; iv 2 6 ]
    composed

let test_pending_calls () =
  Alcotest.(check (list int)) "pending" [ 3; 9 ]
    (E.pending_calls [ iv 0 1; E.Call 3; iv ~meth:1 0 0; E.Call 9 ]);
  Alcotest.(check (list int)) "balanced" []
    (E.pending_calls [ E.Call 3; E.Ret 3 ]);
  Alcotest.(check (list int)) "extra return ignored" []
    (E.pending_calls [ E.Ret 4 ])

let test_n_elements () =
  Alcotest.(check int) "nested counted" 4
    (E.n_elements [ iv 0 1; E.Rev [ iv 0 2; E.Call 1 ] ])

let test_serialization_roundtrip () =
  let e =
    [ iv 0 2; E.Call 300; iv ~meth:17 0 129; E.Ret 300;
      E.Rev [ iv 3 7; E.Aux [ iv ~meth:2 0 0 ] ] ]
  in
  Alcotest.check enc "roundtrip" e (E.of_bytes (E.to_bytes e))

let test_varint_boundaries () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      E.add_varint buf n;
      let pos = ref 0 in
      let m = E.read_varint (Bytes.of_string (Buffer.contents buf)) pos in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n m)
    [ 0; 1; 127; 128; 255; 16_383; 16_384; 1_000_000; max_int / 2 ]

(* ---------------- properties ---------------- *)

let arb_encoding =
  let open QCheck in
  let elem =
    Gen.frequency
      [ (6,
         Gen.map2
           (fun meth (a, b) ->
             E.Interval { meth; first = min a b; last = max a b })
           (Gen.int_bound 3)
           (Gen.pair (Gen.int_bound 30) (Gen.int_bound 30)));
        (2, Gen.map (fun i -> E.Call i) (Gen.int_bound 50));
        (2, Gen.map (fun i -> E.Ret i) (Gen.int_bound 50)) ]
  in
  make ~print:E.to_string (Gen.list_size (Gen.int_range 0 6) elem)

let prop_serialization_roundtrip =
  QCheck.Test.make ~name:"encoding serialization roundtrip" ~count:300
    arb_encoding (fun e -> E.equal e (E.of_bytes (E.to_bytes e)))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize idempotent" ~count:300 arb_encoding
    (fun e -> E.equal (E.normalize e) (E.normalize (E.normalize e)))

let prop_normalize_preserves_pending =
  QCheck.Test.make ~name:"normalize preserves pending calls" ~count:300
    arb_encoding (fun e ->
      E.pending_calls e = E.pending_calls (E.normalize e))

(* ---------------- builder-shaped chains ----------------

   The dataflow graph builder folds a point it passes through into its
   out-edges with [compose_normalized] (Dataflow_graph, step 8), and the
   engine then joins a Track edge with the folded edge.  That is sound
   only if folding a chain first gives what the engine gets composing it
   one edge at a time, and the path-length cap sees the same lengths.

   A walk over the builder's edge shapes: a hop inside a node ([n..n],
   after any [Aux] fragments), a branch to a child ([n..c]), a dive into a
   callee ([n..n] (id, then the callee's root at node 0) and a return to
   the caller's node ()id [n..n]).  The state is where the path is, and the
   calls it is inside, innermost first; a walk may start inside calls its
   encoding does not show, as the walk of an object allocated in a callee
   does. *)
type at = { meth : int; node : int; calls : (int * int * int) list }

let gen_hop (st : at) =
  let open QCheck.Gen in
  map
    (fun auxes ->
      ( List.map (fun (m, a) -> E.Aux [ iv ~meth:m 0 a ]) auxes
        @ [ iv ~meth:st.meth st.node st.node ],
        st ))
    (list_size (int_bound 2) (pair (int_bound 3) (int_bound 9)))

let gen_branch (st : at) =
  QCheck.Gen.map
    (fun d ->
      let c = st.node + 1 + d in
      ([ iv ~meth:st.meth st.node c ], { st with node = c }))
    (QCheck.Gen.int_bound 3)

let gen_dive (st : at) =
  QCheck.Gen.map2
    (fun id callee ->
      ( [ iv ~meth:st.meth st.node st.node; E.Call id ],
        { meth = callee; node = 0; calls = (id, st.meth, st.node) :: st.calls }
      ))
    (QCheck.Gen.int_bound 20) (QCheck.Gen.int_range 4 7)

let ret (st : at) =
  match st.calls with
  | [] -> None
  | (id, meth, node) :: calls ->
      Some ([ E.Ret id; iv ~meth node node ], { meth; node; calls })

(* [n] edges from [st]; returns among them only when [rets]. *)
let rec gen_edges ~rets n (st : at) =
  let open QCheck.Gen in
  if n = 0 then return ([], st)
  else
    let steps =
      [ (3, gen_hop st); (3, gen_branch st); (2, gen_dive st) ]
      @ (match ret st with
        | Some r when rets -> [ (2, return r) ]
        | _ -> [])
    in
    frequency steps >>= fun (e, st) ->
    map (fun (es, st) -> (e :: es, st)) (gen_edges ~rets (n - 1) st)

(* A Track prefix — the anchor [0..n] then edges with returns — and a
   chain after it: at most one return, at its head (a return into a
   continuation the builder folds) or at its tail. *)
let arb_chain =
  let open QCheck.Gen in
  let gen =
    int_bound 3 >>= fun n0 ->
    list_size (int_bound 2)
      (triple (int_bound 20) (int_range 4 7) (int_bound 5))
    >>= fun outer ->
    let st = { meth = 0; node = n0; calls = outer } in
    int_bound 5 >>= fun n_prefix ->
    gen_edges ~rets:true n_prefix st >>= fun (prefix, st) ->
    int_range 1 5 >>= fun n_chain ->
    oneofl [ `Head; `Tail; `None ] >>= fun where ->
    let head, st =
      match (where, ret st) with
      | `Head, Some (e, st) -> ([ e ], st)
      | _ -> ([], st)
    in
    gen_edges ~rets:false n_chain st >>= fun (body, st) ->
    let tail =
      match (where, ret st) with `Tail, Some (e, _) -> [ e ] | _ -> []
    in
    return ([ iv 0 n0 ] :: prefix, head @ body @ tail)
  in
  let print (prefix, chain) =
    Printf.sprintf "prefix %s\nchain %s"
      (String.concat " . " (List.map E.to_string prefix))
      (String.concat " . " (List.map E.to_string chain))
  in
  QCheck.make ~print gen

let composed es =
  match List.fold_left E.compose_normalized [] es with
  | t -> Some t
  | exception E.Incomposable -> None

let prop_fold_chain =
  QCheck.Test.make ~name:"a folded builder chain composes as its edges do"
    ~count:500 arb_chain (fun (prefix, chain) ->
      match composed prefix with
      | None -> QCheck.assume_fail ()
      | Some t ->
          composed (t :: chain)
          = Option.bind (composed chain) (fun folded ->
                composed [ t; folded ]))

let prop_ret_free_chain_grows =
  QCheck.Test.make ~name:"a return-free chain never shrinks" ~count:500
    arb_chain (fun (prefix, chain) ->
      match composed prefix with
      | None -> QCheck.assume_fail ()
      | Some t ->
          List.exists
            (List.exists (function E.Ret _ -> true | _ -> false))
            chain
          || fst
               (List.fold_left
                  (fun (ok, t) e ->
                    match E.compose_normalized t e with
                    | t' -> (ok && E.n_elements t' >= E.n_elements t, t')
                    | exception E.Incomposable -> (ok, t))
                  (true, t) chain))

let suite =
  [ Alcotest.test_case "case 1: interval fusion" `Quick test_case1_fusion;
    Alcotest.test_case "case 2: call concat" `Quick test_case2_call_concat;
    Alcotest.test_case "case 3: cancellation" `Quick test_case3_cancellation;
    Alcotest.test_case "case 4: extended calls" `Quick test_case4_extended_calls;
    Alcotest.test_case "nested cancellation" `Quick test_nested_cancellation;
    Alcotest.test_case "incomposable endpoints" `Quick test_incomposable_endpoints;
    Alcotest.test_case "incomposable methods" `Quick test_incomposable_cross_method;
    Alcotest.test_case "rev endpoints" `Quick test_rev_endpoints;
    Alcotest.test_case "rev composition" `Quick test_rev_composition;
    Alcotest.test_case "aux opaque" `Quick test_aux_is_opaque;
    Alcotest.test_case "pending calls" `Quick test_pending_calls;
    Alcotest.test_case "element count" `Quick test_n_elements;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "varint boundaries" `Quick test_varint_boundaries;
    QCheck_alcotest.to_alcotest prop_serialization_roundtrip;
    QCheck_alcotest.to_alcotest prop_normalize_idempotent;
    QCheck_alcotest.to_alcotest prop_normalize_preserves_pending;
    QCheck_alcotest.to_alcotest prop_fold_chain;
    QCheck_alcotest.to_alcotest prop_ret_free_chain_grows ]
