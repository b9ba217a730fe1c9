(* Tests for the observability layer: registry semantics (kinds, histogram
   bucketing, canonical merge, deterministic JSON) and the tracer (span on
   raise, well-formed trace_event output, zero cost when off). *)

module R = Obs.Registry
module T = Obs.Trace

(* ---------------- registry ---------------- *)

let test_counter_gauge_basics () =
  let r = R.create () in
  let c = R.counter r "a.count" in
  R.incr c;
  R.incr ~by:4 c;
  Alcotest.(check int) "counter adds" 5 (R.value c);
  Alcotest.(check int) "find-or-create shares the cell" 5
    (R.value (R.counter r "a.count"));
  let g = R.gauge r "a.seconds" in
  R.gauge_add g 1.5;
  R.gauge_add g 0.25;
  Alcotest.(check (float 1e-9)) "gauge accumulates" 1.75 (R.gauge_value g)

let test_kind_clash_rejected () =
  let r = R.create () in
  ignore (R.counter r "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs.Registry: x already registered with another kind")
    (fun () -> ignore (R.gauge r "x"))

let test_histogram_buckets () =
  let r = R.create () in
  let h = R.histogram ~bounds:[| 1.; 10.; 100. |] r "h" in
  List.iter (R.observe h) [ 0.5; 1.; 7.; 50.; 1000. ];
  Alcotest.(check int) "count" 5 (R.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 1058.5 (R.hist_sum h);
  (* <=1, <=10, <=100, overflow *)
  Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |]
    (R.hist_counts h)

let test_merge_is_canonical () =
  (* build two source registries whose metrics were created in different
     orders, merge both ways interleaved, and demand identical JSON *)
  let mk order =
    let r = R.create () in
    List.iter
      (fun name -> R.incr ~by:(String.length name) (R.counter r name))
      order;
    R.gauge_add (R.gauge r "g.t") 0.5;
    r
  in
  let a = mk [ "zeta"; "alpha"; "mid" ] in
  let b = mk [ "mid"; "zeta"; "alpha"; "extra" ] in
  let m1 = R.create () in
  R.merge ~into:m1 a;
  R.merge ~into:m1 b;
  let m2 = R.create () in
  R.merge ~into:m2 b;
  R.merge ~into:m2 a;
  Alcotest.(check string) "merge order invisible" (R.to_json m1) (R.to_json m2);
  Alcotest.(check int) "counters added" 8
    (R.value (R.counter m1 "zeta"));
  Alcotest.(check int) "missing metrics created" 5
    (R.value (R.counter m1 "extra"));
  Alcotest.(check (float 1e-9)) "gauges added" 1.
    (R.gauge_value (R.gauge m1 "g.t"))

let test_merge_histograms () =
  let mk () =
    let r = R.create () in
    let h = R.histogram ~bounds:[| 2.; 4. |] r "h" in
    (r, h)
  in
  let ra, ha = mk () and rb, hb = mk () in
  R.observe ha 1.;
  R.observe hb 3.;
  R.observe hb 9.;
  let m = R.create () in
  R.merge ~into:m ra;
  R.merge ~into:m rb;
  let h = R.histogram ~bounds:[| 2.; 4. |] m "h" in
  Alcotest.(check int) "merged count" 3 (R.hist_count h);
  Alcotest.(check (array int)) "merged buckets" [| 1; 1; 1 |] (R.hist_counts h)

let test_json_shape () =
  let r = R.create () in
  R.incr ~by:2 (R.counter r "c");
  R.gauge_set (R.gauge r "g") 1.5;
  ignore (R.histogram ~bounds:[| 1. |] r "h");
  Alcotest.(check string) "deterministic dump"
    {|{"counters":{"c":2},"gauges":{"g":1.500000},"histograms":{"h":{"bounds":[1.0],"counts":[0,0],"count":0,"sum":0.0}}}|}
    (R.to_json r)

(* ---------------- tracer ---------------- *)

let with_trace f =
  let path = Filename.concat (Testdir.fresh ()) "t.trace" in
  T.start ~path;
  Fun.protect ~finally:(fun () -> T.stop ()) (fun () -> f ());
  T.stop ();
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_span_recorded_on_raise () =
  let contents =
    with_trace (fun () ->
        try T.with_span "raising.span" (fun () -> raise Exit)
        with Exit -> ())
  in
  let has sub =
    let n = String.length sub and m = String.length contents in
    let rec go i = i + n <= m && (String.sub contents i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "span name present" true (has "raising.span");
  Alcotest.(check bool) "complete event" true (has "\"ph\":\"X\"");
  Alcotest.(check bool) "duration present" true (has "\"dur\":")

let test_trace_file_shape () =
  let contents =
    with_trace (fun () ->
        T.with_span ~args:[ ("k", T.Int 3) ] "outer" (fun () ->
            T.instant ~args:[ ("msg", T.Str "quoted \"x\"") ] "mark"))
  in
  let has sub =
    let n = String.length sub and m = String.length contents in
    let rec go i = i + n <= m && (String.sub contents i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "traceEvents wrapper" true
    (String.length contents > 16 && String.sub contents 0 16 = {|{"traceEvents":[|});
  Alcotest.(check bool) "instant event" true (has "\"ph\":\"i\"");
  Alcotest.(check bool) "args rendered" true (has "\"k\":3");
  Alcotest.(check bool) "strings escaped" true (has {|quoted \"x\"|});
  Alcotest.(check bool) "pid present" true (has "\"pid\":");
  Alcotest.(check bool) "tid present" true (has "\"tid\":")

let test_off_by_default () =
  (* with no trace started, instrumentation records nothing and the traced
     computation's value is untouched *)
  Alcotest.(check bool) "off" false (T.is_on ());
  let v = T.with_span "ignored" (fun () -> 42) in
  T.instant "ignored too";
  Alcotest.(check int) "value passes through" 42 v;
  Alcotest.(check int) "no events buffered" 0 (T.n_events ())

(* ---------------- the JSON string escaper ---------------- *)

let test_json_escape () =
  Alcotest.(check string) "named escapes, \\u00XX for the rest"
    {|q\" b\\ n\n r\r t\t c\u0001 é|}
    (T.json_escape "q\" b\\ n\n r\r t\t c\x01 \xc3\xa9")

let suite =
  [ Alcotest.test_case "counter and gauge basics" `Quick
      test_counter_gauge_basics;
    Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "merge is canonical" `Quick test_merge_is_canonical;
    Alcotest.test_case "merge histograms" `Quick test_merge_histograms;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "span recorded on raise" `Quick
      test_span_recorded_on_raise;
    Alcotest.test_case "trace file shape" `Quick test_trace_file_shape;
    Alcotest.test_case "tracing off by default" `Quick test_off_by_default;
    Alcotest.test_case "json escape" `Quick test_json_escape ]
