(* The benchmark's own checks: ground truth survives the trip through the
   JIR text, the metrics the ledger emits are the ones BENCHMARK.json
   lists, and the span and quartile arithmetic. *)

let minizk : Workloads.t =
  { Workloads.name = "minizk";
    subject = Workload.Generator.mini_zookeeper;
    checkers = Checkers.all;
    shard_procs = 0;
    max_edges_per_partition = None }

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ledger-test-%d" (Unix.getpid ()))
  in
  Ledger.rm_rf dir;
  Engine.ensure_dir dir;
  dir

(* One traced in-process run of minizk's text at [seed]. *)
let traced_run ~seed =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> Ledger.rm_rf dir)
    (fun () ->
      let input = Workloads.input minizk ~seed in
      let path = Filename.concat dir "minizk.jir" in
      Ledger.write_file path input.Workloads.text;
      let rep =
        Child.run minizk ~input:path ~file:input.Workloads.file
          ~workdir:(Filename.concat dir "work") ~shard_procs:0
          ~trace:(Some (Filename.concat dir "trace.json"))
      in
      (input, rep))

let test_remap () =
  List.iter
    (fun seed ->
      let input, rep = traced_run ~seed in
      let s =
        Workloads.score ~expected:input.Workloads.expected rep.Child.results
      in
      Alcotest.(check (list int))
        (Printf.sprintf "minizk TP/FP/FN at seed %d" seed)
        [ 9; 0; 0 ]
        [ s.Workloads.tp; s.Workloads.fp; s.Workloads.fn ])
    [ 0; 7 ]

(* BENCHMARK.json lists what defs.ml defines: each metric as one line of
   name, unit, direction and, for the end-to-end ones, bound. *)
let test_metric_names () =
  let listed = Json.read_file "../BENCHMARK.json" in
  let of_json ~with_bound key =
    List.map
      (fun m ->
        let field k = Json.member k m in
        String.concat " "
          (List.map (fun k -> Json.to_str (field k)) [ "name"; "unit"; "better" ]
          @ if with_bound then [ string_of_float (Json.to_num (field "bound")) ]
            else []))
      (Json.to_list (Json.member key listed))
  in
  let of_defs ~with_bound =
    List.map (fun (m : Defs.metric) ->
        String.concat " "
          ([ m.Defs.name; m.Defs.unit_;
             (match m.Defs.better with Defs.Lower -> "lower" | Higher -> "higher") ]
          @ if with_bound then [ string_of_float m.Defs.bound ] else []))
  in
  Alcotest.(check (list string))
    "end-to-end metrics and bounds"
    (of_defs ~with_bound:true Defs.end_to_end)
    (of_json ~with_bound:true "end_to_end");
  Alcotest.(check (list string))
    "per-layer metrics"
    (of_defs ~with_bound:false Defs.per_layer)
    (of_json ~with_bound:false "per_layer");
  Alcotest.(check (list string))
    "workloads" (Workloads.names ())
    (List.map
       (fun w -> Json.to_str (Json.member "name" w))
       (Json.to_list (Json.member "workloads" listed)));
  Alcotest.(check int)
    "run_seconds" Defs.run_seconds
    (int_of_float (Json.to_num (Json.member "run_seconds" listed)));
  let _, rep = traced_run ~seed:0 in
  let emitted =
    List.map fst rep.Child.layers @ [ "trace.overhead_pct"; "bench.gen_s" ]
  in
  Alcotest.(check (list string))
    "per-layer metrics emitted"
    (List.sort compare
       (List.map (fun (m : Defs.metric) -> m.Defs.name) Defs.per_layer))
    (List.sort compare emitted)

let test_self_time () =
  let sp name ts dur tid = { Spans.name; ts; dur; lane = (1, tid) } in
  let t =
    Spans.totals
      [ sp "a" 0. 100. 0; sp "b" 10. 30. 0; sp "c" 20. 10. 0; sp "d" 50. 40. 0;
        sp "e" 100. 10. 0; sp "f" 15. 20. 1; sp "d" 200. 5. 0 ]
  in
  let self n = 1e6 *. (Hashtbl.find t n).Spans.self_s in
  let close = Alcotest.float 1e-6 in
  Alcotest.check close "a: minus its direct children b and d" 30. (self "a");
  Alcotest.check close "b: minus c" 20. (self "b");
  Alcotest.check close "c: a leaf" 10. (self "c");
  Alcotest.check close "d: both spans summed" 45. (self "d");
  Alcotest.check close "e: starts where a ends, so no child" 10. (self "e");
  Alcotest.check close "f: another lane covers nothing of a" 20. (self "f");
  Alcotest.(check int) "d counted twice" 2 (Hashtbl.find t "d").Spans.count

let test_quartiles () =
  let s = Ledger.summarize (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9)))
    "median and quartiles as Python's statistics.quantiles"
    [ 5.5; 2.75; 8.25 ] [ s.Ledger.median; s.Ledger.q1; s.Ledger.q3 ]

let () =
  Alcotest.run "ledger"
    [ ( "ledger",
        [ Alcotest.test_case "line remap scores minizk" `Quick test_remap;
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick
            test_metric_names;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "quartiles" `Quick test_quartiles ] ) ]
