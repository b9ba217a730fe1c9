(* The measurement loop.  For each workload it generates the input once
   (outside the clock), then runs measured repetitions, each a fresh child
   process (see Child), round-robin across workloads until each has spent
   its time budget.  Every repetition is checked: all planted bugs
   reported, no warning without a planted bug, no instance degraded, and
   the report digest equal to the workload's first — for a shard workload,
   equal to an in-process reference run of the same input.  With tracing
   on, every other repetition is traced and gives the per-layer numbers;
   the untraced ones give the end-to-end numbers and the tracing
   overhead. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

(* Median and quartiles; the quartiles by the "exclusive" method that
   Python's statistics.quantiles uses by default. *)
let summarize (xs : float list) : summary =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Ledger.summarize: no values";
  let median =
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  if n < 2 then { median; q1 = median; q3 = median; n }
  else
    let quartile i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    { median; q1 = quartile 1; q3 = quartile 3; n }

(* ---------------- files: everything stays under the working directory *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The directory one benchmark invocation works in, removed at exit. *)
let run_dir () =
  let root = ".ledger" in
  Engine.ensure_dir root;
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Engine.ensure_dir dir;
  at_exit (fun () -> rm_rf dir);
  dir

(* ---------------- one workload's measurement state ---------------- *)

type state = {
  w : Workloads.t;
  input : Workloads.input;
  input_path : string;
  gen_s : float;
  mutable plain : Child.t list;   (* untraced repetitions that completed *)
  mutable traced : Child.t list;
  mutable n_plain : int;          (* repetitions started, by kind *)
  mutable n_traced : int;
  mutable attempted : int;        (* child runs, the reference included *)
  mutable failed : int;
  mutable missed : int;           (* most planted bugs one run missed *)
  mutable false_positives : int;  (* most unmatched warnings in one run *)
  mutable digest : string option;
  mutable spent_s : float;
  mutable last_s : float;
}

let prepare_state ~dir ~seed (w : Workloads.t) : state =
  let t0 = Unix.gettimeofday () in
  let input = Workloads.input w ~seed in
  let gen_s = Unix.gettimeofday () -. t0 in
  let input_path = Filename.concat dir (w.Workloads.name ^ ".jir") in
  write_file input_path input.Workloads.text;
  { w; input; input_path; gen_s; plain = []; traced = []; n_plain = 0;
    n_traced = 0; attempted = 0; failed = 0; missed = 0; false_positives = 0;
    digest = None; spent_s = 0.; last_s = 0. }

(* A repetition takes seconds; one that hangs is killed, so a benchmark run
   always ends. *)
let rep_deadline_s = 60.

let wait_or_kill pid =
  let deadline = Unix.gettimeofday () +. rep_deadline_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Unix.WSIGNALED Sys.sigkill
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run one repetition in a child process; [None] when it did not finish. *)
let spawn ~dir (st : state) ~shard_procs ~trace : Child.t option =
  let tag = Printf.sprintf "%s-%d" st.w.Workloads.name st.attempted in
  let workdir = Filename.concat dir tag in
  let out = Filename.concat dir (tag ^ ".rep") in
  let trace_path = Filename.concat dir (tag ^ ".trace.json") in
  let exe = Sys.executable_name in
  let args =
    [ exe; "child"; "--workload"; st.w.Workloads.name; "--input";
      st.input_path; "--file"; st.input.Workloads.file; "--workdir"; workdir;
      "--shard-procs"; string_of_int shard_procs; "--out"; out ]
    @ if trace then [ "--trace"; trace_path ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* the child's own output goes to stderr: stdout carries the result *)
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process exe (Array.of_list args) devnull Unix.stderr
          Unix.stderr)
  in
  let rep =
    match wait_or_kill pid with
    | Unix.WEXITED 0 -> (
        try
          In_channel.with_open_bin out (fun ic ->
              Some (Marshal.from_channel ic : Child.t))
        with Sys_error _ | End_of_file | Failure _ -> None)
    | _ -> None
  in
  List.iter rm_rf [ workdir; out; trace_path ];
  rep

let fail (st : state) fmt =
  Printf.ksprintf
    (fun why ->
      st.failed <- st.failed + 1;
      Printf.eprintf "ledger: %s: run %d failed: %s\n%!" st.w.Workloads.name
        st.attempted why)
    fmt

(* Check one repetition's output and file its numbers. *)
let record (st : state) (rep : Child.t option) ~traced =
  (match rep with
  | None -> fail st "the child process did not complete"
  | Some r ->
      if traced then st.traced <- r :: st.traced
      else st.plain <- r :: st.plain;
      let s =
        Workloads.score ~expected:st.input.Workloads.expected r.Child.results
      in
      st.missed <- max st.missed s.Workloads.fn;
      st.false_positives <- max st.false_positives s.Workloads.fp;
      if st.digest = None then st.digest <- Some r.Child.digest;
      if s.Workloads.fn > 0 then
        fail st "%d planted bug(s) not reported" s.Workloads.fn
      else if s.Workloads.fp > 0 then
        fail st "%d warning(s) match no planted bug" s.Workloads.fp
      else if r.Child.inconclusive > 0 then
        fail st "%d instance(s) inconclusive" r.Child.inconclusive
      else if st.digest <> Some r.Child.digest then
        fail st "reports differ from the workload's reference run");
  st.attempted <- st.attempted + 1

(* A shard workload's reports must be byte-identical to the in-process
   scheduler's on the same input: one untimed in-process run sets the
   digest every measured run is held to. *)
let reference ~dir (st : state) =
  if st.w.Workloads.shard_procs > 0 then
    record st (spawn ~dir st ~shard_procs:0 ~trace:false) ~traced:false;
  (* the reference run is not a measurement *)
  st.plain <- []

let measure ~dir ~seconds ~trace (states : state list) =
  List.iter (reference ~dir) states;
  let wants st =
    st.n_plain = 0
    || (trace && st.n_traced = 0)
    || st.spent_s +. st.last_s <= seconds
  in
  let step st =
    let traced = trace && st.n_traced < st.n_plain in
    if traced then st.n_traced <- st.n_traced + 1
    else st.n_plain <- st.n_plain + 1;
    let t0 = Unix.gettimeofday () in
    let rep =
      spawn ~dir st ~shard_procs:st.w.Workloads.shard_procs ~trace:traced
    in
    st.last_s <- Unix.gettimeofday () -. t0;
    st.spent_s <- st.spent_s +. st.last_s;
    record st rep ~traced
  in
  (* round-robin, so drift on a shared machine hits every workload alike *)
  while List.exists wants states do
    List.iter (fun st -> if wants st then step st) states
  done

(* ---------------- metrics ---------------- *)

let end_to_end (st : state) : (Defs.metric * summary) list =
  let kloc = float_of_int st.input.Workloads.loc /. 1000. in
  let value (m : Defs.metric) (r : Child.t) =
    match m.Defs.name with
    | "wall_s" -> r.Child.wall_s
    | "setup_s" -> r.Child.setup_s
    | "check_s" -> r.Child.check_s
    | "kloc_per_s" -> kloc /. r.Child.wall_s
    | "peak_rss_mb" -> float_of_int r.Child.rss_kb /. 1024.
    | n -> invalid_arg ("Ledger.end_to_end: " ^ n)
  in
  List.map
    (fun m -> (m, summarize (List.map (value m) st.plain)))
    Defs.end_to_end

let per_layer (st : state) : (Defs.metric * summary) list =
  let wall rs =
    (summarize (List.map (fun (r : Child.t) -> r.Child.wall_s) rs)).median
  in
  let traced name =
    List.map (fun (r : Child.t) -> List.assoc name r.Child.layers) st.traced
  in
  List.map
    (fun (m : Defs.metric) ->
      let values =
        match m.Defs.name with
        | "trace.overhead_pct" ->
            [ 100. *. ((wall st.traced /. wall st.plain) -. 1.) ]
        | "bench.gen_s" -> [ st.gen_s ]
        | n -> traced n
      in
      (m, summarize values))
    Defs.per_layer

let correct (st : state) = st.failed = 0 && st.plain <> []

let print_table (st : state) rows =
  Printf.printf "%s  (%d LoC, %d run(s), %d failed, missed=%d fp=%d)\n"
    st.w.Workloads.name st.input.Workloads.loc st.attempted st.failed
    st.missed st.false_positives;
  List.iter
    (fun ((m : Defs.metric), s) ->
      Printf.printf "  %-34s %14.6g %-7s [%.6g, %.6g] n=%d\n" m.Defs.name
        s.median m.Defs.unit_ s.q1 s.q3 s.n)
    rows

let num_int n = Json.Num (float_of_int n)

(* ---------------- the two entry points ---------------- *)

(* One workload, as BENCHMARK.json's command runs it: the last line of
   stdout is the result object. *)
let run_one ~workload ~seed ~seconds ~trace =
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" workload
          (String.concat ", " (Workloads.names ()));
        exit 2
  in
  let dir = run_dir () in
  let st = prepare_state ~dir ~seed w in
  measure ~dir ~seconds ~trace [ st ];
  if st.plain = [] || (trace && st.traced = []) then begin
    prerr_endline "ledger: no repetition completed";
    exit 1
  end;
  let rows = if trace then per_layer st else end_to_end st in
  print_table st rows;
  let metric ((m : Defs.metric), s) =
    ( m.Defs.name,
      Json.Obj
        [ ("value", Json.Num s.median); ("unit", Json.Str m.Defs.unit_) ] )
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (correct st));
            ("attempted", num_int st.attempted);
            ("failed", num_int st.failed);
            ("metrics", Json.Obj (List.map metric rows)) ]))

let summary_json ((m : Defs.metric), s) =
  ( m.Defs.name,
    Json.Obj
      [ ("unit", Json.Str m.Defs.unit_); ("median", Json.Num s.median);
        ("q1", Json.Num s.q1); ("q3", Json.Num s.q3); ("n", num_int s.n) ] )

(* Every workload round-robin, every metric printed, all of it written to
   [out]; exits non-zero when any correctness check failed. *)
let run_all ~seed ~seconds ~trace ~out =
  let dir = run_dir () in
  let states = List.map (prepare_state ~dir ~seed) Workloads.all in
  measure ~dir ~seconds ~trace states;
  let entry st =
    let rows =
      if st.plain = [] then []
      else
        end_to_end st @ if trace && st.traced <> [] then per_layer st else []
    in
    print_table st rows;
    let failed_share =
      float_of_int st.failed /. float_of_int (max 1 st.attempted)
    in
    ( st.w.Workloads.name,
      Json.Obj
        [ ("correct", Json.Bool (correct st));
          ("attempted", num_int st.attempted);
          ("failed", num_int st.failed);
          ("failed_share", Json.Num failed_share);
          ("missed_bugs", num_int st.missed);
          ("false_positives", num_int st.false_positives);
          ("loc", num_int st.input.Workloads.loc);
          ("metrics", Json.Obj (List.map summary_json rows)) ] )
  in
  let doc =
    Json.Obj
      [ ("seed", num_int seed);
        ("seconds", Json.Num seconds);
        ("workloads", Json.Obj (List.map entry states)) ]
  in
  Option.iter (fun path -> write_file path (Json.to_string doc ^ "\n")) out;
  if not (List.for_all correct states) then exit 1

(* ---------------- comparing two ledger files ---------------- *)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_string = function
  | Better -> "better"
  | Worse -> "WORSE"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [a] is the baseline.  A spread (interquartile range over median) wider
   than the bound on either side leaves the comparison unresolved. *)
let judge ~(better : Defs.better) ~bound (a : summary) (b : summary) =
  let spread s =
    if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median
  in
  let change =
    if a.median = 0. then 0.
    else
      let rel = (b.median -. a.median) /. Float.abs a.median in
      match better with Defs.Lower -> rel | Defs.Higher -> -.rel
  in
  let v =
    if spread a > bound || spread b > bound then Unresolved
    else if change > bound then Worse
    else if change < -.bound then Better
    else Unchanged
  in
  (v, change)

let compare_files a_path b_path =
  let workloads path =
    match Json.member "workloads" (Json.read_file path) with
    | Json.Obj ws -> ws
    | _ -> raise (Json.Error "workloads is not an object")
  in
  let wa = workloads a_path and wb = workloads b_path in
  let summary j mname =
    let j = Json.member mname (Json.member "metrics" j) in
    let f k = Json.to_num (Json.member k j) in
    { median = f "median"; q1 = f "q1"; q3 = f "q3"; n = int_of_float (f "n") }
  in
  let cell s = Printf.sprintf "%.4g [%.4g,%.4g]" s.median s.q1 s.q3 in
  Printf.printf "%-12s %-12s %26s %26s %8s  %s\n" "workload" "metric"
    "A median [q1,q3]" "B median [q1,q3]" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (wname, ja) ->
      match List.assoc_opt wname wb with
      | None -> Printf.printf "%-12s (absent from %s)\n" wname b_path
      | Some jb ->
          List.iter
            (fun { Defs.name = mname; better; bound; _ } ->
              match (summary ja mname, summary jb mname) with
              | exception Json.Error _ ->
                  Printf.printf "%-12s %-12s (missing)\n" wname mname
              | a, b ->
                  let v, change = judge ~better ~bound a b in
                  if v = Worse then incr worse;
                  Printf.printf
                    "%-12s %-12s %26s %26s %+7.1f%%  %s (bound %.0f%%)\n"
                    wname mname (cell a) (cell b) (100. *. change)
                    (verdict_string v) (100. *. bound))
            Defs.end_to_end)
    wa;
  if !worse > 0 then exit 1
