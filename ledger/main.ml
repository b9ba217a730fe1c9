(* The repository benchmark.  Run it from the repository root.

     main.exe --workload W [--seed N] [--seconds T] [--trace 0|1]
         one workload; the last line of stdout is the result object
     main.exe ledger [--seed N] [--seconds T] [--trace] [--out FILE]
         every workload round-robin, every metric printed and written to
         FILE; exits 1 when a correctness check fails
     main.exe compare A.json B.json
         two ledger files against the metrics' bounds (defs.ml, the same
         as BENCHMARK.json's); exits 1 when a metric got worse by more
         than its bound

   The seed varies the surface of each workload's input (declaration
   order); seed 0 is the committed subject as generated. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed N] [--seconds T] [--trace 0|1]\n\
    \       main.exe ledger [--seed N] [--seconds T] [--trace] [--out FILE]\n\
    \       main.exe compare A.json B.json";
  exit 2

let parse argv specs =
  let anon = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0) argv specs (fun a -> anon := a :: !anon) ""
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     usage ());
  List.rev !anon

let () =
  let argv = Sys.argv in
  (* the arguments after a subcommand *)
  let rest () =
    Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2))
  in
  let seed = ref 0 and seconds = ref (float_of_int Defs.run_seconds) in
  match if Array.length argv > 1 then argv.(1) else "" with
  | "child" ->
      let workload = ref "" and input = ref "" and file = ref "" in
      let workdir = ref "" and out = ref "" and shard_procs = ref 0 in
      let trace = ref None in
      ignore
        (parse (rest ())
           [ ("--workload", Arg.Set_string workload, "");
             ("--input", Arg.Set_string input, "");
             ("--file", Arg.Set_string file, "");
             ("--workdir", Arg.Set_string workdir, "");
             ("--shard-procs", Arg.Set_int shard_procs, "");
             ("--out", Arg.Set_string out, "");
             ("--trace", Arg.String (fun p -> trace := Some p), "") ]);
      let w = Option.get (Workloads.find !workload) in
      let rep =
        Child.run w ~input:!input ~file:!file ~workdir:!workdir
          ~shard_procs:!shard_procs ~trace:!trace
      in
      Out_channel.with_open_bin !out (fun oc ->
          Marshal.to_channel oc (rep : Child.t) [])
  | "ledger" ->
      let trace = ref false and out = ref None in
      ignore
        (parse (rest ())
           [ ("--seed", Arg.Set_int seed, "");
             ("--seconds", Arg.Set_float seconds, "");
             ("--trace", Arg.Set trace, "");
             ("--out", Arg.String (fun f -> out := Some f), "") ]);
      Ledger.run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
  | "compare" -> (
      match parse (rest ()) [] with
      | [ a; b ] -> Ledger.compare_files a b
      | _ -> usage ())
  | _ ->
      let workload = ref "" and trace = ref 0 in
      let anon =
        parse argv
          [ ("--workload", Arg.Set_string workload, "");
            ("--seed", Arg.Set_int seed, "");
            ("--seconds", Arg.Set_float seconds, "");
            ("--trace", Arg.Set_int trace, "") ]
      in
      if anon <> [] || !workload = "" then usage ();
      Ledger.run_one ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~trace:(!trace <> 0)
