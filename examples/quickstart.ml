(* Quickstart: the paper's running example (Figures 3a/3b).

   A FileWriter must obey  Open --write*--> Open --close--> Closed;
   the program below has four control-flow paths, one of which (x >= 0 and
   then y <= 0) allocates the writer but skips the close.  A third path
   (x < 0 and then y > 0) would be a false warning — it is infeasible
   because y = x + 1 <= 0 there — and Grapple's path sensitivity prunes it.

   Run with:  dune exec examples/quickstart.exe                           *)

let source = {|
class Main {
  void main(int a) {
    FileWriter out = null;
    FileWriter o = null;
    int x = a;
    int y = x;
    if (x >= 0) {
      out = new FileWriter();
      o = out;
      y = y - 1;
    } else {
      y = y + 1;
    }
    if (y > 0) {
      out.write(x);
      o.close();
    }
    return;
  }
}
entry Main.main;
|}

let () =
  (* 1. parse and resolve the program *)
  let program = Jir.Resolve.parse_exn ~file:"figure3b.jir" source in
  Printf.printf "parsed %d statement(s)\n" (Jir.Ast.program_size program);

  (* 2. run the shared frontend + phase-1 alias analysis for the Figure 3a
     property *)
  let workdir = Filename.temp_dir "grapple-quickstart" "" in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.prefilter_properties = [ Checkers.fsm "io" ] }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  Printf.printf "alias analysis done: %d flowsTo fact(s) from allocation sites\n"
    prepared.Grapple.Pipeline.n_alias_pairs;

  (* 3. check it *)
  let results, _schedule = Grapple.Pipeline.check_properties prepared in
  Grapple.Pipeline.cleanup prepared results;

  (* 4. report *)
  let reports =
    List.concat_map (fun r -> r.Grapple.Pipeline.reports) results
  in
  Printf.printf "\n%d warning(s):\n" (List.length reports);
  List.iter
    (fun r -> Printf.printf "  %s\n" (Grapple.Report.to_string r))
    reports;
  match reports with
  | [ { Grapple.Report.kind = Grapple.Report.Leak state; _ } ] ->
      Printf.printf
        "\nThe writer allocated under x >= 0 can reach the program exit in \
         state %s\nwhen y = x - 1 <= 0 (i.e. x = 0): the second conditional \
         skips the close.\nThe infeasible path (x < 0 then y > 0) was pruned \
         and produced no warning.\n"
        state
  | _ -> Printf.printf "\nunexpected result; see warnings above\n"
