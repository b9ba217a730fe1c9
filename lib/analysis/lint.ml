(* Lint diagnostics over the client dataflow analyses.

   Runs on the *resolved, pre-unroll* program so every diagnostic cites an
   original source position.  Each lint is named by a stable slug used by
   the CLI, the JSON output, and the workload scorer. *)

type diag = {
  lint : string;          (* "use-before-init" | "dead-branch" | ... *)
  meth : string;          (* qualified method id *)
  at : Jir.Ast.pos;
  message : string;
}

let diag lint meth at message = { lint; meth; at; message }

(* [on_pass name seconds] is called once per pass per method so the CLI can
   feed per-pass latency histograms in the metrics registry. *)
let check_method ?(on_pass = fun _ _ -> ()) (m : Jir.Ast.meth) : diag list =
  let g = Cfg.build m in
  let id = Jir.Ast.meth_id m in
  let out = ref [] in
  let emit lint node message =
    match Cfg.pos_of_node g node with
    | Some at -> out := diag lint id at message :: !out
    | None -> ()
  in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    on_pass name (Unix.gettimeofday () -. t0);
    r
  in
  List.iter
    (fun (v, node) ->
      emit "use-before-init" node
        (Printf.sprintf "variable '%s' may be used before it is assigned" v))
    (timed "use-before-init" (fun () -> Definite_assign.violations g));
  List.iter
    (fun (b : Unreachable.branch_verdict) ->
      if b.Unreachable.dead_nonempty then
        emit "dead-branch" b.Unreachable.node
          (Printf.sprintf "condition is always %b; the %s branch is dead"
             b.Unreachable.always
             (if b.Unreachable.always then "false" else "true")))
    (timed "dead-branch" (fun () -> Unreachable.decided_branches g));
  List.iter
    (fun node -> emit "unreachable" node "statement is unreachable")
    (timed "unreachable" (fun () -> Unreachable.unreachable_nodes g));
  (* one diagnostic per (lint, line): unrolled copies or multi-var nodes
     should not spam *)
  !out
  |> List.sort_uniq (fun a b ->
         compare
           (a.lint, a.at.Jir.Ast.file, a.at.Jir.Ast.line, a.message)
           (b.lint, b.at.Jir.Ast.file, b.at.Jir.Ast.line, b.message))

let check_program ?on_pass (p : Jir.Ast.program) : diag list =
  Jir.Ast.all_methods p
  |> List.concat_map (check_method ?on_pass)
  |> List.sort (fun a b ->
         compare
           (a.at.Jir.Ast.file, a.at.Jir.Ast.line, a.lint, a.meth)
           (b.at.Jir.Ast.file, b.at.Jir.Ast.line, b.lint, b.meth))

let pp ppf (d : diag) =
  Fmt.pf ppf "%s:%d: %s: %s [%s]" d.at.Jir.Ast.file d.at.Jir.Ast.line d.lint
    d.message d.meth

let to_string (d : diag) = Fmt.str "%a" pp d

let to_json (d : diag) =
  let esc = Obs.Trace.json_escape in
  Printf.sprintf
    {|{"tool":"lint","lint":"%s","method":"%s","file":"%s","line":%d,"message":"%s"}|}
    (esc d.lint) (esc d.meth) (esc d.at.Jir.Ast.file) d.at.Jir.Ast.line
    (esc d.message)
