(* Generic summary-based interprocedural solver (paper §2.1: analyses are
   driven bottom-up over the SCC condensation of the call graph).

   A client supplies a per-method summary lattice: a bottom element, an
   equality test, and an [analyze] function that computes one method's
   summary given (current) summaries for its callees.  The solver visits
   SCC components in reverse-topological order (callees before callers) and
   iterates each component to a fixpoint, so summaries of (mutually)
   recursive methods converge from bottom.  Because every client lattice is
   finite-height and [analyze] monotone, the result is the least fixpoint —
   the most precise sound summary assignment.  Each member's CFG is built
   once per component, and when the component converges the client sees
   every member's final-round result ([cl_converged]), so whole-program
   facts need no second solve.

   Summaries are context-insensitive: all call sites of a method share one
   summary, exactly as the paper collapses SCCs and treats them
   context-insensitively. *)

type ('summary, 'detail) client = {
  cl_bottom : Jir.Ast.meth -> 'summary;
  cl_equal : 'summary -> 'summary -> bool;
  cl_analyze :
    lookup:(string -> 'summary option) -> Cfg.t -> 'summary * 'detail;
      (* one method's summary, plus whatever else the round computed *)
  cl_converged :
    lookup:(string -> 'summary option) -> Cfg.t -> 'detail -> unit;
      (* called once per method when its component has converged, with the
         final round's detail; every summary [lookup] reaches is final *)
}

type 'summary result = {
  table : (string, 'summary) Hashtbl.t;  (* method id -> summary *)
  n_scc_iterations : int;                (* total component fixpoint rounds *)
}

(* [callgraph] must be [program]'s, and [cfg id] the CFG of [program]'s
   method [id]; each is built when absent. *)
let solve ?callgraph ?cfg (client : ('s, 'd) client)
    (program : Jir.Ast.program) : 's result =
  let cg =
    match callgraph with Some cg -> cg | None -> Jir.Callgraph.build program
  in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  let methods = Hashtbl.create 64 in
  List.iter
    (fun m -> Hashtbl.replace methods (Jir.Ast.meth_id m) m)
    (Jir.Ast.all_methods program);
  let cfg =
    match cfg with
    | Some cfg -> cfg
    | None -> fun id -> Cfg.build (Hashtbl.find methods id)
  in
  let table = Hashtbl.create 64 in
  let lookup id = Hashtbl.find_opt table id in
  let rounds = ref 0 in
  List.iter
    (fun component ->
      (* each member's CFG, built once for all of the component's rounds *)
      let members = List.map (fun id -> (id, cfg id)) component in
      List.iter
        (fun (id, g) -> Hashtbl.replace table id (client.cl_bottom g.Cfg.meth))
        members;
      (* one pass suffices for a non-recursive singleton component: every
         callee lies outside it and is already at fixpoint *)
      let recursive =
        match component with
        | [ id ] -> List.mem id (Jir.Callgraph.callees cg id)
        | _ -> true
      in
      (* a round that changes nothing saw only final summaries, so its
         details are the converged ones *)
      let rec iterate () =
        incr rounds;
        let changed, details =
          List.fold_left
            (fun (changed, details) (id, g) ->
              let s', d = client.cl_analyze ~lookup g in
              let changed =
                if client.cl_equal (Hashtbl.find table id) s' then changed
                else begin
                  Hashtbl.replace table id s';
                  true
                end
              in
              (changed, (g, d) :: details))
            (false, []) members
        in
        if changed && recursive then iterate () else List.rev details
      in
      List.iter (fun (g, d) -> client.cl_converged ~lookup g d) (iterate ()))
    sccs;
  { table; n_scc_iterations = !rounds }
