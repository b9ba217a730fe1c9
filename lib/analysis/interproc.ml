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

(* ------------------------------------------------------------------ *)
(* Interprocedural nullness: null values flowing through returns and   *)
(* parameters into a dereference.  The per-method summary records the  *)
(* join of the values returned at every normal return site (so [Null]  *)
(* means "returns null on every path", matching the intraprocedural    *)
(* lint's definite-null-only discipline) and, per parameter, whether a *)
(* null argument would definitely be dereferenced inside the callee    *)
(* (transitively, through further calls).                              *)
(* ------------------------------------------------------------------ *)

type null_summary = {
  ns_ret : Nullness.value option;  (* None = bottom: no return site seen *)
  ns_deref_param : bool array;     (* param i dereferenced when passed null *)
}

let join_ret a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Nullness.join_value a b)

let call_ret_value ~lookup (c : Jir.Ast.call) =
  let id =
    Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname
  in
  match lookup id with
  | Some { ns_ret = Some v; _ } -> v
  | Some { ns_ret = None; _ } ->
      (* bottom: no normal return analyzed yet (recursion) — optimistic,
         resolved by the component fixpoint *)
      Nullness.Nonnull
  | None -> Nullness.Top  (* library call *)

(* The summary-aware nullness solve of one method: [lookup] resolves
   callee summaries, [entry] seeds parameter values. *)
let solve_null_method ~lookup ~entry (g : Cfg.t) =
  let module Solver = Dataflow.Forward (struct
    type t = Nullness.Domain.t

    let bottom = Nullness.Domain.Unreached

    let init (_ : Cfg.t) =
      Nullness.Domain.Env
        (List.fold_left
           (fun env (v, value) -> Nullness.VM.add v value env)
           Nullness.VM.empty entry)

    let equal = Nullness.Domain.equal
    let join = Nullness.Domain.join
    let exc _ _ state = state

    let value_of_rhs env (r : Jir.Ast.rhs) =
      match r with
      | Jir.Ast.Rcall c -> call_ret_value ~lookup c
      | _ -> Nullness.Domain.value_of_rhs env r

    let transfer (g : Cfg.t) node state =
      match state with
      | Nullness.Domain.Unreached -> Nullness.Domain.Unreached
      | Nullness.Domain.Env env -> (
          match g.Cfg.kinds.(node) with
          | Cfg.Stmt { kind = Jir.Ast.Decl (_, v, Some r); _ }
          | Cfg.Stmt { kind = Jir.Ast.Assign (v, r); _ } -> (
              match value_of_rhs env r with
              | Nullness.Top -> Nullness.Domain.Env (Nullness.VM.remove v env)
              | value -> Nullness.Domain.Env (Nullness.VM.add v value env))
          | Cfg.Stmt { kind = Jir.Ast.Decl (_, v, None); _ } ->
              Nullness.Domain.Env (Nullness.VM.remove v env)
          | Cfg.Bind (_, _, v) ->
              Nullness.Domain.Env (Nullness.VM.add v Nullness.Nonnull env)
          | _ -> Nullness.Domain.Env env)
  end) in
  Solver.solve g

(* Dereferences of definitely-null variables, including null arguments
   passed to a parameter the callee definitely dereferences. *)
let null_hits ~lookup (g : Cfg.t)
    (res : Nullness.Domain.t Dataflow.result) :
    (Jir.Ast.var * int) list =
  let out = ref [] in
  for node = 0 to Cfg.n_nodes g - 1 do
    match res.Dataflow.input.(node) with
    | Nullness.Domain.Unreached -> ()
    | Nullness.Domain.Env env ->
        let null v = Nullness.VM.find_opt v env = Some Nullness.Null in
        List.iter
          (fun v -> if null v then out := (v, node) :: !out)
          (Nullness.dereferenced g.Cfg.kinds.(node));
        (match Cfg.node_call g.Cfg.kinds.(node) with
        | Some c -> (
            let id =
              Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class
                ~meth:c.Jir.Ast.mname
            in
            match lookup id with
            | Some summ ->
                List.iteri
                  (fun i arg ->
                    match arg with
                    | Jir.Ast.Var y
                      when null y
                           && i < Array.length summ.ns_deref_param
                           && summ.ns_deref_param.(i) ->
                        out := (y, node) :: !out
                    | _ -> ())
                  c.Jir.Ast.args
            | None -> ())
        | None -> ())
  done;
  List.sort_uniq compare !out

(* One method's null summary, and its normal run for the lint. *)
let analyze_null_method ~lookup (g : Cfg.t) =
  let m = g.Cfg.meth in
  (* normal run: parameters unknown *)
  let res = solve_null_method ~lookup ~entry:[] g in
  let ns_ret =
    let acc = ref None in
    for node = 0 to Cfg.n_nodes g - 1 do
      match (g.Cfg.kinds.(node), res.Dataflow.input.(node)) with
      | Cfg.Stmt { kind = Jir.Ast.Return (Some e); _ }, Nullness.Domain.Env env
        ->
          let v =
            match e with
            | Jir.Ast.Var y ->
                Option.value ~default:Nullness.Top
                  (Nullness.VM.find_opt y env)
            | _ -> Nullness.Top
          in
          acc := join_ret !acc (Some v)
      | _ -> ()
    done;
    !acc
  in
  (* per-parameter probe: would a null argument definitely be dereferenced? *)
  let params = List.map snd m.Jir.Ast.params in
  let ns_deref_param =
    Array.of_list
      (List.map
         (fun p ->
           let res =
             solve_null_method ~lookup ~entry:[ (p, Nullness.Null) ] g
           in
           null_hits ~lookup g res
           |> List.exists (fun (v, _) -> v = p))
         params)
  in
  ({ ns_ret; ns_deref_param }, res)

(* The lint client: dereferences that only become definite nulls once
   summaries are applied, read off each method's converged normal run.
   Sites the intraprocedural nullness lint already reports are subtracted,
   so [--interproc] adds strictly whole-program findings instead of
   re-labelling local ones.  [callgraph] and [cfg] are as for [solve]. *)
let null_diags ?callgraph ?cfg (p : Jir.Ast.program) : Lint.diag list =
  let diags = ref [] in
  let converged ~lookup (g : Cfg.t) res =
    let intra =
      Nullness.violations g
      |> List.filter_map (fun (v, node) ->
             Option.map
               (fun (at : Jir.Ast.pos) -> (v, at.Jir.Ast.line))
               (Cfg.pos_of_node g node))
    in
    null_hits ~lookup g res
    |> List.iter (fun (v, node) ->
           match Cfg.pos_of_node g node with
           | Some at when not (List.mem (v, at.Jir.Ast.line) intra) ->
               diags :=
                 Lint.diag "interproc-null" (Jir.Ast.meth_id g.Cfg.meth) at
                   (Printf.sprintf
                      "'%s' is null through an interprocedural flow when \
                       dereferenced"
                      v)
                 :: !diags
           | _ -> ())
  in
  ignore
    (solve ?callgraph ?cfg
       { cl_bottom =
           (fun m ->
             { ns_ret = None;
               ns_deref_param =
                 Array.make (List.length m.Jir.Ast.params) false });
         cl_equal =
           (fun a b ->
             a.ns_ret = b.ns_ret && a.ns_deref_param = b.ns_deref_param);
         cl_analyze = analyze_null_method;
         cl_converged = converged }
       p);
  !diags
  |> List.sort_uniq (fun (a : Lint.diag) b ->
         compare
           (a.Lint.at.Jir.Ast.file, a.Lint.at.Jir.Ast.line, a.Lint.meth,
            a.Lint.message)
           (b.Lint.at.Jir.Ast.file, b.Lint.at.Jir.Ast.line, b.Lint.meth,
            b.Lint.message))
