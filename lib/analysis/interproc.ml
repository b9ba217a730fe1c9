(* Generic summary-based interprocedural solver (paper §2.1: analyses are
   driven bottom-up over the SCC condensation of the call graph).

   A client supplies a per-method summary lattice: a bottom element, an
   equality test, and an [analyze] function that computes one method's
   summary given (current) summaries for its callees.  The solver visits
   SCC components in reverse-topological order (callees before callers) and
   iterates each component to a fixpoint, so summaries of (mutually)
   recursive methods converge from bottom.  Because every client lattice is
   finite-height and [analyze] monotone, the result is the least fixpoint —
   the most precise sound summary assignment.

   Summaries are context-insensitive: all call sites of a method share one
   summary, exactly as the paper collapses SCCs and treats them
   context-insensitively. *)

type 'summary client = {
  cl_name : string;
  cl_bottom : Jir.Ast.meth -> 'summary;
  cl_equal : 'summary -> 'summary -> bool;
  cl_analyze :
    lookup:(string -> 'summary option) ->
    Jir.Ast.program ->
    Jir.Ast.meth ->
    'summary;
}

type 'summary result = {
  table : (string, 'summary) Hashtbl.t;  (* method id -> summary *)
  order : string list;                   (* reverse-topological method order *)
  n_scc_iterations : int;                (* total component fixpoint rounds *)
}

let lookup (r : 'a result) id = Hashtbl.find_opt r.table id

let solve (client : 'a client) (program : Jir.Ast.program) : 'a result =
  let cg = Jir.Callgraph.build program in
  let sccs = Jir.Callgraph.sccs_reverse_topological cg in
  let methods = Hashtbl.create 64 in
  List.iter
    (fun m -> Hashtbl.replace methods (Jir.Ast.meth_id m) m)
    (Jir.Ast.all_methods program);
  let meth id = Hashtbl.find methods id in
  let table = Hashtbl.create 64 in
  let lookup id = Hashtbl.find_opt table id in
  let rounds = ref 0 in
  List.iter
    (fun component ->
      List.iter
        (fun id -> Hashtbl.replace table id (client.cl_bottom (meth id)))
        component;
      (* one pass suffices for a non-recursive singleton component: every
         callee lies outside it and is already at fixpoint *)
      let recursive =
        match component with
        | [ id ] -> List.mem id (Jir.Callgraph.callees cg id)
        | _ -> true
      in
      let rec iterate () =
        incr rounds;
        let changed =
          List.fold_left
            (fun changed id ->
              let s' = client.cl_analyze ~lookup program (meth id) in
              if client.cl_equal (Hashtbl.find table id) s' then changed
              else begin
                Hashtbl.replace table id s';
                true
              end)
            false component
        in
        if changed && recursive then iterate ()
      in
      iterate ())
    sccs;
  { table; order = List.concat sccs; n_scc_iterations = !rounds }

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

(* Context threaded into the summary-aware nullness domain through a cell:
   the Dataflow functor takes a closed module, so per-run parameters (the
   summary table and the entry-value probe) travel alongside it. *)
type null_ctx = {
  nc_lookup : string -> null_summary option;
  nc_entry : (string * Nullness.value) list;  (* parameter seed values *)
}

let null_ctx : null_ctx option ref = ref None

let call_ret_value nc (c : Jir.Ast.call) =
  let id =
    Jir.Ast.qualified_name ~cls:c.Jir.Ast.target_class ~meth:c.Jir.Ast.mname
  in
  match nc.nc_lookup id with
  | Some { ns_ret = Some v; _ } -> v
  | Some { ns_ret = None; _ } ->
      (* bottom: no normal return analyzed yet (recursion) — optimistic,
         resolved by the component fixpoint *)
      Nullness.Nonnull
  | None -> Nullness.Top  (* library call *)

module NullDomain = struct
  type t = Nullness.Domain.t

  let bottom = Nullness.Domain.Unreached

  let init (_ : Cfg.t) =
    let nc = Option.get !null_ctx in
    Nullness.Domain.Env
      (List.fold_left
         (fun env (v, value) -> Nullness.VM.add v value env)
         Nullness.VM.empty nc.nc_entry)

  let equal = Nullness.Domain.equal
  let join = Nullness.Domain.join
  let exc _ _ state = state

  let value_of_rhs env (r : Jir.Ast.rhs) =
    match r with
    | Jir.Ast.Rcall c -> call_ret_value (Option.get !null_ctx) c
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
end

module NullSolver = Dataflow.Forward (NullDomain)

let solve_null_method ~lookup ~entry (g : Cfg.t) =
  null_ctx := Some { nc_lookup = lookup; nc_entry = entry };
  let r = NullSolver.solve g in
  null_ctx := None;
  r

(* Dereferences of definitely-null variables, including null arguments
   passed to a parameter the callee definitely dereferences. *)
let null_hits ~lookup (g : Cfg.t) (res : NullDomain.t Dataflow.result) :
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

let analyze_null_method ~lookup (_ : Jir.Ast.program) (m : Jir.Ast.meth) :
    null_summary =
  let g = Cfg.build m in
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
           let res = solve_null_method ~lookup ~entry:[ (p, Nullness.Null) ] g in
           null_hits ~lookup g res
           |> List.exists (fun (v, _) -> v = p))
         params)
  in
  { ns_ret; ns_deref_param }

let null_client : null_summary client =
  { cl_name = "interproc-null";
    cl_bottom =
      (fun m ->
        { ns_ret = None;
          ns_deref_param =
            Array.make (List.length m.Jir.Ast.params) false });
    cl_equal =
      (fun a b -> a.ns_ret = b.ns_ret && a.ns_deref_param = b.ns_deref_param);
    cl_analyze = analyze_null_method }

(* The lint client: dereferences that only become definite nulls once
   summaries are applied.  Sites the intraprocedural nullness lint already
   reports are subtracted, so [--interproc] adds strictly whole-program
   findings instead of re-labelling local ones. *)
let null_diags (p : Jir.Ast.program) : Lint.diag list =
  let r = solve null_client p in
  let lk = lookup r in
  Jir.Ast.all_methods p
  |> List.concat_map (fun (m : Jir.Ast.meth) ->
         let g = Cfg.build m in
         let intra =
           Nullness.violations g
           |> List.filter_map (fun (v, node) ->
                  Option.map
                    (fun (at : Jir.Ast.pos) -> (v, at.Jir.Ast.line))
                    (Cfg.pos_of_node g node))
         in
         let res = solve_null_method ~lookup:lk ~entry:[] g in
         null_hits ~lookup:lk g res
         |> List.filter_map (fun (v, node) ->
                match Cfg.pos_of_node g node with
                | Some at when not (List.mem (v, at.Jir.Ast.line) intra) ->
                    Some
                      (Lint.diag "interproc-null" (Jir.Ast.meth_id m) at
                         (Printf.sprintf
                            "'%s' is null through an interprocedural flow \
                             when dereferenced"
                            v))
                | _ -> None))
  |> List.sort_uniq (fun (a : Lint.diag) b ->
         compare
           (a.Lint.at.Jir.Ast.file, a.Lint.at.Jir.Ast.line, a.Lint.meth,
            a.Lint.message)
           (b.Lint.at.Jir.Ast.file, b.Lint.at.Jir.Ast.line, b.Lint.meth,
            b.Lint.message))
