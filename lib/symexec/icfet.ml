(* The interprocedural CFET (paper §3.2, §3.3): the per-method CFETs plus
   call and return edges connecting them.  The ICFET is *not* inlined; it is
   the in-memory index the engine consults to decode an interval-sequence
   encoding into a concrete interprocedural path and compute its constraint.

   A call edge records the call-site id, the node containing the call
   statement, and the parameter-passing equations (callee formal symbol =
   symbolic argument expression).  Return edges are implicit: a [Ret i]
   element in an encoding names call site [i], and the callee leaf it leaves
   from is the [last] endpoint of the preceding interval, whose recorded
   symbolic return value yields the value-return equation. *)

module Symbol = Smt.Symbol
module Linexpr = Smt.Linexpr
module Formula = Smt.Formula
module Solver = Smt.Solver
module Encoding = Pathenc.Encoding


type call_edge = {
  call_id : int;
  caller_meth : int;          (* method index *)
  caller_node : int;          (* CFET node containing the call statement *)
  call_sid : int;             (* statement id of the call *)
  callee_meth : int;
  param_equations : (Symbol.t * Linexpr.t) list;  (* formal = argument *)
  lhs : (Jir.Ast.var * Symbol.t) option;          (* receiver of the result *)
  diverges : bool;  (* the caller node is the true child of a may-throw
                       divergence; its false sibling receives exceptions *)
}

type t = {
  program : Jir.Ast.program;
  config : Cfet.config;
  cfets : Cfet.t array;
  meth_index : (string, int) Hashtbl.t;
  call_edges : call_edge array;
  site_index : (int * int * int, int) Hashtbl.t;
      (* (meth_idx, node_id, sid) -> call_id *)
}

let meth_idx t id = Hashtbl.find_opt t.meth_index id
let cfet t idx = t.cfets.(idx)
let cfet_of_meth t id = Option.map (fun i -> t.cfets.(i)) (meth_idx t id)
let call_edge t id = t.call_edges.(id)
let call_id_of_site t ~meth ~node ~sid =
  Hashtbl.find_opt t.site_index (meth, node, sid)

let n_methods t = Array.length t.cfets
let n_call_edges t = Array.length t.call_edges

let total_nodes t =
  Array.fold_left (fun acc c -> acc + c.Cfet.node_count) 0 t.cfets

(* Build the ICFET of a loop-free program. *)
let build ?(config : Cfet.config option) (p : Jir.Ast.program) : t =
  let config =
    match config with Some c -> c | None -> Cfet.default_config p
  in
  let methods = Jir.Ast.all_methods p in
  let meth_index = Hashtbl.create 64 in
  List.iteri (fun i m -> Hashtbl.replace meth_index (Jir.Ast.meth_id m) i)
    methods;
  let cfets =
    Array.of_list
      (List.mapi (fun i m -> Cfet.build ~config ~meth_idx:i m) methods)
  in
  let call_edges = ref [] in
  let site_index = Hashtbl.create 256 in
  let next_id = ref 0 in
  Array.iteri
    (fun caller_meth c ->
      Hashtbl.iter
        (fun node_id (n : Cfet.node) ->
          List.iter
            (fun (ci : Cfet.call_info) ->
              match Hashtbl.find_opt meth_index ci.Cfet.callee_id with
              | None -> ()  (* library call: event or no-op, no edge *)
              | Some callee_meth ->
                  let callee = cfets.(callee_meth).Cfet.meth in
                  let callee_id = Jir.Ast.meth_id callee in
                  let param_equations =
                    let rec pair params args acc =
                      match (params, args) with
                      | [], _ | _, [] -> List.rev acc
                      | (Jir.Ast.Tint, pname) :: ps, arg :: args ->
                          pair ps args
                            ((Symenv.param_symbol ~meth_id:callee_id pname, arg)
                             :: acc)
                      | _ :: ps, _ :: args -> pair ps args acc
                    in
                    pair callee.Jir.Ast.params ci.Cfet.arg_values []
                  in
                  let call_id = !next_id in
                  incr next_id;
                  Hashtbl.replace site_index
                    (caller_meth, node_id, ci.Cfet.call_stmt.Jir.Ast.sid)
                    call_id;
                  call_edges :=
                    { call_id; caller_meth; caller_node = node_id;
                      call_sid = ci.Cfet.call_stmt.Jir.Ast.sid; callee_meth;
                      param_equations; lhs = ci.Cfet.lhs;
                      diverges = ci.Cfet.diverges }
                    :: !call_edges)
            n.Cfet.calls)
        c.Cfet.nodes)
    cfets;
  let call_edges =
    let arr = Array.of_list (List.rev !call_edges) in
    Array.sort (fun a b -> compare a.call_id b.call_id) arr;
    arr
  in
  { program = p; config; cfets; meth_index; call_edges; site_index }

(* ------------------------------------------------------------------ *)
(* Path decoding (paper Algorithm 1 extended to interprocedural paths). *)
(* ------------------------------------------------------------------ *)

exception Bad_encoding of string

(* Decode an interval-sequence encoding into its path constraint: the
   conjunction of the branch constraints of every intraprocedural fragment,
   the parameter-passing equations of every call edge crossed, and the
   value-return equations of every return edge crossed. *)
let constraint_of (t : t) (enc : Encoding.t) : Formula.t =
  let conj = ref Formula.True in
  let add f = conj := Formula.and_ !conj f in
  (* [last_interval] tracks the most recent interval within one fragment so
     a [Ret i] can recover which callee leaf the path returned from.  A
     [Rev] fragment is a forward path traversed backwards: its constraint is
     the constraint of the wrapped path, so recurse with a fresh state. *)
  let rec walk els =
    let last_interval = ref None in
    List.iter
      (fun el ->
        match el with
        | Encoding.Interval { meth; first; last } ->
            if meth < 0 || meth >= Array.length t.cfets then
              raise (Bad_encoding (Encoding.to_string enc));
            add (Cfet.path_constraint t.cfets.(meth) ~first ~last);
            last_interval := Some (meth, last)
        | Encoding.Call i ->
            if i < 0 || i >= Array.length t.call_edges then
              raise (Bad_encoding (Encoding.to_string enc));
            let ce = t.call_edges.(i) in
            List.iter
              (fun (formal, arg) -> add (Formula.eq (Linexpr.var formal) arg))
              ce.param_equations;
            last_interval := None
        | Encoding.Ret i ->
            if i < 0 || i >= Array.length t.call_edges then
              raise (Bad_encoding (Encoding.to_string enc));
            let ce = t.call_edges.(i) in
            (match (!last_interval, ce.lhs) with
            | Some (m, leaf), Some (_, lhs_sym) when m = ce.callee_meth -> (
                let n = Cfet.node t.cfets.(m) leaf in
                match n.Cfet.exit with
                | Some (Cfet.Normal (Some ret)) ->
                    add (Formula.eq (Linexpr.var lhs_sym) ret)
                | Some (Cfet.Normal None) | Some (Cfet.Exceptional _) | None
                  ->
                    ())
            | _ -> ());
            last_interval := None
        | Encoding.Rev inner | Encoding.Aux inner -> walk inner)
      els
  in
  walk enc;
  !conj

(* The forward interprocedural node sequence an encoding traverses:
   (method index, CFET node id) in path order.  Reversed and auxiliary
   fragments are skipped — they are value-flow evidence, not the control
   path itself.  This is the "recover a path during the computation" half
   of the paper's encoding/decoding contribution, used to render witness
   traces in bug reports. *)
let nodes_of (t : t) (enc : Encoding.t) : (int * int) list =
  let out = ref [] in
  List.iter
    (fun el ->
      match el with
      | Encoding.Interval { meth; first; last } ->
          if meth >= 0 && meth < Array.length t.cfets then begin
            let rec up cur acc =
              if cur = first then cur :: acc
              else if cur < first || cur <= 0 then acc
              else up (Cfet.parent_id cur) (cur :: acc)
            in
            List.iter (fun n -> out := (meth, n) :: !out) (up last [])
          end
      | Encoding.Call _ | Encoding.Ret _ | Encoding.Rev _ | Encoding.Aux _ ->
          ())
    enc;
  List.rev !out

(* Human-readable rendering of [nodes_of]: one entry per visited node that
   contains statements, "Method (file:first-last)". *)
let trace_of (t : t) (enc : Encoding.t) : string list =
  let dedup_consecutive l =
    List.fold_left
      (fun acc x -> match acc with y :: _ when y = x -> acc | _ -> x :: acc)
      [] l
    |> List.rev
  in
  dedup_consecutive
  @@ List.filter_map
    (fun (meth, node_id) ->
      let cfet = t.cfets.(meth) in
      match Hashtbl.find_opt cfet.Cfet.nodes node_id with
      | None -> None
      | Some n -> (
          match n.Cfet.stmts with
          | [] -> None
          | stmts ->
              let lines =
                List.map (fun (s : Jir.Ast.stmt) -> s.Jir.Ast.at.Jir.Ast.line)
                  stmts
              in
              let file = (List.hd stmts).Jir.Ast.at.Jir.Ast.file in
              let lo = List.fold_left min max_int lines in
              let hi = List.fold_left max 0 lines in
              Some
                (if lo = hi then
                   Printf.sprintf "%s (%s:%d)"
                     (Jir.Ast.meth_id cfet.Cfet.meth) file lo
                 else
                   Printf.sprintf "%s (%s:%d-%d)"
                     (Jir.Ast.meth_id cfet.Cfet.meth) file lo hi)))
    (nodes_of t enc)
