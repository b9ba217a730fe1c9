(* Context-insensitive call graph over resolved JIR programs, plus Tarjan's
   strongly-connected-components algorithm.  The paper (§2.1) collapses each
   SCC of recursively-invoked methods and treats it context-insensitively;
   graph cloning is then driven by a reverse-topological order over the SCC
   condensation. *)

open Ast

type t = {
  program : program;
  (* method id -> callee method ids, in call-site order, deduplicated *)
  callees : (string, string list) Hashtbl.t;
  callers : (string, string list) Hashtbl.t;
  method_ids : string list;  (* all method ids, stable order *)
}

(* Call targets of a method body in call-site order; a constructor is
   modeled as the callee <init> when the class defines one (allocation
   itself is not a call). *)
let calls_of_block (b : block) =
  List.filter_map
    (fun s ->
      match s.kind with
      | Decl (_, _, Some (Rcall c)) | Assign (_, Rcall c) | Expr c ->
          Some (c.target_class, c.mname)
      | Decl (_, _, Some (Rnew (cls, _))) | Assign (_, Rnew (cls, _)) ->
          Some (cls, "<init>")
      | _ -> None)
    (block_stmts b)

let dedup_keep_order l =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    l

(* Build the call graph.  Calls to methods that do not exist in the program
   (library calls, e.g. the FSM event methods on built-in resource classes)
   are not edges: they have no body to analyze and are treated as events or
   no-ops by the analyses. *)
let build (p : program) : t =
  let callees = Hashtbl.create 64 in
  let callers = Hashtbl.create 64 in
  let methods =
    List.concat_map
      (fun c -> List.map (fun m -> meth_id m) c.methods)
      p.classes
  in
  (* Hashtable membership: the per-call [List.mem] scan made this loop
     quadratic in program size. *)
  let defined = Hashtbl.create 256 in
  List.iter (fun id -> Hashtbl.replace defined id ()) methods;
  let exists id = Hashtbl.mem defined id in
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          let raw = calls_of_block m.body in
          let resolved =
            raw
            |> List.map (fun (cls, name) -> qualified_name ~cls ~meth:name)
            |> List.filter exists
            |> dedup_keep_order
          in
          Hashtbl.replace callees (meth_id m) resolved;
          List.iter
            (fun callee ->
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt callers callee)
              in
              Hashtbl.replace callers callee (meth_id m :: cur))
            resolved)
        c.methods)
    p.classes;
  { program = p; callees; callers; method_ids = methods }

let callees t id = Option.value ~default:[] (Hashtbl.find_opt t.callees id)
let callers t id =
  dedup_keep_order (Option.value ~default:[] (Hashtbl.find_opt t.callers id))

(* ------------------------------------------------------------------ *)
(* Tarjan SCC over the call graph.                                     *)
(* ------------------------------------------------------------------ *)

type scc = {
  components : string list array;  (* each component: member method ids *)
  component_of : (string, int) Hashtbl.t;
}

let tarjan (t : t) : scc =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let comps = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (callees t v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
    t.method_ids;
  (* Tarjan emits components in reverse topological order of the
     condensation (callees before callers); keep that order. *)
  let components = Array.of_list (List.rev !comps) in
  let component_of = Hashtbl.create 64 in
  Array.iteri
    (fun i members -> List.iter (fun m -> Hashtbl.replace component_of m i) members)
    components;
  { components; component_of }

(* SCC components in reverse-topological order of the condensation: every
   component appears after all components it calls into (callees first).
   This is the order bottom-up summary computation and inlining proceed in
   (§4.1). *)
let sccs_reverse_topological (t : t) : string list list =
  let scc = tarjan t in
  (* Components as emitted by [tarjan] are ordered callers-last; verify by
     orienting edges and sorting the condensation. *)
  let n = Array.length scc.components in
  let deps = Array.make n [] in
  Array.iteri
    (fun i members ->
      List.iter
        (fun m ->
          List.iter
            (fun callee ->
              let j = Hashtbl.find scc.component_of callee in
              if i <> j then deps.(i) <- j :: deps.(i))
            (callees t m))
        members)
    scc.components;
  let visited = Array.make n false in
  let order = ref [] in
  let rec visit i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter visit deps.(i);
      order := i :: !order
    end
  in
  for i = 0 to n - 1 do visit i done;
  (* [order] now lists components with callees first. *)
  List.map (fun i -> scc.components.(i)) (List.rev !order)

(* Methods in reverse-topological order of the SCC condensation: every callee
   (outside the method's own SCC) appears before its callers. *)
let reverse_topological (t : t) : string list =
  List.concat (sccs_reverse_topological t)

let is_recursive (t : t) (scc : scc) id =
  match Hashtbl.find_opt scc.component_of id with
  | None -> false
  | Some i ->
      (match scc.components.(i) with
      | [ single ] -> List.mem single (callees t single)
      | _ :: _ :: _ -> true
      | [] -> false)
