(* The cloning plan for context sensitivity (paper §2.1, §4.1).

   The program graph is a fully inlined representation: every method is
   cloned once per call site that can reach it, except that methods in the
   same call-graph SCC share one clone per *group* and are treated
   context-insensitively among themselves.  This module materializes the
   tree of method instances that bottom-up inlining produces; the alias and
   dataflow graph generators then stamp per-method edge templates once per
   instance.

   An instance is one clone of one method; a group is one clone of one SCC.
   Calls to a method in the same SCC stay within the caller's group; calls
   to a different SCC create a fresh group (= fresh clones). *)

type instance = {
  inst_id : int;
  meth : int;                      (* method index in the ICFET *)
  group : int;                     (* SCC-clone this instance belongs to *)
  parent : (int * int) option;     (* (caller instance, ICFET call id);
                                      None for entry instances and for
                                      same-group members reached only via
                                      intra-SCC calls *)
  depth : int;
}

type t = {
  instances : instance array;
  entry_instances : int list;              (* roots, one per entry method *)
  by_site : (int * int, int) Hashtbl.t;    (* (caller inst, call id) -> callee inst *)
  children : (int, (int * int) list) Hashtbl.t;
      (* caller inst -> (call id, callee inst) list *)
  n_groups : int;
}

exception Too_many_instances of int

(* Call ids appearing in method [meth]'s CFET, grouped nowhere: we scan the
   ICFET's call-edge table once and index by caller method. *)
let call_edges_by_caller (icfet : Symexec.Icfet.t) :
    (int, Symexec.Icfet.call_edge list) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  for i = 0 to Symexec.Icfet.n_call_edges icfet - 1 do
    let ce = Symexec.Icfet.call_edge icfet i in
    let cur =
      Option.value ~default:[]
        (Hashtbl.find_opt tbl ce.Symexec.Icfet.caller_meth)
    in
    Hashtbl.replace tbl ce.Symexec.Icfet.caller_meth (ce :: cur)
  done;
  tbl

let build ?(max_instances = 200_000) (icfet : Symexec.Icfet.t)
    (callgraph : Jir.Callgraph.t) : t =
  let scc = Jir.Callgraph.tarjan callgraph in
  let meth_id_of idx =
    Jir.Ast.meth_id (Symexec.Icfet.cfet icfet idx).Symexec.Cfet.meth
  in
  let scc_of_meth idx =
    match Hashtbl.find_opt scc.Jir.Callgraph.component_of (meth_id_of idx) with
    | Some c -> c
    | None -> -1
  in
  let calls_by_caller = call_edges_by_caller icfet in
  let instances = ref [] in
  let count = ref 0 in
  let by_site = Hashtbl.create 1024 in
  let children = Hashtbl.create 1024 in
  let group_members : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* (group, meth) -> instance id: SCC members share clones per group *)
  let n_groups = ref 0 in
  let queue = Queue.create () in
  let new_instance ~meth ~group ~parent ~depth =
    let inst_id = !count in
    incr count;
    if !count > max_instances then raise (Too_many_instances !count);
    let inst = { inst_id; meth; group; parent; depth } in
    instances := inst :: !instances;
    Hashtbl.replace group_members (group, meth) inst_id;
    Queue.add inst queue;
    inst_id
  in
  let entry_instances =
    List.filter_map
      (fun (cls, m) ->
        match Symexec.Icfet.meth_idx icfet (Jir.Ast.qualified_name ~cls ~meth:m) with
        | None -> None
        | Some meth ->
            let group = !n_groups in
            incr n_groups;
            Some (new_instance ~meth ~group ~parent:None ~depth:0))
      icfet.Symexec.Icfet.program.Jir.Ast.entries
  in
  while not (Queue.is_empty queue) do
    let inst = Queue.pop queue in
    let sites =
      Option.value ~default:[] (Hashtbl.find_opt calls_by_caller inst.meth)
    in
    List.iter
      (fun (ce : Symexec.Icfet.call_edge) ->
        let callee = ce.Symexec.Icfet.callee_meth in
        let callee_inst =
          if scc_of_meth callee = scc_of_meth inst.meth then begin
            (* intra-SCC: reuse (or create) the member clone in this group *)
            match Hashtbl.find_opt group_members (inst.group, callee) with
            | Some id -> id
            | None ->
                new_instance ~meth:callee ~group:inst.group ~parent:None
                  ~depth:inst.depth
          end
          else begin
            let group = !n_groups in
            incr n_groups;
            new_instance ~meth:callee ~group
              ~parent:(Some (inst.inst_id, ce.Symexec.Icfet.call_id))
              ~depth:(inst.depth + 1)
          end
        in
        Hashtbl.replace by_site (inst.inst_id, ce.Symexec.Icfet.call_id)
          callee_inst;
        let cur =
          Option.value ~default:[] (Hashtbl.find_opt children inst.inst_id)
        in
        Hashtbl.replace children inst.inst_id
          ((ce.Symexec.Icfet.call_id, callee_inst) :: cur))
      sites
  done;
  let arr = Array.of_list (List.rev !instances) in
  Array.iteri (fun i inst -> assert (inst.inst_id = i)) arr;
  { instances = arr;
    entry_instances;
    by_site;
    children;
    n_groups = !n_groups }

let n_instances t = Array.length t.instances

let instance t id = t.instances.(id)

let callee_instance t ~caller ~call_id =
  Hashtbl.find_opt t.by_site (caller, call_id)

let children t id = Option.value ~default:[] (Hashtbl.find_opt t.children id)

(* The call-site chain from an entry instance down to [id]; used to print
   calling contexts in bug reports. *)
let context_chain t id =
  let rec go id acc =
    match (instance t id).parent with
    | None -> (id, acc)
    | Some (caller, call_id) -> go caller ((caller, call_id) :: acc)
  in
  go id []
