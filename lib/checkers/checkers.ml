(* The checker registry: every built-in checker — the paper's five and the
   further shipped properties — compiled from the embedded DSL texts
   (specs/*.gspec), plus any checkers loaded from .gspec files, all ready
   to run against a prepared pipeline state. *)

module Specs = Specs
module Exception_checker = Exception_checker
module Pipeline = Grapple.Pipeline
module Report = Grapple.Report

type t = {
  name : string;
  kind : [ `Typestate of Fsm.t | `Exception_walk of Exception_checker.opts ];
}

(* A checker compiled from a DSL property. *)
let of_spec (c : Spec.checker) : t =
  match c.Spec.c_kind with
  | Spec.Typestate fsm -> { name = c.Spec.c_name; kind = `Typestate fsm }
  | Spec.Exception_walk { handler_aware } ->
      { name = c.Spec.c_name;
        kind =
          `Exception_walk
            { Exception_checker.name = c.Spec.c_name; handler_aware } }

(* The one built-in table, in text order: the paper's io, lock, exception,
   socket and null, then the further shipped properties.  Compiled once;
   a compiled FSM is never mutated, so every caller may share it. *)
let builtin : t list =
  List.concat_map
    (fun (file, text) -> List.map of_spec (Spec.compile ~file text))
    Spec.Builtin.all

(* Resolve a checker name: the checkers loaded from `--spec` files shadow
   the built-in table.  Unknown names raise with the full list of valid
   ones. *)
let resolve ?(loaded : t list = []) name : t =
  let named = List.find_opt (fun c -> c.name = name) in
  match named loaded with
  | Some c -> c
  | None -> (
      match named builtin with
      | Some c -> c
      | None ->
          let available =
            List.map (fun c -> c.name) (builtin @ loaded)
            |> List.sort_uniq compare
          in
          invalid_arg
            (Printf.sprintf "unknown checker '%s' (available: %s)" name
               (String.concat ", " available)))

(* The paper's four checkers, the default set.  [null] is an additional
   client on the same machinery: it runs when named, or under
   `--checkers all`. *)
let all () = List.map resolve [ "io"; "lock"; "exception"; "socket" ]

let all_with_null () = all () @ [ resolve "null" ]

(* The FSM of a built-in typestate checker, for callers that check one
   property at a time. *)
let fsm name =
  match (resolve name).kind with
  | `Typestate f -> f
  | `Exception_walk _ -> invalid_arg (name ^ " is not a typestate checker")

(* The typestate FSMs of [cs], in order: the per-property instances the
   pipeline schedules and pre-filters (exception walks need neither). *)
let fsms (cs : t list) =
  List.filter_map
    (fun c ->
      match c.kind with `Typestate f -> Some f | `Exception_walk _ -> None)
    cs

let exception_walk opts p =
  Obs.Trace.with_span ~cat:"checker" "checker.exception_walk" (fun () ->
      Exception_checker.run ~opts p)

(* Run every checker, reusing the shared phase-1 results: the typestate
   checkers are the run's properties, which [Pipeline.check_properties]
   schedules as one batch; the exception walk — cheap, engine-free — runs
   in the calling process.  [fsms cs] must be the list [p] was prepared
   for, the same properties in the same order: the summary tier pruned for
   that list, and null tracking followed it.  The per-checker warnings and
   the property results needed for statistics come back in [cs] order, so
   the rendered report is byte-identical at any process count. *)
let run_all_scheduled (p : Pipeline.prepared) (cs : t list) :
    (string * Report.t list) list
    * Pipeline.property_result list
    * Pipeline.schedule_entry list =
  let names fsms = List.map (fun (f : Fsm.t) -> f.Fsm.name) fsms in
  let asked = names (fsms cs)
  and prepared = names p.Pipeline.config.Pipeline.prefilter_properties in
  if asked <> prepared then
    invalid_arg
      (Printf.sprintf
         "Checkers.run_all_scheduled: checking [%s], but the run was \
          prepared for [%s]"
         (String.concat "; " asked)
         (String.concat "; " prepared));
  let props, schedule = Pipeline.check_properties p in
  let rec assemble cs props =
    match cs with
    | [] -> []
    | c :: rest -> (
        match c.kind with
        | `Typestate _ -> (
            match props with
            | (pr : Pipeline.property_result) :: tl ->
                (c.name, pr.Pipeline.reports) :: assemble rest tl
            | [] -> assert false)
        | `Exception_walk opts ->
            (c.name, exception_walk opts p) :: assemble rest props)
  in
  (assemble cs props, props, schedule)
