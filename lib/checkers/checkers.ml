(* The checker registry: the four finite-state property checkers the paper
   evaluates (§5), the DSL-defined checkers shipped with the tool, and any
   checkers loaded from .gspec files — all ready to run against a prepared
   pipeline state. *)

module Specs = Specs
module Exception_checker = Exception_checker
module Pipeline = Grapple.Pipeline
module Report = Grapple.Report

type t = {
  name : string;
  kind : [ `Typestate of Fsm.t | `Exception_walk of Exception_checker.opts ];
}

let io () = { name = "io"; kind = `Typestate (Specs.io_fsm ()) }
let null () = { name = "null"; kind = `Typestate (Specs.null_fsm ()) }
let lock () = { name = "lock"; kind = `Typestate (Specs.lock_fsm ()) }
let socket () = { name = "socket"; kind = `Typestate (Specs.socket_fsm ()) }

let exception_ () =
  { name = "exception";
    kind = `Exception_walk Exception_checker.default_opts }

(* The paper's four checkers; [null] is an additional client built on the
   same machinery (enable explicitly). *)
let all () = [ io (); lock (); exception_ (); socket () ]

let all_with_null () = all () @ [ null () ]

(* The one shared name table: CLI parsing, the `all` alias, and the
   available-checkers error message all derive from this list. *)
let registry : (string * (unit -> t)) list =
  [ ("io", io); ("lock", lock); ("exception", exception_); ("socket", socket);
    ("null", null) ]

(* A checker compiled from a DSL property. *)
let of_spec (c : Spec.checker) : t =
  match c.Spec.c_kind with
  | Spec.Typestate fsm -> { name = c.Spec.c_name; kind = `Typestate fsm }
  | Spec.Exception_walk { handler_aware } ->
      { name = c.Spec.c_name;
        kind =
          `Exception_walk
            { Exception_checker.name = c.Spec.c_name; handler_aware } }

(* The DSL-defined checkers shipped with the tool, compiled from the
   embedded spec texts (the same texts as specs/*.gspec).  Kept out of
   [registry] so `--checkers all` and the per-property analyses keep the
   paper's checker set. *)
let dsl_registry : (string * (unit -> t)) list =
  List.concat_map
    (fun (file, text) ->
      List.map
        (fun (c : Spec.checker) -> (c.Spec.c_name, fun () -> of_spec c))
        (Spec.compile ~file text))
    Spec.Builtin.all

let names () = List.map fst registry

let dsl_names () = List.map fst dsl_registry

let find name =
  Option.map (fun (_, mk) -> mk ()) (List.find_opt (fun (n, _) -> n = name) registry)

(* Resolve a checker name against (in precedence order) the checkers
   loaded from `--spec` files, the built-in registry, and the shipped DSL
   checkers.  Unknown names raise with the full list of valid ones. *)
let resolve ?(loaded : t list = []) name : t =
  match List.find_opt (fun c -> c.name = name) loaded with
  | Some c -> c
  | None -> (
      match find name with
      | Some c -> c
      | None -> (
          match List.find_opt (fun (n, _) -> n = name) dsl_registry with
          | Some (_, mk) -> mk ()
          | None ->
              let available =
                names () @ dsl_names () @ List.map (fun c -> c.name) loaded
                |> List.sort_uniq compare
              in
              invalid_arg
                (Printf.sprintf
                   "unknown checker '%s' (available: %s)" name
                   (String.concat ", " available))))

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
   checkers become one scheduled batch (see [Pipeline.check_properties]; at
   one worker it runs in the calling domain), the exception walk — cheap,
   engine-free — runs in the calling domain.  The per-checker warnings and
   the property results needed for statistics come back in [cs] order, so
   the rendered report is byte-identical at any worker or process count. *)
let run_all_scheduled (p : Pipeline.prepared) (cs : t list) :
    (string * Report.t list) list
    * Pipeline.property_result list
    * Pipeline.schedule_entry list =
  let props, schedule = Pipeline.check_properties p (fsms cs) in
  let rec assemble cs props =
    match cs with
    | [] -> []
    | c :: rest -> (
        match c.kind with
        | `Typestate _ -> (
            match props with
            | (pr : Pipeline.property_result) :: tl ->
                (c.name, Report.dedup_exact pr.Pipeline.reports)
                :: assemble rest tl
            | [] -> assert false)
        | `Exception_walk opts ->
            (c.name, Report.dedup_exact (exception_walk opts p))
            :: assemble rest props)
  in
  (assemble cs props, props, schedule)
