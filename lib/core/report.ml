(* Bug reports produced by the checking phase. *)

type kind =
  | Error_state of string
      (* the event sequence drives the object into the FSM's error state;
         the payload names the state reached *)
  | Leak of string
      (* object reaches a program exit in the named non-accepting state *)
  | Unhandled_exception of string
      (* an explicitly thrown exception escapes every caller *)
  | Inconclusive of string
      (* the checking instance could not be completed — its budget ran out
         or storage kept failing past the retry limit — and was degraded by
         the supervisor instead of aborting the run; the payload names the
         reason.  Not a bug claim: it marks where coverage is missing. *)

type t = {
  checker : string;
  kind : kind;
  cls : string;               (* tracked class, or exception class *)
  alloc_at : Jir.Ast.pos;     (* allocation site / throw site *)
  site : Jir.Ast.pos option;  (* where the violation manifests, if distinct *)
  context : string list;      (* call chain of the allocation's clone *)
  witness : (string * int) list;
      (* a concrete input assignment under which the buggy path is taken,
         extracted from the path constraint's model (may be empty when the
         solver could not reconstruct an integer witness) *)
  trace : string list;
      (* the control path recovered from the warning's encoding, one entry
         per visited CFET node: "Method (file:lines)" *)
}

let kind_to_string = function
  | Error_state s -> Printf.sprintf "error state (%s)" s
  | Leak s -> Printf.sprintf "leak (ends in %s)" s
  | Unhandled_exception e -> Printf.sprintf "unhandled exception %s" e
  | Inconclusive why -> Printf.sprintf "inconclusive (%s)" why

(* Stable identity for deduplication: the same defect found along several
   paths or clones (or manifesting at several sites) is one warning. *)
let dedup_key (r : t) =
  ( r.checker,
    (match r.kind with
    | Error_state _ -> "error"
    | Leak _ -> "leak"
    | Unhandled_exception e -> "exn:" ^ e
    | Inconclusive _ -> "inconclusive"),
    r.cls,
    r.alloc_at.Jir.Ast.file,
    r.alloc_at.Jir.Ast.line )

(* The order that picks a key's representative: a report that names a
   manifestation site first, then by site, context, witness, trace and the
   state reached.  It is total over the fields the key leaves free, so the
   survivor does not depend on the order the engine found the paths in. *)
let canonical (r : t) =
  (Option.is_none r.site, r.site, r.context, r.witness, r.trace, r.kind)

(* One report per dedup key, the least under [canonical], in key order. *)
let dedup (reports : t list) : t list =
  let best = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = dedup_key r in
      match Hashtbl.find_opt best k with
      | Some b when compare (canonical b) (canonical r) <= 0 -> ()
      | _ -> Hashtbl.replace best k r)
    reports;
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let pp ppf (r : t) =
  match r.kind with
  | Inconclusive _ ->
      (* no allocation site to cite: the instance was degraded as a whole *)
      Fmt.pf ppf "[%s] %s" r.checker (kind_to_string r.kind)
  | _ ->
  Fmt.pf ppf "[%s] %s: %s allocated at %s:%d%a%a" r.checker
    (kind_to_string r.kind) r.cls r.alloc_at.Jir.Ast.file
    r.alloc_at.Jir.Ast.line
    (fun ppf () ->
      match r.site with
      | Some p -> Fmt.pf ppf ", manifests at %s:%d" p.Jir.Ast.file p.Jir.Ast.line
      | None -> ())
    ()
    (fun ppf () ->
      match r.witness with
      | [] -> ()
      | w ->
          Fmt.pf ppf " (e.g. when %a)"
            (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (name, v) ->
                 Fmt.pf ppf "%s = %d" name v))
            w)
    ()

let to_string r = Fmt.str "%a" pp r

(* Multi-line rendering including the recovered path, for the CLI's
   --trace mode. *)
let pp_with_trace ppf (r : t) =
  pp ppf r;
  List.iter (fun step -> Fmt.pf ppf "\n      via %s" step) r.trace

(* One-line JSON rendering for `grapple check --json`: stable keys so bench
   tooling can diff runs textually. *)
let to_json (r : t) =
  let esc = Obs.Trace.json_escape in
  let kind, state =
    match r.kind with
    | Error_state s -> ("error", s)
    | Leak s -> ("leak", s)
    | Unhandled_exception e -> ("exception", e)
    | Inconclusive why -> ("inconclusive", why)
  in
  let site =
    match r.site with
    | Some p ->
        Printf.sprintf {|,"site_file":"%s","site_line":%d|}
          (esc p.Jir.Ast.file) p.Jir.Ast.line
    | None -> ""
  in
  Printf.sprintf
    {|{"tool":"check","checker":"%s","kind":"%s","state":"%s","class":"%s","file":"%s","line":%d%s}|}
    (esc r.checker) kind (esc state) (esc r.cls) (esc r.alloc_at.Jir.Ast.file)
    r.alloc_at.Jir.Ast.line site
