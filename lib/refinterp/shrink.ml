(* Counterexample shrinking (ISSUE 9 satellite): reduce a JIR program
   that makes the soundness harness fail to a (locally) minimal one that
   still fails, so the corpus stays readable and replays fast.

   Reductions, greedily to a fixpoint under a re-check budget:
     - drop a whole method, rewriting its call sites away (the big cuts);
     - drop a single statement at any nesting depth.

   Every candidate is revalidated by pretty-printing and re-resolving:
   a cut that orphans a variable use or an entry point simply fails to
   parse and is skipped without spending budget.  The re-resolve also
   renumbers lines, so the caller's failure predicate must re-derive
   its expectations from the candidate program, never from the
   original. *)

open Jir.Ast

(* Re-render and re-resolve a mutated AST.  Sids and positions of the
   mutated tree are stale; the pp/parse round trip rebuilds both. *)
let revalidate (p : program) : program option =
  match Jir.Resolve.parse_exn ~file:"shrunk.jir" (Jir.Pp.program_to_string p) with
  | p' -> Some p'
  | exception
      ( Jir.Resolve.Resolve_error _ | Jir.Parser.Parse_error _
      | Jir.Lexer.Lex_error _ ) ->
      None

(* ---- reduction 1: drop a method and its call sites ---- *)

let droppable_methods (p : program) : (string * string) list =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun m ->
          if List.mem (c.cname, m.mname) p.entries then None
          else Some (c.cname, m.mname))
        c.methods)
    p.classes

let drop_method (p : program) (dcls, dname) : program =
  let target (c : call) = c.target_class = dcls && c.mname = dname in
  let rec block b = List.filter_map stmt b
  and stmt s =
    match s.kind with
    | Expr c when target c -> None
    | Assign (_, Rcall c) when target c -> None
    | Decl (ty, x, Some (Rcall c)) when target c ->
        Some { s with kind = Decl (ty, x, None) }
    | If (cond, a, b) -> Some { s with kind = If (cond, block a, block b) }
    | While (cond, b) -> Some { s with kind = While (cond, block b) }
    | Try (b, cs) ->
        Some
          { s with
            kind =
              Try
                ( block b,
                  List.map (fun c -> { c with handler = block c.handler }) cs
                ) }
    | _ -> Some s
  in
  let classes =
    List.map
      (fun c ->
        { c with
          methods =
            c.methods
            |> List.filter (fun m ->
                   not (c.cname = dcls && m.mname = dname))
            |> List.map (fun m -> { m with body = block m.body }) })
      p.classes
  in
  { p with classes }

(* ---- reduction 2: drop the [n]-th statement in a pre-order walk ---- *)

let drop_nth_stmt (p : program) (n : int) : program option =
  let counter = ref (-1) in
  let dropped = ref false in
  let rec block b = List.filter_map stmt b
  and stmt s =
    incr counter;
    if !counter = n then begin
      dropped := true;
      None
    end
    else
      match s.kind with
      | If (cond, a, b) -> Some { s with kind = If (cond, block a, block b) }
      | While (cond, b) -> Some { s with kind = While (cond, block b) }
      | Try (b, cs) ->
          Some
            { s with
              kind =
                Try
                  ( block b,
                    List.map
                      (fun c -> { c with handler = block c.handler })
                      cs ) }
      | _ -> Some s
  in
  let classes =
    List.map
      (fun c ->
        { c with methods = List.map (fun m -> { m with body = block m.body }) c.methods })
      p.classes
  in
  if !dropped then Some { p with classes } else None

(* Greedy fixpoint minimization.  [still_fails] re-runs the whole
   harness on a candidate; [max_checks] bounds how many such runs the
   shrinker may spend.  Returns the smallest failing program found and
   the number of predicate evaluations used. *)
let minimize ?(max_checks = 200) ~(still_fails : program -> bool)
    (program : program) : program * int =
  let checks = ref 0 in
  let attempt cand =
    match revalidate cand with
    | None -> None
    | Some cand' ->
        if !checks >= max_checks then None
        else begin
          incr checks;
          if still_fails cand' then Some cand' else None
        end
  in
  let cur = ref program in
  let progress = ref true in
  while !progress && !checks < max_checks do
    progress := false;
    (* whole methods first: each hit removes many statements at once *)
    let rec methods_pass () =
      let hit =
        List.find_map
          (fun m -> attempt (drop_method !cur m))
          (droppable_methods !cur)
      in
      match hit with
      | Some p ->
          cur := p;
          progress := true;
          if !checks < max_checks then methods_pass ()
      | None -> ()
    in
    methods_pass ();
    (* then individual statements; on a hit, retry the same index (the
       next statement slid into it) *)
    let rec stmts_pass i =
      if !checks < max_checks then
        match drop_nth_stmt !cur i with
        | None -> ()
        | Some cand -> (
            match attempt cand with
            | Some p ->
                cur := p;
                progress := true;
                stmts_pass i
            | None -> stmts_pass (i + 1))
    in
    stmts_pass 0
  done;
  (!cur, !checks)
