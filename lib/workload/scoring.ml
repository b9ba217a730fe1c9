(* Scoring of checker warnings against a subject's injected ground truth
   (Table 2).  A warning is a true positive when an injected bug with the
   same checker, compatible kind, and the same source line matches; each
   expectation matches at most one warning.  Unmatched warnings are false
   positives; unmatched expectations are misses (false negatives). *)

module Report = Grapple.Report

type score = {
  tp : int;
  fp : int;
  fn : int;
  fp_reports : Report.t list;
  missed : Patterns.expectation list;
}

let kind_matches (k : Report.kind) (e : Patterns.exp_kind) =
  match (k, e) with
  | Report.Leak _, `Leak
  | Report.Error_state _, `Error
  | Report.Unhandled_exception _, `Exn ->
      true
  | _ -> false

let report_line (r : Report.t) = r.Report.alloc_at.Jir.Ast.line

(* Score the warnings of one checker.

   An empty filtered ground truth is an error by default: a score of
   "0 FN" against a subject that planted no bugs of [checker] is
   vacuous, and silently reporting it as a perfect run hides harness
   misconfiguration (wrong checker name, wrong subject).  Callers that
   legitimately score a no-bugs combination — e.g. a clean-subject
   false-positive count — opt in with [~allow_empty:true]. *)
let score ?(allow_empty = false) ~(checker : string)
    ~(expected : Patterns.expectation list) ~(reports : Report.t list) () :
    score =
  let expected =
    List.filter (fun e -> e.Patterns.exp_checker = checker) expected
  in
  if expected = [] && not allow_empty then
    invalid_arg
      (Printf.sprintf
         "Scoring.score: no ground-truth expectations for checker %S (pass \
          ~allow_empty:true to score a zero-bug subject)"
         checker);
  let reports = List.filter (fun r -> r.Report.checker = checker) reports in
  let unmatched = Hashtbl.create 16 in
  List.iteri (fun i e -> Hashtbl.replace unmatched i e) expected;
  let tp = ref 0 in
  let fp_reports = ref [] in
  List.iter
    (fun r ->
      let matching =
        Hashtbl.fold
          (fun i e best ->
            match best with
            | Some _ -> best
            | None ->
                if
                  kind_matches r.Report.kind e.Patterns.exp_kind
                  && report_line r = e.Patterns.exp_line
                then Some i
                else None)
          unmatched None
      in
      match matching with
      | Some i ->
          Hashtbl.remove unmatched i;
          incr tp
      | None -> fp_reports := r :: !fp_reports)
    reports;
  let missed = Hashtbl.fold (fun _ e acc -> e :: acc) unmatched [] in
  { tp = !tp;
    fp = List.length !fp_reports;
    fn = List.length missed;
    fp_reports = List.rev !fp_reports;
    missed }

let pp ppf (s : score) =
  Fmt.pf ppf "TP=%d FP=%d FN=%d" s.tp s.fp s.fn

(* ------------------------------------------------------------------ *)
(* Lint diagnostics scored the same way: an expectation with checker    *)
(* "lint" and kind `Lint name matches a diagnostic of that lint on the  *)
(* same source line, at most once.                                      *)
(* ------------------------------------------------------------------ *)

type lint_score = {
  ltp : int;
  lfp : int;
  lfn : int;
  lfp_diags : Analysis.Lint.diag list;
  lmissed : Patterns.expectation list;
}

(* [checker] selects which expectations the diagnostics are scored
   against: "lint" (default) for the intraprocedural lints, "interproc"
   for the summary-based whole-program lints. *)
let score_lints ?(allow_empty = false) ?(checker = "lint")
    ~(expected : Patterns.expectation list)
    (diags : Analysis.Lint.diag list) : lint_score =
  let expected =
    List.filter (fun e -> e.Patterns.exp_checker = checker) expected
  in
  if expected = [] && not allow_empty then
    invalid_arg
      (Printf.sprintf
         "Scoring.score_lints: no ground-truth expectations for %S (pass \
          ~allow_empty:true to score a zero-bug subject)"
         checker);
  let unmatched = Hashtbl.create 16 in
  List.iteri (fun i e -> Hashtbl.replace unmatched i e) expected;
  let tp = ref 0 in
  let fp_diags = ref [] in
  List.iter
    (fun (d : Analysis.Lint.diag) ->
      let matching =
        Hashtbl.fold
          (fun i e best ->
            match best with
            | Some _ -> best
            | None -> (
                match e.Patterns.exp_kind with
                | `Lint name
                  when name = d.Analysis.Lint.lint
                       && d.Analysis.Lint.at.Jir.Ast.line = e.Patterns.exp_line
                  ->
                    Some i
                | _ -> None))
          unmatched None
      in
      match matching with
      | Some i ->
          Hashtbl.remove unmatched i;
          incr tp
      | None -> fp_diags := d :: !fp_diags)
    diags;
  let lmissed = Hashtbl.fold (fun _ e acc -> e :: acc) unmatched [] in
  { ltp = !tp;
    lfp = List.length !fp_diags;
    lfn = List.length lmissed;
    lfp_diags = List.rev !fp_diags;
    lmissed }
