(* Per-name totals of the complete ("X") spans in a Chrome trace file, with
   each span's self time: its duration minus the part of it that its direct
   child spans on the same pid/tid cover. *)

type span = { name : string; ts : float; dur : float; lane : int * int }

type total = { count : int; dur_s : float; self_s : float }

let of_json (j : Json.t) : span list =
  let events =
    match j with
    | Json.Obj _ -> Json.to_list (Json.member "traceEvents" j)
    | Json.Arr l -> l
    | _ -> raise (Json.Error "not a trace")
  in
  List.filter_map
    (fun ev ->
      match Json.member "ph" ev with
      | Json.Str "X" ->
          let num k = Json.to_num (Json.member k ev) in
          Some
            { name = Json.to_str (Json.member "name" ev);
              ts = num "ts";
              dur = num "dur";
              lane = (int_of_float (num "pid"), int_of_float (num "tid")) }
      | _ -> None)
    events

(* Spans nest by inclusion within a lane.  Sorting by start, longest first,
   puts every parent before its children; a stack of open spans then gives
   each span its innermost enclosing one.  Timestamps are rounded to 0.1us
   in the file, so a child may overhang its parent's end by that much. *)
let totals (spans : span list) : (string, total) Hashtbl.t =
  let out = Hashtbl.create 32 in
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace lanes s.lane
        (s :: Option.value ~default:[] (Hashtbl.find_opt lanes s.lane)))
    spans;
  let eps = 0.15 in
  Hashtbl.iter
    (fun _ lane ->
      let sorted =
        List.sort
          (fun a b ->
            match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
          lane
      in
      (* open spans, innermost first, each with the child time it covers *)
      let stack : (span * float ref) list ref = ref [] in
      let close (s, covered) =
        let prev =
          Option.value ~default:{ count = 0; dur_s = 0.; self_s = 0. }
            (Hashtbl.find_opt out s.name)
        in
        Hashtbl.replace out s.name
          { count = prev.count + 1;
            dur_s = prev.dur_s +. (s.dur /. 1e6);
            self_s = prev.self_s +. (Float.max 0. (s.dur -. !covered) /. 1e6) }
      in
      let rec pop_until ts =
        match !stack with
        | ((p, _) as top) :: rest when ts >= p.ts +. p.dur -. eps ->
            close top;
            stack := rest;
            pop_until ts
        | _ -> ()
      in
      List.iter
        (fun s ->
          pop_until s.ts;
          (match !stack with
          | (_, covered) :: _ -> covered := !covered +. s.dur
          | [] -> ());
          stack := (s, ref 0.) :: !stack)
        sorted;
      List.iter close !stack)
    lanes;
  out

let read_file path = totals (of_json (Json.read_file path))
