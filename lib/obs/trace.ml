(* Chrome trace_event emission (see trace.mli).

   Events are rendered to JSON strings at record time and buffered:
   rendering is cheap, and holding strings avoids keeping arbitrary caller
   data alive.  The program records from one thread of control per
   process, so every event carries tid 0.  The file is written once at
   [stop].  The trace_event format does not require events to be sorted,
   so the buffer is dumped in (reversed) arrival order. *)

type arg = Str of string | Int of int | Float of float | Bool of bool

type sink = { path : string; mutable events : string list; mutable n : int }

let current : sink option ref = ref None

let is_on () = Option.is_some !current

let start ~path = current := Some { path; events = []; n = 0 }

let n_events () = match !current with Some s -> s.n | None -> 0

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_arg = function
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Int n -> string_of_int n
  | Float x -> Printf.sprintf "%.6f" x
  | Bool b -> if b then "true" else "false"

let render_args = function
  | [] -> ""
  | args ->
      let fields =
        List.map
          (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (render_arg v))
          args
      in
      Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)

let now_us () = Unix.gettimeofday () *. 1e6

(* [ts] and [dur] in microseconds; [dur] only for complete ("X") events. *)
let render ~ph ~cat ~args ~ts ?dur name =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.1f%s,\"pid\":%d,\"tid\":0%s}"
    (json_escape name) (json_escape cat) ph ts
    (match dur with Some d -> Printf.sprintf ",\"dur\":%.1f" d | None -> "")
    (Unix.getpid ())
    (render_args args)

let record ev =
  match !current with
  | Some s ->
      s.events <- ev :: s.events;
      s.n <- s.n + 1
  | None -> ()

let instant ?(cat = "grapple") ?(args = []) name =
  if is_on () then record (render ~ph:"i" ~cat ~args ~ts:(now_us ()) name)

let with_span ?(cat = "grapple") ?(args = []) name f =
  if not (is_on ()) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let dur = now_us () -. t0 in
        record (render ~ph:"X" ~cat ~args ~ts:t0 ~dur name))
      f
  end

let stop () =
  let s = !current in
  current := None;
  match s with
  | None -> ()
  | Some s ->
      let oc = open_out s.path in
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i ev ->
          if i > 0 then output_char oc ',';
          output_string oc ev)
        (List.rev s.events);
      output_string oc "],\"displayTimeUnit\":\"ms\"}";
      close_out oc
