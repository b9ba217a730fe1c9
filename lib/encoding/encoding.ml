(* Interval-based path encodings (paper §3 and §4.2).

   A path through the ICFET is encoded as a sequence of elements: intervals
   [a, b] of CFET node ids within one method, separated by call/return edge
   ids.  Each program-graph edge carries such a sequence instead of a boolean
   formula; the sequence is decoded against the in-memory ICFET only when a
   constraint has to be solved.

   The composition rules implemented by [compose]/[normalize] are the four
   cases of §4.2, generalized in two ways needed to run the full alias
   grammar: sequences may already contain several call/return segments, and
   an element may be a [Rev] wrapper around a forward path.  [Rev] appears on
   flowsToBar edges: the reverse of a flowsTo edge traverses the same ICFET
   path backwards, contributes exactly the same branch constraints, but
   must not fuse interval-wise with its neighbours.  Constraint extraction
   recurses through [Rev]; fusion treats it as an opaque segment whose entry
   point is the exit of the wrapped path and vice versa. *)

type element =
  | Interval of { meth : int; first : int; last : int }
      (* CFET node-id interval [first, last] inside method [meth]; [first]
         is an ancestor of [last] in the method's CFET. *)
  | Call of int  (* ICFET call-edge id: an unmatched "(_i" *)
  | Ret of int   (* ICFET return-edge id: an unmatched ")_i" *)
  | Rev of element list  (* the wrapped path, traversed backwards *)
  | Aux of element list
      (* constraint-only fragment: a path whose feasibility must hold
         together with this one (e.g. the value-flow path that makes an
         event's receiver alias the tracked object); no endpoints *)

type t = element list

let empty : t = []

let interval ~meth ~first ~last = [ Interval { meth; first; last } ]

let call id = [ Call id ]
let ret id = [ Ret id ]
let rev (t : t) : t = [ Rev t ]
let aux (t : t) : t = [ Aux t ]

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (a : t) = Hashtbl.hash a

let rec pp_element ppf = function
  | Interval { meth; first; last } -> Fmt.pf ppf "[m%d:%d,%d]" meth first last
  | Call id -> Fmt.pf ppf "(%d" id
  | Ret id -> Fmt.pf ppf ")%d" id
  | Rev els ->
      Fmt.pf ppf "rev<%a>" (Fmt.list ~sep:(Fmt.any " ") pp_element) els
  | Aux els ->
      Fmt.pf ppf "aux<%a>" (Fmt.list ~sep:(Fmt.any " ") pp_element) els

let pp ppf (t : t) =
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any " ") pp_element) t

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* Endpoints.  The entry (exit) point of a path is the CFET node the     *)
(* path starts (ends) at, when statically determinable.                *)
(* ------------------------------------------------------------------ *)

let rec element_entry = function
  | Interval { meth; first; _ } -> Some (meth, first)
  | Call _ | Ret _ | Aux _ -> None
  | Rev els -> exit_point els

and element_exit = function
  | Interval { meth; last; _ } -> Some (meth, last)
  | Call _ | Ret _ | Aux _ -> None
  | Rev els -> entry_point els

and entry_point = function [] -> None | el :: _ -> element_entry el

and exit_point t =
  match List.rev t with [] -> None | el :: _ -> element_exit el

(* ------------------------------------------------------------------ *)
(* Composition (§4.2).                                                 *)
(* ------------------------------------------------------------------ *)

exception Incomposable

(* Cancel matched call/return pairs: { ... [a,b] (i [e,l] )i [b,c] ... }
   becomes { ... [a,c] ... } (case 3 of §4.2).  Matching is on call-site
   ids; reversed segments are opaque.  A path with nothing to cancel comes
   back as it is, unallocated. *)
let rec normalize (t : t) : t =
  let rec pass = function
    | Interval a :: Call i :: Interval _ :: Ret j :: Interval b :: rest
      when i = j && a.meth = b.meth && a.last = b.first ->
        Some
          (Interval { meth = a.meth; first = a.first; last = b.last } :: rest)
    | [] -> None
    | e :: rest -> (
        match pass rest with Some rest -> Some (e :: rest) | None -> None)
  in
  match pass t with Some t -> normalize t | None -> t

(* Compose the encodings of two consecutive edges.  Adjacent forward
   intervals in the same method fuse when the first ends at the node the
   second starts from (case 1); other junctions concatenate (cases 2 and 4)
   after an endpoint sanity check; [normalize] then performs the call/return
   cancellation of case 3.  Raises [Incomposable] when the junction endpoints
   are both known and disagree, which the engine treats as "no transitive
   edge". *)
let compose (x : t) (y : t) : t =
  match (x, y) with
  | [], _ -> y
  | _, [] -> x
  | _ -> (
      let rx = List.rev x in
      match (rx, y) with
      | Interval a :: rx_tl, Interval b :: y_tl
        when a.meth = b.meth && a.last = b.first ->
          List.rev_append rx_tl
            (Interval { meth = a.meth; first = a.first; last = b.last } :: y_tl)
      | last_x :: _, first_y :: _ -> (
          match (element_exit last_x, element_entry first_y) with
          | Some p, Some q when p <> q -> raise Incomposable
          | _ -> x @ y)
      | _ -> x @ y)

let compose_normalized x y = normalize (compose x y)

(* Unmatched call ids at top level, outermost first: the calling context the
   encoding is suspended in. *)
let pending_calls (t : t) : int list =
  let rec go stack = function
    | [] -> List.rev stack
    | Call i :: rest -> go (i :: stack) rest
    | Ret _ :: rest -> (
        match stack with _ :: tl -> go tl rest | [] -> go [] rest)
    | (Interval _ | Rev _ | Aux _) :: rest -> go stack rest
  in
  go [] t

let rec n_elements (t : t) =
  List.fold_left
    (fun acc el ->
      acc
      + match el with Rev els | Aux els -> 1 + n_elements els | _ -> 1)
    0 t

let length = List.length

(* ------------------------------------------------------------------ *)
(* Binary serialization for the disk-based engine.                     *)
(* Layout: varint element count, then per element a tag byte + varints. *)
(* ------------------------------------------------------------------ *)

let add_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  if n < 0 then invalid_arg "Encoding.add_varint: negative";
  go n

let read_varint (bytes : Bytes.t) (pos : int ref) : int =
  let rec go shift acc =
    let b = Char.code (Bytes.get bytes !pos) in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let rec write (buf : Buffer.t) (t : t) =
  add_varint buf (List.length t);
  List.iter
    (fun el ->
      match el with
      | Interval { meth; first; last } ->
          Buffer.add_char buf '\000';
          add_varint buf meth;
          add_varint buf first;
          add_varint buf last
      | Call id ->
          Buffer.add_char buf '\001';
          add_varint buf id
      | Ret id ->
          Buffer.add_char buf '\002';
          add_varint buf id
      | Rev els ->
          Buffer.add_char buf '\003';
          write buf els
      | Aux els ->
          Buffer.add_char buf '\004';
          write buf els)
    t

let rec read (bytes : Bytes.t) (pos : int ref) : t =
  let n = read_varint bytes pos in
  let rec go k acc =
    if k = 0 then List.rev acc
    else begin
      let tag = Bytes.get bytes !pos in
      incr pos;
      let el =
        match tag with
        | '\000' ->
            let meth = read_varint bytes pos in
            let first = read_varint bytes pos in
            let last = read_varint bytes pos in
            Interval { meth; first; last }
        | '\001' -> Call (read_varint bytes pos)
        | '\002' -> Ret (read_varint bytes pos)
        | '\003' -> Rev (read bytes pos)
        | '\004' -> Aux (read bytes pos)
        | c -> invalid_arg (Printf.sprintf "Encoding.read: bad tag %C" c)
      in
      go (k - 1) (el :: acc)
    end
  in
  go n []

let to_bytes (t : t) : string =
  let buf = Buffer.create 16 in
  write buf t;
  Buffer.contents buf

let of_bytes (s : string) : t =
  let pos = ref 0 in
  read (Bytes.unsafe_of_string s) pos
