(* Labels and composition rules of the Sridharan-Bodik pointer analysis the
   paper uses (Figure 4), binarized for the edge-pair-centric engine.

   Edges point in the direction of value flow:
     x = new O()   gives   o --New-->     x
     x = y         gives   y --Assign-->  x
     x.f = y       gives   y --Store f--> x
     x = y.f       gives   y --Load f-->  x

   Grammar (Figure 4b), in flow direction:
     flowsTo ::= new (assign | store[f] alias load[f])*
     alias   ::= flowsToBar flowsTo

   Binarized:
     FlowsTo  ::= New                    (unary)
     FlowsTo  ::= FlowsTo Assign
     FtStore f ::= FlowsTo (Store f)
     FtStAl f  ::= (FtStore f) Alias
     FlowsTo  ::= (FtStAl f) (Load f)
     FlowsToBar ::= reverse of FlowsTo   (mirror)
     Alias    ::= FlowsToBar FlowsTo                                    *)

type t =
  | New
  | Assign
  | Store of int  (* field id *)
  | Load of int
  | Flows_to
  | Flows_to_bar
  | Alias
  | Ft_store of int   (* FlowsTo . Store f *)
  | Ft_st_al of int   (* FlowsTo . Store f . Alias *)

let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare
let hash = Hashtbl.hash

(* Dense integer codes for on-disk storage: low 4 bits tag, rest field id. *)
let to_int = function
  | New -> 0
  | Assign -> 1
  | Flows_to -> 2
  | Flows_to_bar -> 3
  | Alias -> 4
  | Store f -> 5 lor (f lsl 4)
  | Load f -> 6 lor (f lsl 4)
  | Ft_store f -> 7 lor (f lsl 4)
  | Ft_st_al f -> 8 lor (f lsl 4)

let of_int n =
  match n land 0xf with
  | 0 -> New
  | 1 -> Assign
  | 2 -> Flows_to
  | 3 -> Flows_to_bar
  | 4 -> Alias
  | 5 -> Store (n lsr 4)
  | 6 -> Load (n lsr 4)
  | 7 -> Ft_store (n lsr 4)
  | 8 -> Ft_st_al (n lsr 4)
  | _ -> invalid_arg (Printf.sprintf "Pointer_grammar.of_int: %d" n)

(* Binary productions: the label of a transitive edge over a consecutive
   X-edge then Y-edge, if any. *)
let compose (a : t) (b : t) : t option =
  match (a, b) with
  | Flows_to, Assign -> Some Flows_to
  | Flows_to, Store f -> Some (Ft_store f)
  | Ft_store f, Alias -> Some (Ft_st_al f)
  | Ft_st_al f, Load g when f = g -> Some Flows_to
  | Flows_to_bar, Flows_to -> Some Alias
  | _ -> None

(* The same table on the dense integer codes, allocation-free: the engine's
   join loop works on int-packed edges and must not box labels to compose
   them.  Returns [-1] for "no production".  Field ids ride in the high
   bits, so [Store f]'s code is [5 lor (f lsl 4)] etc.; tag dispatch is on
   the low 4 bits. *)
let compose_code (a : int) (b : int) : int =
  match (a land 0xf, b land 0xf) with
  | 2, 1 -> 2                                    (* FlowsTo . Assign *)
  | 2, 5 -> 7 lor (b land lnot 0xf)              (* FlowsTo . Store f *)
  | 7, 4 -> 8 lor (a land lnot 0xf)              (* FtStore f . Alias *)
  | 8, 6 when a lsr 4 = b lsr 4 -> 2             (* FtStAl f . Load f *)
  | 3, 2 -> 4                                    (* FlowsToBar . FlowsTo *)
  | _ -> -1

(* Unary productions: labels implied by a single edge. *)
let unary (a : t) : t list = match a with New -> [ Flows_to ] | _ -> []

(* Labels whose reversal induces an edge in the opposite direction. *)
let mirror (a : t) : t option =
  match a with Flows_to -> Some Flows_to_bar | _ -> None

(* Only these labels constitute analysis results; the rest are intermediate.
   [Alias] pairs feed the dataflow phase; [Flows_to] gives points-to sets. *)
let is_result = function
  | Flows_to | Alias -> true
  | New | Assign | Store _ | Load _ | Flows_to_bar | Ft_store _ | Ft_st_al _ ->
      false

let pp ppf = function
  | New -> Fmt.string ppf "new"
  | Assign -> Fmt.string ppf "assign"
  | Store f -> Fmt.pf ppf "store[%d]" f
  | Load f -> Fmt.pf ppf "load[%d]" f
  | Flows_to -> Fmt.string ppf "flowsTo"
  | Flows_to_bar -> Fmt.string ppf "flowsToBar"
  | Alias -> Fmt.string ppf "alias"
  | Ft_store f -> Fmt.pf ppf "ftStore[%d]" f
  | Ft_st_al f -> Fmt.pf ppf "ftStAl[%d]" f

let to_string l = Fmt.str "%a" pp l
