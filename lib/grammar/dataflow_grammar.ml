(* Labels of the dataflow (typestate) graph, the second program graph of the
   paper's workflow (§2.2).  Control-flow hop edges carry the FSM transfer
   function their segment applies ([Step]); the distinguished edge leaving a
   tracked allocation carries [Track] at the initial state.  The grammar is
   the left-linear closure

     Track ::= Track Step | TrackSeed

   so the engine grows object-rooted paths one control hop at a time and a
   transitive edge (alloc --Track c--> point) states: the object can reach
   this program point with code c, a state or Error at the event that first
   drove it there (see [Transfn]).  Error is final: no production leaves an
   Error fact, so a path stops at its first violation.  Composing two Steps
   is deliberately not a production: paths not anchored at an allocation
   are irrelevant, and omitting the rule keeps the closure linear in the
   reachable frontier (Graspan treats its dataflow grammar the same way). *)

type t =
  | Track of int  (* the code reached from the initial state *)
  | Step of int   (* transfer-function id of one control-flow hop *)

let equal (a : t) (b : t) = a = b
let compare = Stdlib.compare
let hash = Hashtbl.hash

let to_int = function
  | Track f -> f lsl 1
  | Step f -> (f lsl 1) lor 1

let of_int n = if n land 1 = 0 then Track (n lsr 1) else Step (n lsr 1)

(* Composition needs the transition-function registry of the property being
   checked; the engine is instantiated per run, so the registry is passed at
   graph-build time via this cell.  The cell is *domain-local*: checking
   instances run concurrently on worker domains, each building its own
   graph and registry, and a shared cell would let one instance compose
   another property's transition functions. *)
let registry_key : Transfn.registry option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_registry r = Domain.DLS.get registry_key := Some r

let get_registry () =
  match !(Domain.DLS.get registry_key) with
  | Some r -> r
  | None -> invalid_arg "Dataflow_grammar: registry not set"

let compose (a : t) (b : t) : t option =
  match (a, b) with
  | Track c, Step f -> (
      match Transfn.apply (get_registry ()) f c with
      | -1 -> None
      | c' -> Some (Track c'))
  | Track _, Track _ | Step _, (Step _ | Track _) -> None

(* Composition on the dense integer codes ([Track c] even, [Step f] odd),
   allocation-free for the engine's int-packed join loop; [-1] for "no
   production".  Two bit tests and one array read. *)
let compose_code (a : int) (b : int) : int =
  if a land 1 = 0 && b land 1 = 1 then
    match Transfn.apply (get_registry ()) (b lsr 1) (a lsr 1) with
    | -1 -> -1
    | c -> c lsl 1
  else -1

let unary (_ : t) : t list = []
let mirror (_ : t) : t option = None

let is_result = function Track _ -> true | Step _ -> false

let pp ppf = function
  | Track c -> Fmt.pf ppf "track#%d" c
  | Step f -> Fmt.pf ppf "step#%d" f

let to_string l = Fmt.str "%a" pp l
