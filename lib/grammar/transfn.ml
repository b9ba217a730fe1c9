(* The transfer functions of the dataflow phase: interned total functions
   from the FSM states 0..n-1 to *codes*.  A code below [n] is a state; a
   code [n + k] is Error, first reached at event [k], where [k] is the
   dense index of an event statement in the order the graph build met it.
   Every control-flow edge is labelled with the function its events apply
   to the tracked object's state, and a Track fact carries the code its
   path has reached.

   An error code is final: composition keeps it, so a composed function
   names, for each incoming state, the first event that errs, and applying
   any function to an error code yields nothing.  A code depends only on
   the build's order, never on a cache or on what a join composed, so it
   means the same in every process that builds the same graph.  Identity
   is always id 0. *)

type registry = {
  n_states : int;
  mutable table : int array;  (* [id * n_states + state] -> code *)
  mutable count : int;
  mutable n_events : int;
  index : (int array, int) Hashtbl.t;
}

let intern (r : registry) (vec : int array) : int =
  if Array.length vec <> r.n_states then
    invalid_arg "Transfn.intern: wrong arity";
  match Hashtbl.find_opt r.index vec with
  | Some id -> id
  | None ->
      let id = r.count and n = r.n_states in
      if (id + 1) * n > Array.length r.table then begin
        let bigger = Array.make (2 * (id + 1) * n) 0 in
        Array.blit r.table 0 bigger 0 (id * n);
        r.table <- bigger
      end;
      Array.blit vec 0 r.table (id * n) n;
      Hashtbl.replace r.index (Array.copy vec) id;
      r.count <- id + 1;
      id

let create ~n_states =
  let r =
    { n_states; table = [||]; count = 0; n_events = 0;
      index = Hashtbl.create 64 }
  in
  ignore (intern r (Array.init n_states Fun.id) : int);
  r

let identity_id = 0

(* The function of the build's next event statement: [vec] maps each state
   to the event's successor, and a transition into [error] becomes Error
   at this event. *)
let event (r : registry) ~error (vec : int array) : int =
  let k = r.n_events in
  r.n_events <- k + 1;
  intern r (Array.map (fun s -> if s = error then r.n_states + k else s) vec)

let is_error (r : registry) code = code >= r.n_states

(* The event index an error code names. *)
let error_event (r : registry) code = code - r.n_states

(* The code function [f] leads code [c] to; [-1] when [c] is an error. *)
let apply (r : registry) f c =
  if c >= r.n_states then -1 else r.table.((f * r.n_states) + c)

let vector (r : registry) id = Array.sub r.table (id * r.n_states) r.n_states

(* compose f-then-g: the function applying f first, then g, keeping the
   first error. *)
let compose (r : registry) f g =
  intern r
    (Array.init r.n_states (fun s ->
         let c = apply r f s in
         if is_error r c then c else apply r g c))
