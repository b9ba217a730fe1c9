(* Global interning of variable names.  Terms and formulas refer to
   variables by dense integer ids, which keeps linear-expression operations
   and hashing cheap; the table maps back to names for printing.

   The table is process-wide, and the interprocedural analyses may run in
   two domains at once (a test runs them so), so all access is serialized
   by a mutex.  The critical sections are a hashtable probe or an array
   slot read — far off every hot path, which works on already-interned
   dense ids. *)

type t = int

let lock = Mutex.create ()
let names : (string, int) Hashtbl.t = Hashtbl.create 1024
let table : string array ref = ref (Array.make 1024 "")
let next = ref 0

let intern (name : string) : t =
  Mutex.lock lock;
  let id =
    match Hashtbl.find_opt names name with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        if id >= Array.length !table then begin
          let bigger = Array.make (2 * Array.length !table) "" in
          Array.blit !table 0 bigger 0 (Array.length !table);
          table := bigger
        end;
        !table.(id) <- name;
        Hashtbl.replace names name id;
        id
  in
  Mutex.unlock lock;
  id

let name (id : t) : string =
  Mutex.lock lock;
  let n =
    if id < 0 || id >= !next then Printf.sprintf "?%d" id else !table.(id)
  in
  Mutex.unlock lock;
  n

(* Fresh symbol guaranteed not to collide with interned names. *)
let fresh_counter = Atomic.make 0

let fresh prefix =
  intern (Printf.sprintf "%s$%d" prefix (1 + Atomic.fetch_and_add fresh_counter 1))

let pp ppf id = Fmt.string ppf (name id)
