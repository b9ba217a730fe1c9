(* A fixed-capacity LRU map used for constraint memoization (§4.3,
   "Constraint Memoization").  Implemented as a hash table over an intrusive
   doubly-linked recency list; all operations are O(1). *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable size : int;
  mutable evictions : int;
}

(* The table starts small and grows with use: an engine keeps two caches,
   and most engines decide only a few hundred distinct paths, so a table
   sized for the capacity would be mostly empty buckets. *)
let create capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Hashtbl.create (min capacity 64); head = None;
    tail = None; size = 0; evictions = 0 }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  if t.tail = None then t.tail <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
      unlink t node;
      push_front t node;
      Some node.value

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key;
      t.size <- t.size - 1;
      t.evictions <- t.evictions + 1

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node
  | None ->
      if t.size >= t.capacity then evict_lru t;
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node;
      t.size <- t.size + 1

let size t = t.size
let capacity t = t.capacity
let evictions t = t.evictions

(* Reset to the empty state, *including* the eviction tally: a cleared
   cache starts a fresh accounting epoch, so per-run stats never inherit
   another run's evictions. *)
let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.size <- 0;
  t.evictions <- 0

(* Keys from most to least recently used; for tests. *)
let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head
