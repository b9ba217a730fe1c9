(* Flat int-packed edge buffer (ISSUE 10).

   Edges live in a [Bigarray] of native ints as fixed-width 4-word records

     src | dst | label-code | encoding-ref

   in insertion order, so the hot join loop touches contiguous unboxed
   memory instead of chasing list spines and boxed records.  Path encodings
   are interned in a side pool keyed by their canonical [Encoding] wire
   bytes: the encoding-ref field is an index into the pool, two edges with
   structurally equal encodings share one pool slot, and decoding back to
   the structured [Encoding.t] happens lazily, once per distinct encoding.

   The buffer is also the unit of I/O: [Storage] serializes the edge words
   and the pool directly from/to this representation, so the bytes on disk
   are the bytes in memory modulo fixed-width framing. *)

module Encoding = Pathenc.Encoding

type t = {
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable n : int;  (* edges *)
  mutable pool : string array;            (* enc id -> canonical wire bytes *)
  mutable decoded : Encoding.t option array;  (* enc id -> lazy decode *)
  mutable canon : int array;  (* enc id -> first id with the same bytes *)
  mutable pool_n : int;
  pool_tbl : (string, int) Hashtbl.t;     (* wire bytes -> enc id *)
}

let stride = 4

let alloc words =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max words stride)

let create ?(capacity = 256) () =
  { data = alloc (capacity * stride);
    n = 0;
    pool = Array.make 64 "";
    decoded = Array.make 64 None;
    canon = Array.make 64 0;
    pool_n = 0;
    pool_tbl = Hashtbl.create 64 }

let n t = t.n
let pool_size t = t.pool_n

let src t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 0)
let dst t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 1)
let label t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 2)
let enc_id t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 3)

let enc_bytes t id = t.pool.(id)

(* Canonical representative of a pool slot: the first slot holding the same
   bytes.  Slots made by [intern_bytes] are their own canon; [pool_append]
   (file loading) may create byte-equal duplicates, which all map to the
   first occurrence.  Keying membership sets by [canon] therefore makes
   "same (src, dst, label, encoding)" a pure int comparison. *)
let canon t id = t.canon.(id)

(* The interned id the given wire bytes would resolve to, without
   interning: [None] means the bytes occur nowhere in this buffer's pool. *)
let find_bytes t (bytes : string) : int option = Hashtbl.find_opt t.pool_tbl bytes

(* Decode an interned encoding, caching the structured value per pool slot
   so each distinct encoding is decoded at most once per buffer. *)
let enc t id =
  match t.decoded.(id) with
  | Some e -> e
  | None ->
      let e = Encoding.of_bytes t.pool.(id) in
      t.decoded.(id) <- Some e;
      e

let grow_pool t =
  let cap = Array.length t.pool in
  let pool' = Array.make (2 * cap) "" in
  Array.blit t.pool 0 pool' 0 cap;
  t.pool <- pool';
  let dec' = Array.make (2 * cap) None in
  Array.blit t.decoded 0 dec' 0 cap;
  t.decoded <- dec';
  let can' = Array.make (2 * cap) 0 in
  Array.blit t.canon 0 can' 0 cap;
  t.canon <- can'

(* Intern canonical wire bytes; [?decoded] primes the decode cache when the
   caller already holds the structured value. *)
let intern_bytes ?decoded t (bytes : string) : int =
  match Hashtbl.find_opt t.pool_tbl bytes with
  | Some id ->
      (match (decoded, t.decoded.(id)) with
      | Some e, None -> t.decoded.(id) <- Some e
      | _ -> ());
      id
  | None ->
      let id = t.pool_n in
      if id = Array.length t.pool then grow_pool t;
      t.pool.(id) <- bytes;
      t.decoded.(id) <- decoded;
      t.canon.(id) <- id;
      t.pool_n <- id + 1;
      Hashtbl.replace t.pool_tbl bytes id;
      id

let intern t (e : Encoding.t) : int =
  intern_bytes ~decoded:e t (Encoding.to_bytes e)

(* Append raw pool bytes *without* dedup, so ids always equal file order:
   used by [Storage.read_flat], whose writer deduplicates anyway.  A
   crafted file with duplicate pool entries still round-trips, because
   every edge keeps the id it was written with. *)
let pool_append t (bytes : string) : int =
  let id = t.pool_n in
  if id = Array.length t.pool then grow_pool t;
  t.pool.(id) <- bytes;
  t.decoded.(id) <- None;
  t.pool_n <- id + 1;
  (match Hashtbl.find_opt t.pool_tbl bytes with
  | Some first -> t.canon.(id) <- first
  | None ->
      t.canon.(id) <- id;
      Hashtbl.replace t.pool_tbl bytes id);
  id

let push t ~src ~dst ~label ~enc_id =
  let need = (t.n + 1) * stride in
  if need > Bigarray.Array1.dim t.data then begin
    let data' = alloc (2 * Bigarray.Array1.dim t.data) in
    Bigarray.Array1.blit t.data (Bigarray.Array1.sub data' 0 (Bigarray.Array1.dim t.data));
    t.data <- data'
  end;
  let base = t.n * stride in
  Bigarray.Array1.unsafe_set t.data (base + 0) src;
  Bigarray.Array1.unsafe_set t.data (base + 1) dst;
  Bigarray.Array1.unsafe_set t.data (base + 2) label;
  Bigarray.Array1.unsafe_set t.data (base + 3) enc_id;
  t.n <- t.n + 1

(* Convenience push for callers holding a structured encoding. *)
let push_edge t ~src ~dst ~label (e : Encoding.t) =
  push t ~src ~dst ~label ~enc_id:(intern t e)

let iter t f =
  for i = 0 to t.n - 1 do
    f ~src:(src t i) ~dst:(dst t i) ~label:(label t i) ~enc_id:(enc_id t i)
  done
