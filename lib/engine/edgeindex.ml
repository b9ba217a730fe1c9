(* Flat join indexes over the positions of an [Edgebuf].

   Two append-only int structures answer every lookup the join makes, so
   no pair or superstep sorts, merges, or allocates a boxed key:

   - [Keys], one open-addressing table keyed by (src, dst, label), answers
     "is this edge already here?" and "how many encodings does its key
     hold?".  A slot stores the key's newest position and its count in one
     word; the per-position [older] link chains the positions of one key,
     newest first.  Membership walks that chain comparing canonical pool ids
     ([Edgebuf.canon]), so it visits at most [count] positions — the
     witness cap bounds every walk.

   - [Chains] links every position to the next position with the same src
     and the next with the same dst.  Head and tail arrays cover vertex
     intervals: src keys always lie in the partition's own [lo, hi), and
     dst keys are only chained when they fall in one of the current pair's
     two intervals, because the join looks up dst values that are sources
     of loaded edges and nothing else.  Appends go to the tail, so a chain
     lists positions in ascending order, and "settled vs delta" is just a
     position bound on the walk.

   Walkers must re-read the link arrays after every callback: an insert
   made from inside a walk may grow (reallocate) them. *)

let none = -1

let grow (a : int array) ~need =
  if need <= Array.length a then a
  else begin
    let a' = Array.make (max need (2 * Array.length a)) none in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* ---------------- key table ---------------- *)

module Keys = struct
  (* A slot packs its key's newest position (low 32 bits) and the key's
     count (the bits above) into one word; [none] marks an empty slot.
     Positions index a buffer, which never nears 2^32 records. *)
  type t = {
    mutable slots : int array;
    mutable used : int;         (* occupied slots *)
    mutable older : int array;  (* position -> next older position, same key *)
  }

  let pos_mask = (1 lsl 32) - 1
  let one = 1 lsl 32  (* a count of one, in slot encoding *)

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

  let create n =
    { slots = Array.make (pow2_at_least (2 * n) 16) none;
      used = 0;
      older = Array.make (max 16 n) none }

  (* Forget every key, keeping the arrays for reuse. *)
  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) none;
    t.used <- 0

  (* Multiply-xorshift mix: the low bits (the slot) depend on every input
     bit. *)
  let hash src dst label =
    let h = src + (dst * 0x1f3d5b79) + (label * 0x2c1b3c6d) in
    let h = h * 0x9e3779b97f4a7c1 in
    h lxor (h lsr 29)

  let slot_of (slots : int array) buf ~src ~dst ~label =
    let mask = Array.length slots - 1 in
    let s = ref (hash src dst label land mask) in
    let e = ref (Array.unsafe_get slots !s) in
    while
      !e <> none
      &&
      let p = !e land pos_mask in
      not
        (Edgebuf.src buf p = src && Edgebuf.dst buf p = dst
        && Edgebuf.label buf p = label)
    do
      s := (!s + 1) land mask;
      e := Array.unsafe_get slots !s
    done;
    !s

  (* The slot holding key (src, dst, label), or the empty slot [add] would
     fill.  Valid until the next [add]. *)
  let find t buf ~src ~dst ~label = slot_of t.slots buf ~src ~dst ~label

  let count t slot =
    let e = t.slots.(slot) in
    if e = none then 0 else e lsr 32

  (* Whether the slot's key holds an encoding with canonical pool id [cid]. *)
  let mem t buf slot cid =
    let e = t.slots.(slot) in
    let p = ref (if e = none then none else e land pos_mask) in
    while !p <> none && Edgebuf.canon buf (Edgebuf.enc_id buf !p) <> cid do
      p := t.older.(!p)
    done;
    !p <> none

  let rehash t buf =
    let slots = Array.make (2 * Array.length t.slots) none in
    Array.iter
      (fun e ->
        if e <> none then begin
          let p = e land pos_mask in
          slots.(slot_of slots buf ~src:(Edgebuf.src buf p)
                   ~dst:(Edgebuf.dst buf p) ~label:(Edgebuf.label buf p)) <- e
        end)
      t.slots;
    t.slots <- slots

  (* Register position [p], whose key is the one [slot] was found for. *)
  let add t buf slot p =
    t.older <- grow t.older ~need:(p + 1);
    let e = t.slots.(slot) in
    if e <> none then begin
      t.older.(p) <- e land pos_mask;
      t.slots.(slot) <- (((e lsr 32) + 1) lsl 32) lor p
    end
    else begin
      t.older.(p) <- none;
      t.slots.(slot) <- p lor one;
      t.used <- t.used + 1;
      if 2 * t.used > Array.length t.slots then rehash t buf
    end

  (* Index positions [0, n) of [buf], skipping exact duplicates of an
     already indexed edge; true when there was one. *)
  let build t buf =
    let dup = ref false in
    for p = 0 to Edgebuf.n buf - 1 do
      let slot =
        find t buf ~src:(Edgebuf.src buf p) ~dst:(Edgebuf.dst buf p)
          ~label:(Edgebuf.label buf p)
      in
      if mem t buf slot (Edgebuf.canon buf (Edgebuf.enc_id buf p)) then
        dup := true
      else add t buf slot p
    done;
    !dup
end

(* ---------------- per-vertex chains ---------------- *)

module Chains = struct
  type t = {
    mutable next_src : int array;  (* position -> next position, same src *)
    mutable next_dst : int array;  (* position -> next position, same dst *)
    mutable src_head : int array;  (* src - lo -> first position *)
    mutable src_tail : int array;
    mutable dst_head : int array;  (* dst's offset in the pair's intervals *)
    mutable dst_tail : int array;
    mutable lo : int;  (* src keys: [lo, lo + width) *)
    mutable lo1 : int;
    mutable hi1 : int;
    mutable lo2 : int;
    mutable hi2 : int;  (* dst keys: [lo1, hi1) then [lo2, hi2) *)
  }

  let create n =
    { next_src = Array.make (max 16 n) none;
      next_dst = Array.make (max 16 n) none;
      src_head = [||]; src_tail = [||]; dst_head = [||]; dst_tail = [||];
      lo = 0; lo1 = 0; hi1 = 0; lo2 = 0; hi2 = 0 }

  let dst_key c v =
    if v >= c.lo1 && v < c.hi1 then v - c.lo1
    else if v >= c.lo2 && v < c.hi2 then c.hi1 - c.lo1 + (v - c.lo2)
    else none

  (* Link position [p] (the newest) at the tail of its chains. *)
  let append c buf p =
    if p >= Array.length c.next_src then begin
      c.next_src <- grow c.next_src ~need:(p + 1);
      c.next_dst <- grow c.next_dst ~need:(p + 1)
    end;
    c.next_src.(p) <- none;
    c.next_dst.(p) <- none;
    let s = Edgebuf.src buf p - c.lo in
    let tail = c.src_tail.(s) in
    if tail = none then c.src_head.(s) <- p else c.next_src.(tail) <- p;
    c.src_tail.(s) <- p;
    let d = dst_key c (Edgebuf.dst buf p) in
    if d <> none then begin
      let tail = c.dst_tail.(d) in
      if tail = none then c.dst_head.(d) <- p else c.next_dst.(tail) <- p;
      c.dst_tail.(d) <- p
    end

  let reset (a : int array) width =
    let a = if Array.length a < width then Array.make width none else a in
    Array.fill a 0 width none;
    a

  (* Rebuild every chain of [buf] for a partition owning sources [lo, hi)
     joined in a pair whose intervals are [lo1, hi1) and [lo2, hi2) (an
     empty second interval for a partition paired with itself): one linear
     pass, reusing the arrays when they are large enough. *)
  let rebuild c buf ~lo ~hi ~lo1 ~hi1 ~lo2 ~hi2 =
    c.lo <- lo;
    c.lo1 <- lo1;
    c.hi1 <- hi1;
    c.lo2 <- lo2;
    c.hi2 <- hi2;
    c.src_head <- reset c.src_head (hi - lo);
    c.src_tail <- reset c.src_tail (hi - lo);
    let dst_width = hi1 - lo1 + (hi2 - lo2) in
    c.dst_head <- reset c.dst_head dst_width;
    c.dst_tail <- reset c.dst_tail dst_width;
    for p = 0 to Edgebuf.n buf - 1 do
      append c buf p
    done

  (* Walk starts and steps.  [v] must lie in [lo, hi) for [first_src]; a dst
     outside the pair's intervals has an empty chain. *)
  let first_src c v = c.src_head.(v - c.lo)
  let next_src c p = c.next_src.(p)

  let first_dst c v =
    let d = dst_key c v in
    if d = none then none else c.dst_head.(d)

  let next_dst c p = c.next_dst.(p)
end
