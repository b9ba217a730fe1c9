(* Open-addressing hash tables from three-int keys to non-negative ints, in
   the style of [Engine.Edgeindex.Keys]: one flat array, linear probing, no
   boxed key and no allocation per lookup.  A slot is four words — the key,
   then the value, [-1] in an empty slot — so one probe reads one cache
   line.  The dataflow graph builder numbers its points and memoizes its
   seed encodings with them. *)

type t = {
  mutable slots : int array;  (* slot s: a, b, c, value at [4s .. 4s+3] *)
  mutable used : int;         (* occupied slots *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let empty cap =
  let slots = Array.make (4 * cap) 0 in
  for s = 0 to cap - 1 do
    slots.((4 * s) + 3) <- -1
  done;
  slots

let create n = { slots = empty (pow2_at_least (2 * n) 16); used = 0 }

(* Multiply-xorshift mix: the low bits (the slot) depend on every input
   bit. *)
let hash a b c =
  let h = a + (b * 0x1f3d5b79) + (c * 0x2c1b3c6d) in
  let h = h * 0x9e3779b97f4a7c1 in
  h lxor (h lsr 29)

(* The offset of the slot holding key (a, b, c), or of the empty slot where
   it would go. *)
let slot (slots : int array) a b c =
  let mask = (Array.length slots / 4) - 1 in
  let s = ref (4 * (hash a b c land mask)) in
  while
    slots.(!s + 3) >= 0
    && not (slots.(!s) = a && slots.(!s + 1) = b && slots.(!s + 2) = c)
  do
    s := 4 * (((!s / 4) + 1) land mask)
  done;
  !s

(* The value bound to (a, b, c), or [-1]. *)
let find t a b c = t.slots.(slot t.slots a b c + 3)

let set slots s a b c v =
  slots.(s) <- a;
  slots.(s + 1) <- b;
  slots.(s + 2) <- c;
  slots.(s + 3) <- v

let grow t =
  let old = t.slots in
  let slots = empty (Array.length old / 2) in
  for s = 0 to (Array.length old / 4) - 1 do
    let o = 4 * s in
    if old.(o + 3) >= 0 then begin
      let a = old.(o) and b = old.(o + 1) and c = old.(o + 2) in
      set slots (slot slots a b c) a b c old.(o + 3)
    end
  done;
  t.slots <- slots

(* The value bound to (a, b, c), binding [v >= 0] first when there is
   none: one probe either way. *)
let find_or_add t a b c v =
  let s = slot t.slots a b c in
  let cur = t.slots.(s + 3) in
  if cur >= 0 then cur
  else begin
    set t.slots s a b c v;
    t.used <- t.used + 1;
    if 8 * t.used > Array.length t.slots then grow t;
    v
  end

(* Unbind every key, keeping the slots. *)
let clear t =
  for s = 0 to (Array.length t.slots / 4) - 1 do
    t.slots.((4 * s) + 3) <- -1
  done;
  t.used <- 0
