(* On-disk edge storage for partitions — format 2 (flat blocks).

   A partition file is a flat sequence of self-validating records:

     varint payload-length | payload | varint FNV-1a-32(payload)

   where each payload is one *block*:

     'P' | varint count | count x (varint len | encoding wire bytes)
     'E' | varint count | count x (src, dst, label, enc-ref as int64 LE)

   Pool blocks ('P') carry the interned path-encoding pool of an
   [Edgebuf.t]; pool ids are assigned in file order across all pool blocks.
   Edge blocks ('E') carry fixed-width 4-word edge records referencing pool
   ids — the same packed layout the in-memory [Edgebuf] uses, so both
   directions move machine words: the writer stores each field as one
   64-bit little-endian word into a single buffer sized up front, and
   checksums every payload where it lies; the reader slurps the file once
   and parses it in place, loading each field as one 64-bit word.  The
   engine's access pattern is strictly sequential (paper §4.3: "most edge
   accesses are sequential").  Words are little-endian on every host.

   Crash safety:
   - every write replaces the whole file through write-temp-then-rename, so
     a crash at any instant leaves either the old file or the new file, never
     a torn mixture;
   - [read_flat] never raises on damaged data: every block is parsed in
     place, bounded by its length prefix, the checksum catches bit damage,
     a block whose contents are invalid (a count its payload cannot hold,
     a pool id that never validated, a negative field) is rejected whole,
     and the result carries the longest valid prefix of blocks plus a typed
     corruption marker, so the engine can fall back to the last checkpoint
     instead of dying mid-parse.  Recovery is block-granular: damage loses
     at most the tail from the first damaged block onward.

   All operations pass through the [Faults] hooks so a seeded fault plan can
   deterministically fail, truncate, or crash them. *)


type corruption =
  | Truncated of int          (* byte offset of the torn trailing block *)
  | Checksum_mismatch of int  (* byte offset of the damaged block *)
  | Malformed of int
      (* byte offset of a block whose checksum holds but whose contents
         are not a valid block *)

(* The result of reading a file into a flat buffer: the longest prefix of
   intact blocks (all of them when [corrupt = None]) and the file's size in
   bytes. *)
type flat_outcome = {
  buf : Edgebuf.t;
  bytes : int;
  corrupt : corruption option;
}

let pp_corruption ppf = function
  | Truncated off -> Fmt.pf ppf "truncated record at byte %d" off
  | Checksum_mismatch off -> Fmt.pf ppf "checksum mismatch at byte %d" off
  | Malformed off -> Fmt.pf ppf "malformed block at byte %d" off

(* FNV-1a, 32-bit.  The low 32 bits of a product depend only on the low 32
   bits of its factors, so the hash is reduced once, at the end. *)
let fnv32 (b : Bytes.t) ~pos ~len =
  let h = ref 0x811C9DC5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193
  done;
  !h land 0xFFFFFFFF

let checksum_string (s : string) : int =
  fnv32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Edges per block: recovery granularity.  Small enough that damage loses a
   bounded tail, large enough that framing overhead stays negligible. *)
let default_block_cap = 512

(* Bytes per edge record: four 64-bit words. *)
let record_bytes = 32

(* One 64-bit little-endian word, loaded or stored whole.  The callers
   bound every offset, so the accesses skip the bounds check; the values
   stay unboxed.  Loading truncates to 63 bits, as [Int64.to_int] does: an
   out-of-range top byte surfaces as a negative field and fails the record
   checks. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let get_word b off =
  let w = get64u b off in
  Int64.to_int (if Sys.big_endian then bswap64 w else w)

let set_word b off v =
  let w = Int64.of_int v in
  set64u b off (if Sys.big_endian then bswap64 w else w)

(* The bytes [Encoding.add_varint] takes for [n >= 0]. *)
let varint_size n =
  let rec go n k = if n < 0x80 then k else go (n lsr 7) (k + 1) in
  go n 1

(* [Encoding.add_varint] into [b] at [pos]; returns the position after. *)
let rec put_varint b pos n =
  if n < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    put_varint b (pos + 1) (n lsr 7)
  end

(* A varint inside [[!pos, limit)]; raises [Exit] when it runs past
   [limit] or past the nine bytes a 63-bit value needs. *)
let read_varint_in b pos ~limit =
  let rec go shift acc =
    if !pos >= limit || shift > 56 then raise Exit;
    let c = Char.code (Bytes.unsafe_get b !pos) in
    incr pos;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

(* Payload length of the pool block holding entries [i, i + count). *)
let pool_payload eb i count =
  let len = ref (1 + varint_size count) in
  for k = i to i + count - 1 do
    let n = String.length (Edgebuf.enc_bytes eb k) in
    len := !len + varint_size n + n
  done;
  !len

let edge_payload count = 1 + varint_size count + (count * record_bytes)

(* Serialize an [Edgebuf.t], pool blocks first, then edge blocks, into one
   buffer; returns it and the bytes used.  The buffer is sized from the
   exact payload lengths, with five bytes reserved for each checksum varint
   (a 32-bit value), so nothing is copied or regrown on the way. *)
let encode ?(block_cap = default_block_cap) (eb : Edgebuf.t) : Bytes.t * int =
  let np = Edgebuf.pool_size eb and ne = Edgebuf.n eb in
  let record plen = varint_size plen + plen + 5 in
  let size = ref 0 in
  let i = ref 0 in
  while !i < np do
    let count = min block_cap (np - !i) in
    size := !size + record (pool_payload eb !i count);
    i := !i + count
  done;
  let j = ref 0 in
  while !j < ne do
    let count = min block_cap (ne - !j) in
    size := !size + record (edge_payload count);
    j := !j + count
  done;
  let b = Bytes.create !size in
  (* frame the payload of length [plen] that [fill] writes at its start
     position, then checksum it where it lies *)
  let pos = ref 0 in
  let block plen fill =
    let start = put_varint b !pos plen in
    fill start;
    pos := put_varint b (start + plen) (fnv32 b ~pos:start ~len:plen)
  in
  let i = ref 0 in
  while !i < np do
    let count = min block_cap (np - !i) in
    block (pool_payload eb !i count) (fun start ->
        Bytes.unsafe_set b start 'P';
        let p = ref (put_varint b (start + 1) count) in
        for k = !i to !i + count - 1 do
          let s = Edgebuf.enc_bytes eb k in
          let n = String.length s in
          p := put_varint b !p n;
          Bytes.unsafe_blit_string s 0 b !p n;
          p := !p + n
        done);
    i := !i + count
  done;
  let j = ref 0 in
  while !j < ne do
    let count = min block_cap (ne - !j) in
    block (edge_payload count) (fun start ->
        Bytes.unsafe_set b start 'E';
        let p = put_varint b (start + 1) count in
        for k = !j to !j + count - 1 do
          let o = p + ((k - !j) * record_bytes) in
          set_word b o (Edgebuf.src eb k);
          set_word b (o + 8) (Edgebuf.dst eb k);
          set_word b (o + 16) (Edgebuf.label eb k);
          set_word b (o + 24) (Edgebuf.enc_id eb k)
        done);
    j := !j + count
  done;
  (b, !pos)

(* Atomically replace [path] with the first [len] bytes of [b]: write a
   sibling temp file, then rename over the target.  POSIX rename is atomic,
   so a crash leaves either the complete old contents or the complete new
   contents.  An injected torn write persists only half the temp file and
   fails — the target is untouched, and the next successful write
   overwrites the garbage temp file. *)
let atomic_write ~path (b : Bytes.t) ~len : unit =
  let tmp = path ^ ".tmp" in
  let write n =
    let oc = open_out_bin tmp in
    output oc b 0 n;
    close_out oc
  in
  Faults.on_write ~path ~tear:(fun () -> write (len / 2));
  write len;
  Faults.before_rename ~path;
  Sys.rename tmp path;
  Faults.after_rename ~path

(* Replace the file contents with the buffer's edges; returns bytes
   written. *)
let write_flat ?block_cap ~path (eb : Edgebuf.t) : int =
  let b, len = encode ?block_cap eb in
  atomic_write ~path b ~len;
  len

(* Parse the payload at [[pos, limit)] into [eb], all or nothing: a pool
   block is checked whole before its entries are appended, and an edge
   block's records are dropped again when a later one fails.  False when
   the block is invalid. *)
let parse_payload b ~pos ~limit (eb : Edgebuf.t) : bool =
  match
    let p = ref (pos + 1) in
    match Bytes.unsafe_get b pos with
    | 'P' ->
        let count = read_varint_in b p ~limit in
        (* each entry takes at least its length byte *)
        if count < 0 || count > limit - !p then raise Exit;
        let first = !p in
        for _ = 1 to count do
          let n = read_varint_in b p ~limit in
          if n < 0 || n > limit - !p then raise Exit;
          p := !p + n
        done;
        if !p <> limit then raise Exit;
        p := first;
        for _ = 1 to count do
          let n = read_varint_in b p ~limit in
          Edgebuf.pool_append eb (Bytes.sub_string b !p n);
          p := !p + n
        done
    | 'E' ->
        let count = read_varint_in b p ~limit in
        (* bounded by division: [count * record_bytes] could wrap *)
        if
          count < 0
          || count > (limit - !p) / record_bytes
          || !p + (count * record_bytes) <> limit
        then raise Exit;
        let np = Edgebuf.pool_size eb in
        let n0 = Edgebuf.n eb in
        for k = 0 to count - 1 do
          let o = !p + (k * record_bytes) in
          let src = get_word b o and dst = get_word b (o + 8) in
          let label = get_word b (o + 16) and enc_id = get_word b (o + 24) in
          if
            src < 0 || dst < 0 || label < 0 || enc_id < 0 || enc_id >= np
          then begin
            Edgebuf.truncate eb n0;
            raise Exit
          end;
          Edgebuf.push eb ~src ~dst ~label ~enc_id
        done
    | _ -> raise Exit
  with
  | () -> true
  | exception Exit -> false

(* Parse the block starting at [!pos] of the first [len] bytes of [b], in
   place, and advance past it; on damage, leave [!pos] at the block and
   say what is wrong.  Every access is bounded by the block's length
   prefix, so a lying count can never reach another block. *)
let parse_block b pos len (eb : Edgebuf.t) : corruption option =
  let start = !pos in
  match
    let plen = read_varint_in b pos ~limit:len in
    if plen < 1 || plen > len - !pos then raise Exit;
    let payload = !pos in
    pos := payload + plen;
    let sum = read_varint_in b pos ~limit:len in
    (payload, plen, sum)
  with
  | exception Exit ->
      (* ran off the end of the file inside the block: a torn tail *)
      pos := start;
      Some (Truncated start)
  | payload, plen, sum ->
      if fnv32 b ~pos:payload ~len:plen <> sum then begin
        pos := start;
        Some (Checksum_mismatch start)
      end
      else if parse_payload b ~pos:payload ~limit:(payload + plen) eb then None
      else begin
        pos := start;
        Some (Malformed start)
      end

(* Read every intact block; stops (without raising) at the first truncated,
   damaged or malformed one and reports it. *)
let read_flat ~path : flat_outcome =
  Faults.on_read ~path;
  if not (Sys.file_exists path) then
    { buf = Edgebuf.create (); bytes = 0; corrupt = None }
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let bytes = Bytes.create len in
    really_input ic bytes 0 len;
    close_in ic;
    (* every record takes [record_bytes] of the file: the buffer never
       regrows *)
    let eb = Edgebuf.create ~capacity:(len / record_bytes) () in
    let pos = ref 0 in
    let corrupt = ref None in
    while !corrupt = None && !pos < len do
      corrupt := parse_block bytes pos len eb
    done;
    { buf = eb; bytes = len; corrupt = !corrupt }
  end

let remove_file ~path = if Sys.file_exists path then Sys.remove path

(* Remove orphaned [*.tmp] siblings left behind by a writer that died
   between opening its temp file and the rename.  They are garbage by
   construction — [atomic_write] always creates the temp fresh — and a
   stale one would otherwise sit in the workdir forever (or, worse, be
   mistaken for live state by a directory scan).  Returns how many were
   swept so the caller can account a typed recovery counter. *)
let sweep_stale_temps ~dir : int =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else
    Array.fold_left
      (fun n f ->
        if Filename.check_suffix f ".tmp" then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          n + 1
        end
        else n)
      0 (Sys.readdir dir)
