(* On-disk edge storage for partitions — format 2 (flat blocks).

   A partition file is a flat sequence of self-validating records:

     varint payload-length | payload | varint FNV-1a-32(payload)

   where each payload is one *block*:

     'P' | varint count | count x (varint len | encoding wire bytes)
     'E' | varint count | count x (src, dst, label, enc-ref as int64 LE)

   Pool blocks ('P') carry the interned path-encoding pool of an
   [Edgebuf.t]; pool ids are assigned in file order across all pool blocks.
   Edge blocks ('E') carry fixed-width 4-word edge records referencing pool
   ids — the same packed layout the in-memory [Edgebuf] uses, so writing is
   a bounded conversion of machine words, not a per-edge structural
   serialization.  Files are written buffered and read back in one slurp:
   the engine's access pattern is strictly sequential (paper §4.3: "most
   edge accesses are sequential").

   Crash safety:
   - every write replaces the whole file through write-temp-then-rename, so
     a crash at any instant leaves either the old file or the new file, never
     a torn mixture;
   - [read_flat] never raises on damaged data: the length prefix bounds every
     block parse, the checksum catches bit damage, edge blocks referencing
     pool ids that never validated are rejected, and the result carries the
     longest valid prefix of blocks plus a typed corruption marker, so the
     engine can fall back to the last checkpoint instead of dying mid-parse.
     Recovery is block-granular: damage loses at most the tail from the
     first damaged block onward.

   All operations pass through the [Faults] hooks so a seeded fault plan can
   deterministically fail, truncate, or crash them. *)

module Encoding = Pathenc.Encoding

type corruption =
  | Truncated of int          (* byte offset of the torn trailing block *)
  | Checksum_mismatch of int  (* byte offset of the damaged block *)

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

(* FNV-1a, 32-bit *)
let fnv32 (b : Bytes.t) ~pos ~len =
  let h = ref 0x811C9DC5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let checksum_string (s : string) : int =
  fnv32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Edges per block: recovery granularity.  Small enough that damage loses a
   bounded tail, large enough that framing overhead stays negligible. *)
let default_block_cap = 512

let add_record buf (payload : Buffer.t) =
  let plen = Buffer.length payload in
  Encoding.add_varint buf plen;
  Buffer.add_buffer buf payload;
  Encoding.add_varint buf
    (fnv32 (Buffer.to_bytes payload) ~pos:0 ~len:plen)

(* Serialize an [Edgebuf.t]: pool blocks first, then edge blocks. *)
let flat_to_buffer ?(block_cap = default_block_cap) (eb : Edgebuf.t) :
    Buffer.t =
  let buf = Buffer.create 65536 in
  let payload = Buffer.create 8192 in
  let np = Edgebuf.pool_size eb in
  let i = ref 0 in
  while !i < np do
    let count = min block_cap (np - !i) in
    Buffer.clear payload;
    Buffer.add_char payload 'P';
    Encoding.add_varint payload count;
    for k = !i to !i + count - 1 do
      let s = Edgebuf.enc_bytes eb k in
      Encoding.add_varint payload (String.length s);
      Buffer.add_string payload s
    done;
    add_record buf payload;
    i := !i + count
  done;
  let ne = Edgebuf.n eb in
  let j = ref 0 in
  while !j < ne do
    let count = min block_cap (ne - !j) in
    Buffer.clear payload;
    Buffer.add_char payload 'E';
    Encoding.add_varint payload count;
    for k = !j to !j + count - 1 do
      Buffer.add_int64_le payload (Int64.of_int (Edgebuf.src eb k));
      Buffer.add_int64_le payload (Int64.of_int (Edgebuf.dst eb k));
      Buffer.add_int64_le payload (Int64.of_int (Edgebuf.label eb k));
      Buffer.add_int64_le payload (Int64.of_int (Edgebuf.enc_id eb k))
    done;
    add_record buf payload;
    j := !j + count
  done;
  buf

(* Atomically replace [path] with [contents]: write a sibling temp file,
   then rename over the target.  POSIX rename is atomic, so a crash leaves
   either the complete old contents or the complete new contents.  An
   injected [`Short] write persists only half the temp file and fails —
   the target is untouched, and the next successful write overwrites the
   garbage temp file. *)
let atomic_write ~path (contents : string) : unit =
  let tmp = path ^ ".tmp" in
  (match Faults.on_write ~path with
  | `Ok ->
      let oc = open_out_bin tmp in
      output_string oc contents;
      close_out oc
  | `Short ->
      let oc = open_out_bin tmp in
      output_string oc (String.sub contents 0 (String.length contents / 2));
      close_out oc;
      raise
        (Faults.Injected
           (Printf.sprintf "injected short write on %s" (Filename.basename path))));
  Faults.before_rename ~path;
  Sys.rename tmp path;
  Faults.after_rename ~path

(* Replace the file contents with the buffer's edges; returns bytes
   written. *)
let write_flat ?block_cap ~path (eb : Edgebuf.t) : int =
  let buf = flat_to_buffer ?block_cap eb in
  atomic_write ~path (Buffer.contents buf);
  Buffer.length buf

(* Parse one block starting at [!pos] into [eb].  Every access is bounded
   by the length prefix, and the payload decode happens on a [Bytes.sub]
   slice so a lying length can never walk past the block, let alone the
   file. *)
let parse_block bytes pos len (eb : Edgebuf.t) :
    [ `Ok | `Truncated | `Corrupt ] =
  let start = !pos in
  match
    let plen = Encoding.read_varint bytes pos in
    if plen < 1 || !pos + plen > len then raise Exit;
    let payload = Bytes.sub bytes !pos plen in
    pos := !pos + plen;
    let sum = Encoding.read_varint bytes pos in
    (payload, plen, sum)
  with
  | exception _ ->
      (* ran off the end of the file inside the block: a torn tail *)
      pos := start;
      `Truncated
  | payload, plen, sum ->
      if fnv32 payload ~pos:0 ~len:plen <> sum then begin
        pos := start;
        `Corrupt
      end
      else begin
        match
          match Bytes.get payload 0 with
          | 'P' ->
              let p = ref 1 in
              let count = Encoding.read_varint payload p in
              if count < 0 then raise Exit;
              for _ = 1 to count do
                let slen = Encoding.read_varint payload p in
                if slen < 0 || !p + slen > plen then raise Exit;
                Edgebuf.pool_append eb (Bytes.sub_string payload !p slen);
                p := !p + slen
              done;
              if !p <> plen then raise Exit
          | 'E' ->
              let p = ref 1 in
              let count = Encoding.read_varint payload p in
              if count < 0 || !p + (count * 32) <> plen then raise Exit;
              let np = Edgebuf.pool_size eb in
              (* little-endian 64-bit word, assembled on the int stack:
                 [Bytes.get_int64_le] would box an [Int64] for every word,
                 four per record, and this loop reads every record of every
                 partition load.  Truncation to 63 bits matches
                 [Int64.to_int]; out-of-range top bytes surface as negative
                 values and fail the field checks below. *)
              let le64 b off =
                Char.code (Bytes.unsafe_get b off)
                lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
                lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
                lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)
                lor (Char.code (Bytes.unsafe_get b (off + 4)) lsl 32)
                lor (Char.code (Bytes.unsafe_get b (off + 5)) lsl 40)
                lor (Char.code (Bytes.unsafe_get b (off + 6)) lsl 48)
                lor (Char.code (Bytes.unsafe_get b (off + 7)) lsl 56)
              in
              for k = 0 to count - 1 do
                let word i = le64 payload (!p + (k * 32) + (i * 8)) in
                let src = word 0 and dst = word 1 in
                let label = word 2 and enc_id = word 3 in
                if src < 0 || dst < 0 || label < 0 || enc_id < 0
                   || enc_id >= np
                then raise Exit;
                Edgebuf.push eb ~src ~dst ~label ~enc_id
              done
          | _ -> raise Exit
        with
        | exception _ ->
            pos := start;
            `Corrupt
        | () -> `Ok
      end

(* Read every intact block; stops (without raising) at the first truncated
   or damaged one and reports it. *)
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
    let eb = Edgebuf.create () in
    let pos = ref 0 in
    let corrupt = ref None in
    while !pos < len && !corrupt = None do
      match parse_block bytes pos len eb with
      | `Ok -> ()
      | `Truncated -> corrupt := Some (Truncated !pos)
      | `Corrupt -> corrupt := Some (Checksum_mismatch !pos)
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
