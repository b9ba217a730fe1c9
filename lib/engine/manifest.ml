(* Checkpoint manifest for the engine.

   After every scheduled partition pair the engine persists its partition
   metadata and scheduler frontier here, so a killed run can resume from the
   last completed pair instead of from zero.  Format (text, line-based):

     grapple-manifest 4
     seed_digest N
     next_pid N
     max_vertex N
     n_seed_edges N
     part <pid> <lo> <hi> <file-basename>
     ...
     done <pid-min> <pid-max> <count-min> <count-max>
     ...
     end <fnv1a-32 of everything above>

   Each [done] line records, per processed pair, the partitions' record
   counts at the moment the pair reached its local fixpoint.  Partition
   files only ever grow by appending behind that prefix (flushes preserve
   load order; splits mint fresh pids), so the counts serve twice: a pair
   needs work again once either partition holds more records than that,
   and reprocessing joins only the records past them — the cross-pair
   delta.  The manifest holds no per-partition counts: the files may be
   newer than it (a crash between a partition's rename and the next
   checkpoint), so a restore counts the records in the files.

   [seed_digest] names the graph the checkpoint closes ([Edgebuf.digest] of
   the seed buffer): a run resumes only a checkpoint of the same seeds, and
   starts fresh otherwise.  Manifests of earlier formats, which name no
   graph, fail validation and fall back to a fresh run too, which
   overwrites the stale files.

   The trailing checksum covers the whole body, and the file is written
   atomically (temp + rename, via [Storage]), so a reader sees either a
   complete, self-consistent manifest or — after damage or a format bump —
   nothing, in which case the engine falls back to a fresh run.  Partition
   files are flushed *before* the manifest that references them, so any
   manifest that validates only ever points at durable partition state
   (possibly older than the files, never newer; reprocessing a pair the
   manifest missed is idempotent). *)

type part = {
  pid : int;
  lo : int;
  hi : int;              (* source-vertex interval [lo, hi) *)
  file : string;         (* basename, resolved against the workdir *)
}

type t = {
  seed_digest : int;  (* [Edgebuf.digest] of the seeds this run closes *)
  next_pid : int;
  max_vertex : int;
  n_seed_edges : int;
  parts : part list;
  (* the scheduler frontier: ((pid_min, pid_max), (count_min, count_max))
     for every processed pair, exactly the engine's [processed] table; the
     counts are the partitions' record counts at the pair's last local
     fixpoint *)
  processed : ((int * int) * (int * int)) list;
}

let format_version = 4

let path ~workdir = Filename.concat workdir "manifest"

let render (m : t) : string =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "grapple-manifest %d\n" format_version;
  Printf.bprintf buf "seed_digest %d\n" m.seed_digest;
  Printf.bprintf buf "next_pid %d\n" m.next_pid;
  Printf.bprintf buf "max_vertex %d\n" m.max_vertex;
  Printf.bprintf buf "n_seed_edges %d\n" m.n_seed_edges;
  List.iter
    (fun p ->
      Printf.bprintf buf "part %d %d %d %s\n" p.pid p.lo p.hi p.file)
    m.parts;
  List.iter
    (fun ((a, b), (ca, cb)) ->
      Printf.bprintf buf "done %d %d %d %d\n" a b ca cb)
    m.processed;
  let body = Buffer.contents buf in
  Printf.sprintf "%send %d\n" body (Storage.checksum_string body)

let save ~workdir (m : t) : unit =
  let s = render m in
  Storage.atomic_write ~path:(path ~workdir) (Bytes.unsafe_of_string s)
    ~len:(String.length s)

(* [None] on a missing, damaged, or wrong-format manifest — the caller
   starts fresh.  Never raises on bad contents. *)
let load ~workdir : t option =
  let file = path ~workdir in
  Faults.on_read ~path:file;
  if not (Sys.file_exists file) then None
  else begin
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match String.rindex_opt (String.trim contents) '\n' with
    | None -> None
    | Some i ->
        let body = String.sub contents 0 (i + 1) in
        let last =
          String.trim (String.sub contents (i + 1) (String.length contents - i - 1))
        in
        let checksum_ok =
          match String.split_on_char ' ' last with
          | [ "end"; sum ] ->
              int_of_string_opt sum = Some (Storage.checksum_string body)
          | _ -> false
        in
        if not checksum_ok then None
        else begin
          let seed_digest = ref (-1)
          and next_pid = ref 0
          and max_vertex = ref 0
          and n_seed_edges = ref 0
          and parts = ref []
          and processed = ref []
          and header_ok = ref false
          and bad = ref false in
          let int s = match int_of_string_opt s with
            | Some n -> n
            | None -> bad := true; 0
          in
          String.split_on_char '\n' body
          |> List.iter (fun line ->
                 match String.split_on_char ' ' (String.trim line) with
                 | [ "" ] -> ()
                 | [ "grapple-manifest"; v ] ->
                     header_ok := int_of_string_opt v = Some format_version
                 | [ "seed_digest"; n ] -> seed_digest := int n
                 | [ "next_pid"; n ] -> next_pid := int n
                 | [ "max_vertex"; n ] -> max_vertex := int n
                 | [ "n_seed_edges"; n ] -> n_seed_edges := int n
                 | [ "part"; pid; lo; hi; file ] ->
                     parts :=
                       { pid = int pid; lo = int lo; hi = int hi; file }
                       :: !parts
                 | [ "done"; a; b; ca; cb ] ->
                     processed :=
                       ((int a, int b), (int ca, int cb)) :: !processed
                 | _ -> bad := true);
          if !bad || (not !header_ok) || !seed_digest < 0 then None
          else
            Some
              { seed_digest = !seed_digest; next_pid = !next_pid;
                max_vertex = !max_vertex; n_seed_edges = !n_seed_edges;
                parts = List.rev !parts; processed = List.rev !processed }
        end
  end
