(* Tests for the flat int-packed edge representation (ISSUE 10): codec
   round-trips over random edges including max-width fields, torn-tail
   recovery, the [edges_added] accounting fix, a worked-example differential
   against the naive in-memory closure, and corpus replay through the new
   representation. *)

module E = Pathenc.Encoding
module Pg = Cfl.Pointer_grammar
module S = Engine.Storage
module AEngine = Engine.Make (Cfl.Pointer_grammar)

let fresh_workdir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "grapple-test-flat-%d-%d" (Unix.getpid ()) !counter)
    in
    Engine.ensure_dir dir;
    dir

let read_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------- flat codec properties ---------------- *)

let gen_enc =
  let open QCheck in
  let elem =
    Gen.frequency
      [ (6,
         Gen.map2
           (fun meth (a, b) ->
             E.Interval { meth; first = min a b; last = max a b })
           (Gen.int_bound 3)
           (Gen.pair (Gen.int_bound 30) (Gen.int_bound 30)));
        (2, Gen.map (fun i -> E.Call i) (Gen.int_bound 50));
        (2, Gen.map (fun i -> E.Ret i) (Gen.int_bound 50)) ]
  in
  Gen.list_size (Gen.int_range 0 4) elem

(* vertices and labels exercise the full 63-bit word: the format stores
   them as little-endian int64 fields, so huge field ids and vertex ids
   must survive unchanged *)
let gen_vertex =
  QCheck.Gen.frequency
    [ (4, QCheck.Gen.int_bound 60);
      (1, QCheck.Gen.map (fun n -> n land max_int) QCheck.Gen.int) ]

let gen_label =
  let open QCheck in
  Gen.frequency
    [ (3,
       Gen.map Pg.to_int
         (Gen.oneofl [ Pg.New; Pg.Assign; Pg.Flows_to; Pg.Flows_to_bar; Pg.Alias ]));
      (2,
       (* max-width field ids: [Store f] packs f into the bits above the
          4-bit tag, so codes reach all the way up the word *)
       Gen.map
         (fun f -> Pg.to_int (Pg.Store (f land ((1 lsl 58) - 1))))
         Gen.int);
      (1, Gen.map (fun n -> n land max_int) Gen.int) ]

let gen_edge =
  QCheck.Gen.map3
    (fun src dst (label, enc) -> (src, dst, label, enc))
    gen_vertex gen_vertex
    (QCheck.Gen.pair gen_label gen_enc)

let pr_edge (src, dst, label, enc) =
  Printf.sprintf "%d-%d->%d/%s" src label dst (E.to_string enc)

let pr_edges es = String.concat "; " (List.map pr_edge es)

let write_edges = Suite_engine.write_edges
let read_edges = Suite_engine.read_edges

let prop_path =
  let dir = lazy (fresh_workdir ()) in
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Lazy.force dir) (Printf.sprintf "prop-%d.edges" !counter)

let prop_flat_roundtrip =
  QCheck.Test.make ~name:"flat codec roundtrip incl. max-width fields"
    ~count:150
    (QCheck.make
       ~print:(fun (cap, es) -> Printf.sprintf "cap=%d [%s]" cap (pr_edges es))
       (QCheck.Gen.pair (QCheck.Gen.int_range 1 6)
          (QCheck.Gen.list_size (QCheck.Gen.int_range 0 20) gen_edge)))
    (fun (cap, edges) ->
      let path = prop_path () in
      let (_ : int) = write_edges ~block_cap:cap ~path edges in
      let back, corrupt = read_edges path in
      corrupt = None && back = edges)

let rec is_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | x :: a, y :: b -> x = y && is_prefix a b
  | _ :: _, [] -> false

(* chopping any number of trailing bytes must never invent or corrupt an
   edge: the reader returns an intact prefix, and unless the cut landed
   exactly on a block boundary it also reports the damage *)
let prop_flat_torn_tail =
  QCheck.Test.make ~name:"flat codec torn-tail recovery" ~count:150
    (QCheck.make
       ~print:(fun (cap, es, cut) ->
         Printf.sprintf "cap=%d cut=%d [%s]" cap cut (pr_edges es))
       (QCheck.Gen.triple (QCheck.Gen.int_range 1 3)
          (QCheck.Gen.list_size (QCheck.Gen.int_range 1 15) gen_edge)
          (QCheck.Gen.int_bound 1_000_000)))
    (fun (cap, edges, cut) ->
      let path = prop_path () in
      let (_ : int) = write_edges ~block_cap:cap ~path edges in
      let bytes = read_bytes path in
      let len = String.length bytes in
      let k = 1 + (cut mod (len - 1)) in
      let oc = open_out_bin path in
      output_string oc (String.sub bytes 0 (len - k));
      close_out oc;
      let back, corrupt = read_edges path in
      is_prefix back edges
      && (corrupt <> None || List.length back < List.length edges))

let test_flat_extreme_fields () =
  let dir = fresh_workdir () in
  let path = Filename.concat dir "extreme.edges" in
  let wide = (1 lsl 58) - 1 in
  let iv = [ E.Interval { meth = 0; first = 0; last = 0 } ] in
  let edges =
    [ (max_int, 0, Pg.to_int (Pg.Store wide), iv);
      (0, max_int, Pg.to_int (Pg.Load wide), []);
      (1, 2, max_int, [ E.Call 3 ]) ]
  in
  let (_ : int) = write_edges ~path edges in
  let back, corrupt = read_edges path in
  Alcotest.(check bool) "intact" true (corrupt = None);
  Alcotest.(check bool) "identical" true (back = edges);
  (* the label codec itself must also survive the width *)
  List.iter
    (fun l ->
      Alcotest.(check bool) (Pg.to_string l ^ " code roundtrip") true
        (Pg.of_int (Pg.to_int l) = l))
    [ Pg.Store wide; Pg.Load wide; Pg.Ft_store wide; Pg.Ft_st_al wide ]

(* ---------------- edges_added accounting ---------------- *)

let true_decode (_ : E.t) = Smt.Formula.True

let test_edges_added_hand_counted () =
  (* o --new--> v1 --assign--> v2, closed under the pointer grammar.

     [preprocess] closes the seeds {New(o,v1), Assign(v1,v2)} under
     unary/mirror, giving FlowsTo(o,v1) and FlowsToBar(v1,o) — none of
     which count.  The run then derives exactly six new facts, each with a
     single witness encoding:

       FlowsTo(o,v2), FlowsToBar(v2,o),
       Alias(v1,v1), Alias(v1,v2), Alias(v2,v1), Alias(v2,v2)

     so [edges_added] must read exactly 6 — once per landed edge, at any
     partition count.  Regression for the route/add_new double-count, which
     inflated the counter whenever an edge crossed partitions. *)
  List.iter
    (fun budget ->
      let workdir = fresh_workdir () in
      let config =
        { (Engine.default_config ~workdir) with
          Engine.max_edges_per_partition = budget }
      in
      let t = AEngine.create ~config ~decode:true_decode ~workdir () in
      let iv = [ E.Interval { meth = 0; first = 0; last = 0 } ] in
      AEngine.add_seed t ~src:0 ~dst:1 ~label:Pg.New ~enc:iv;
      AEngine.add_seed t ~src:1 ~dst:2 ~label:Pg.Assign ~enc:iv;
      AEngine.run t;
      let facts =
        AEngine.fold_edges t
          (fun acc e ->
            (e.AEngine.src, e.AEngine.dst, Pg.to_int e.AEngine.label) :: acc)
          []
        |> List.sort_uniq compare
      in
      Alcotest.(check int)
        (Printf.sprintf "total facts (budget=%d)" budget)
        10 (List.length facts);
      Alcotest.(check int)
        (Printf.sprintf "edges added (budget=%d)" budget)
        6
        (Engine.Metrics.count
           (AEngine.metrics t).Engine.Metrics.edges_added))
    (* one partition; one per source *)
    [ 200_000; 2 ]

(* ---------------- worked example vs. naive closure ---------------- *)

let test_example_matches_reference () =
  (* the paper's store/load worked example (h1 = new H; w = new W;
     h1.f = w; h2 = h1; u = h2.f), forced through small partitions so the
     semi-naive delta join crosses partition pairs, compared fact-for-fact
     against the naive in-memory closure *)
  let seeds =
    [ (0, 1, Pg.New); (2, 3, Pg.New); (3, 1, Pg.Store 9); (1, 4, Pg.Assign);
      (4, 5, Pg.Load 9) ]
  in
  let workdir = fresh_workdir () in
  let config =
    { (Engine.default_config ~workdir) with
      Engine.max_edges_per_partition = 4;
      max_encodings_per_key = 1;
      max_path_elements = 0 }
  in
  let t = AEngine.create ~config ~decode:true_decode ~workdir () in
  List.iter
    (fun (src, dst, label) ->
      AEngine.add_seed t ~src ~dst ~label
        ~enc:[ E.Interval { meth = 0; first = 0; last = 0 } ])
    seeds;
  AEngine.run t;
  let engine_facts =
    AEngine.fold_edges t
      (fun acc e ->
        (e.AEngine.src, e.AEngine.dst, Pg.to_int e.AEngine.label) :: acc)
      []
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (triple int int int)))
    "fact set matches the naive closure"
    (Suite_engine.reference_closure seeds)
    engine_facts;
  (* sanity: the example's point — the W object flows through the heap
     into u — is among the facts *)
  Alcotest.(check bool) "w flows to u" true
    (List.mem (2, 5, Pg.to_int Pg.Flows_to) engine_facts)

(* ---------------- corpus replay ---------------- *)

let corpus_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jir")
  |> List.sort compare
  |> List.map (Filename.concat corpus_dir)

let rec edge_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then edge_files p
         else if Filename.check_suffix p ".edges" then [ p ]
         else [])

let run_corpus ~budget path =
  let program =
    Jir.Resolve.parse_exn ~file:(Filename.basename path) (read_bytes path)
  in
  let workdir = fresh_workdir () in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers }
  in
  let config =
    { config with
      Grapple.Pipeline.engine =
        { config.Grapple.Pipeline.engine with
          Engine.max_edges_per_partition = budget } }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let results, _props, _ =
    Checkers.run_all_scheduled prepared (Checkers.all ())
  in
  let reports =
    List.concat_map
      (fun (name, rs) ->
        List.map (fun r -> name ^ ": " ^ Grapple.Report.to_string r) rs)
      results
    |> List.sort compare
  in
  (workdir, reports)

let test_corpus_replay () =
  (* every minimized program in the corpus goes through the full pipeline
     on the flat representation: the partition files it leaves behind must
     re-read losslessly and re-serialize byte-identically, and the warnings
     must not depend on the partition budget.  Budget 2 puts one source in
     each partition; the default budget fits each engine in one, so the
     small budget must leave more partition files over the corpus. *)
  let saw_partition_files = ref false in
  let small = ref 0 and default = ref 0 in
  List.iter
    (fun path ->
      let workdir, reports = run_corpus ~budget:2 path in
      let files = edge_files workdir in
      List.iter
        (fun f ->
          let out = S.read_flat ~path:f in
          (match out.S.corrupt with
          | Some c ->
              Alcotest.failf "%s: %s corrupt: %s" (Filename.basename path) f
                (Fmt.str "%a" S.pp_corruption c)
          | None -> ());
          saw_partition_files := true;
          let rt = f ^ ".rt" in
          let (_ : int) = S.write_flat ~path:rt out.S.buf in
          Alcotest.(check bool)
            (Filename.basename path ^ ": " ^ Filename.basename f
           ^ " re-serializes byte-identically")
            true
            (read_bytes rt = read_bytes f))
        files;
      let workdir', reports' = run_corpus ~budget:200_000 path in
      let n = List.length files and n' = List.length (edge_files workdir') in
      if n < n' then
        Alcotest.failf "%s: budget 2 left %d partition files, the default %d"
          (Filename.basename path) n n';
      small := !small + n;
      default := !default + n';
      Alcotest.(check (list string))
        (Filename.basename path ^ ": warnings stable across partitioning")
        reports reports')
    (corpus_files ());
  Alcotest.(check bool) "replay exercised partition files" true
    !saw_partition_files;
  if !small <= !default then
    Alcotest.failf "budget 2 left %d partition files, the default %d" !small
      !default

(* ---------------- golden bytes ---------------- *)

let md5_file path = Digest.to_hex (Digest.file path)

(* A fixed buffer: pool entries whose lengths straddle the varint
   boundaries, and records whose fields reach the full 63-bit word. *)
let golden_buffer () =
  let eb = Engine.Edgebuf.create () in
  List.iter
    (fun n ->
      let s = String.init n (fun i -> Char.chr (((i * 7) + n) land 0xff)) in
      ignore (Engine.Edgebuf.intern_bytes eb s : int))
    [ 0; 1; 127; 128; 300; 16384 ];
  let wide =
    [| 0; 1; 127; 128; 1 lsl 31; 1 lsl 32; (1 lsl 58) - 1; max_int |]
  in
  for i = 0 to 699 do
    Engine.Edgebuf.push eb ~src:wide.(i mod 8) ~dst:wide.(i / 8 mod 8)
      ~label:wide.(i * 3 mod 8) ~enc_id:(i mod 6)
  done;
  eb

(* Round-trip properties cannot see a writer and a reader that drift from
   format 2 together; these digests of the written bytes can. *)
let test_golden_codec_bytes () =
  let dir = fresh_workdir () in
  let eb = golden_buffer () in
  List.iter
    (fun (block_cap, want) ->
      let path =
        Filename.concat dir (Printf.sprintf "golden-%d.edges" block_cap)
      in
      let n = S.write_flat ~block_cap ~path eb in
      Alcotest.(check int)
        (Printf.sprintf "cap %d: bytes written" block_cap)
        (String.length (read_bytes path)) n;
      Alcotest.(check string)
        (Printf.sprintf "cap %d: file digest" block_cap)
        want (md5_file path))
    [ (1, "25a6a02c453e40d93f8c905ae6d6da9d");
      (3, "1813c0047138f8de7407b5bd4e84586a");
      (512, "99a0e3fe9ba022deb09f04a5b2a95e94") ]

(* The MD5 of every phase-2 partition file and manifest a full check leaves
   behind, listed by path under the workdir: they pin the dataflow graph's
   vertex ids, its seeds and their order, the preprocess that partitions
   them, and the closure that grows them. *)
let partition_listing workdir =
  let b = Buffer.create 1024 in
  Sys.readdir workdir |> Array.to_list
  |> List.filter (fun d -> String.length d > 3 && String.sub d 0 3 = "df-")
  |> List.sort compare
  |> List.iter (fun d ->
         Sys.readdir (Filename.concat workdir d)
         |> Array.to_list
         |> List.filter (fun f ->
                f = "manifest" || Filename.check_suffix f ".edges")
         |> List.sort compare
         |> List.iter (fun f ->
                Printf.bprintf b "%s/%s %s\n" d f
                  (md5_file (Filename.concat (Filename.concat workdir d) f))));
  Buffer.contents b

let test_golden_seed_partitions () =
  let figure3b =
    read_bytes
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "../examples/figure3b.jir")
    |> Jir.Resolve.parse_exn ~file:"figure3b.jir"
  in
  let cs =
    List.map Checkers.resolve
      [ "io"; "lock"; "exception"; "socket"; "null"; "lock_order"; "taint";
        "close"; "exc_twr" ]
  in
  List.iter
    (fun (name, program, want) ->
      let workdir = fresh_workdir () in
      let config =
        { (Grapple.Pipeline.default_config ~workdir) with
          Grapple.Pipeline.library_throwers = Checkers.Specs.library_throwers;
          track_null = Checkers.tracks_null cs;
          prefilter_properties = Checkers.fsms cs }
      in
      let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
      let _, props, _ = Checkers.run_all_scheduled prepared cs in
      let listing = partition_listing workdir in
      Grapple.Pipeline.cleanup prepared props;
      Alcotest.(check bool) (name ^ ": partition files written") true
        (listing <> "");
      Alcotest.(check string)
        (name ^ ": digest of\n" ^ listing)
        want
        (Digest.to_hex (Digest.string listing)))
    [ ("figure3b", figure3b, "3b8d4688d02cdd00254179fa9bd1cbf7");
      ("minizk",
       (Workload.Generator.mini_zookeeper ()).Workload.Generator.program,
       "8a9682367bc8c28ef8743f41fd215106") ]

(* ---------------- rejected blocks ---------------- *)

let varint n =
  let b = Buffer.create 10 in
  E.add_varint b n;
  Buffer.contents b

(* One framed block with a valid checksum. *)
let frame payload =
  varint (String.length payload) ^ payload ^ varint (S.checksum_string payload)

let record (src, dst, label, enc_id) =
  let b = Buffer.create 32 in
  List.iter (fun w -> Buffer.add_int64_le b (Int64.of_int w))
    [ src; dst; label; enc_id ];
  Buffer.contents b

let pool_block entries =
  frame
    ("P" ^ varint (List.length entries)
    ^ String.concat ""
        (List.map (fun s -> varint (String.length s) ^ s) entries))

let edge_block ?count records =
  let count = Option.value count ~default:(List.length records) in
  frame ("E" ^ varint count ^ String.concat "" (List.map record records))

(* Write [blocks]; read them back.  Returns the records kept, the pool size
   and the rendered corruption, with the byte offset of each block. *)
let read_crafted blocks =
  let path = Filename.concat (fresh_workdir ()) "crafted.edges" in
  let oc = open_out_bin path in
  List.iter (output_string oc) blocks;
  close_out oc;
  let out = S.read_flat ~path in
  let offsets =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) b -> (off + String.length b, off :: acc))
            (0, []) blocks))
  in
  ( Engine.Edgebuf.n out.S.buf,
    Engine.Edgebuf.pool_size out.S.buf,
    Option.map (Fmt.str "%a" S.pp_corruption) out.S.corrupt,
    offsets )

(* A block whose checksum is valid but whose contents are not must leave
   nothing of itself behind: the reader keeps the blocks before it, and
   reports a malformed block, not a checksum mismatch. *)
let test_rejected_block_keeps_nothing () =
  let enc = E.to_bytes [ E.Call 0 ] in
  let blocks =
    [ pool_block [ enc ];
      edge_block [ (1, 2, 3, 0) ];
      edge_block [ (4, 5, 6, 0); (7, 8, 9, 99) ] ]
  in
  let n, pool, corrupt, offsets = read_crafted blocks in
  Alcotest.(check int) "the bad block's first record is dropped" 1 n;
  Alcotest.(check int) "the pool is intact" 1 pool;
  Alcotest.(check (option string)) "reported as malformed"
    (Some (Printf.sprintf "malformed block at byte %d" (List.nth offsets 2)))
    corrupt;
  (* a pool block whose second entry overruns the payload appends nothing *)
  let bad_pool =
    frame ("P" ^ varint 2 ^ varint (String.length enc) ^ enc ^ varint 200)
  in
  let n, pool, corrupt, _ = read_crafted [ bad_pool ] in
  Alcotest.(check int) "no records" 0 n;
  Alcotest.(check int) "no pool entries" 0 pool;
  Alcotest.(check (option string)) "pool block reported as malformed"
    (Some "malformed block at byte 0") corrupt

(* A record count so large that count x 32 wraps must fail the length
   check, not pass it and read past the payload. *)
let test_block_count_cannot_overflow () =
  let enc = E.to_bytes [ E.Call 0 ] in
  let blocks =
    [ pool_block [ enc ];
      edge_block ~count:((1 lsl 58) + 1) [ (1, 2, 3, 0) ] ]
  in
  let n, _, corrupt, offsets = read_crafted blocks in
  Alcotest.(check int) "no records" 0 n;
  Alcotest.(check (option string)) "reported as malformed"
    (Some (Printf.sprintf "malformed block at byte %d" (List.nth offsets 1)))
    corrupt

let suite =
  [ QCheck_alcotest.to_alcotest prop_flat_roundtrip;
    QCheck_alcotest.to_alcotest prop_flat_torn_tail;
    Alcotest.test_case "extreme field widths" `Quick test_flat_extreme_fields;
    Alcotest.test_case "edges_added hand-counted" `Quick
      test_edges_added_hand_counted;
    Alcotest.test_case "worked example vs naive closure" `Quick
      test_example_matches_reference;
    Alcotest.test_case "corpus replay on the flat representation" `Quick
      test_corpus_replay;
    Alcotest.test_case "golden codec bytes" `Quick test_golden_codec_bytes;
    Alcotest.test_case "golden seed partitions" `Quick
      test_golden_seed_partitions;
    Alcotest.test_case "rejected block keeps nothing" `Quick
      test_rejected_block_keeps_nothing;
    Alcotest.test_case "block count cannot overflow" `Quick
      test_block_count_cannot_overflow ]
