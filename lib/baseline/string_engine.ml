(* The naive "systemized" comparison point of §5.3 / Table 5: the same
   edge-pair-centric disk engine, but every edge carries its path constraint
   as a literal formula string instead of an interval encoding.

   Costs charged to this design, exactly as the paper describes:
     - constraint strings grow with path length, so edges are large, more
       partitions are needed to respect the same memory budget, and the
       computation takes more iterations to reach the fixpoint;
     - every satisfiability check re-parses the string into a formula.

   The implementation mirrors [Engine.Make] with a byte-denominated memory
   budget; partition files store (src, dst, label, constraint-string). *)

module Formula = Smt.Formula
module Solver = Smt.Solver

module type LABEL_LOGIC = Engine.LABEL_LOGIC

type config = {
  workdir : string;
  max_bytes_per_partition : int;
      (* memory budget in bytes; partitioned by the engine's rule *)
  cache_capacity : int;
  cache_enabled : bool;
  max_constraint_bytes : int;  (* compositions beyond this are dropped *)
  max_strings_per_key : int;
}

let default_config ~workdir =
  { workdir;
    max_bytes_per_partition = 4_000_000;
    cache_capacity = 65_536;
    cache_enabled = true;
    max_constraint_bytes = 65_536;
    max_strings_per_key = 8 }

type stats = {
  mutable n_partitions : int;
  mutable iterations : int;
  mutable constraints_solved : int;
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable parse_s : float;
  mutable solve_s : float;
  mutable io_s : float;
  mutable bytes_written : int;
  mutable edges_after : int;
}

module Make (L : LABEL_LOGIC) = struct
  type edge = { src : int; dst : int; label : L.t; cstr : string }

  type pmeta = {
    pid : int;
    lo : int;
    hi : int;
    path : string;
    mutable version : int;
  }

  type loaded = {
    meta : pmeta;
    mutable all : edge list;
    by_src : (int, edge list ref) Hashtbl.t;
    by_dst : (int, edge list ref) Hashtbl.t;
    present : (int * int * int * string, unit) Hashtbl.t;
    key_counts : (int * int * int, int) Hashtbl.t;
    mutable bytes : int;
    mutable dirty : bool;
  }

  type t = {
    config : config;
    stats : stats;
    cache : (string, bool) Engine.Lru.t;
    mutable parts : pmeta list;
    mutable next_pid : int;
    mutable seeds : edge list;
    mutable n_seeds : int;
    mutable max_vertex : int;
    mutable ran : bool;
  }

  let create ?(config : config option) ~workdir () =
    let config =
      match config with Some c -> c | None -> default_config ~workdir
    in
    Engine.ensure_dir config.workdir;
    { config;
      stats =
        { n_partitions = 0; iterations = 0; constraints_solved = 0;
          cache_hits = 0; cache_lookups = 0; parse_s = 0.; solve_s = 0.;
          io_s = 0.; bytes_written = 0; edges_after = 0 };
      cache = Engine.Lru.create (max 16 config.cache_capacity);
      parts = [];
      next_pid = 0;
      seeds = [];
      n_seeds = 0;
      max_vertex = 0;
      ran = false }

  let stats t = t.stats

  let timed cell f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    cell := !cell +. (Unix.gettimeofday () -. t0);
    r

  let feasible t (cstr : string) : bool =
    let s = t.stats in
    s.cache_lookups <- s.cache_lookups + 1;
    match if t.config.cache_enabled then Engine.Lru.find t.cache cstr else None with
    | Some answer ->
        s.cache_hits <- s.cache_hits + 1;
        answer
    | None ->
        let parse_time = ref 0. and solve_time = ref 0. in
        let formula =
          timed parse_time (fun () ->
              try Formula_parser.parse cstr
              with Formula_parser.Parse_error _ -> Formula.True)
        in
        let answer =
          timed solve_time (fun () ->
              match Solver.check formula with
              | Solver.Sat | Solver.Unknown -> true
              | Solver.Unsat -> false)
        in
        s.parse_s <- s.parse_s +. !parse_time;
        s.solve_s <- s.solve_s +. !solve_time;
        s.constraints_solved <- s.constraints_solved + 1;
        if t.config.cache_enabled then Engine.Lru.add t.cache cstr answer;
        answer

  let conjoin a b =
    if a = "true" then b else if b = "true" then a
    else Printf.sprintf "(%s & %s)" a b

  let edge_bytes (e : edge) = 24 + String.length e.cstr

  (* ---------------- storage ---------------- *)

  let write_edge buf (e : edge) =
    Pathenc.Encoding.add_varint buf e.src;
    Pathenc.Encoding.add_varint buf e.dst;
    Pathenc.Encoding.add_varint buf (L.to_int e.label);
    Pathenc.Encoding.add_varint buf (String.length e.cstr);
    Buffer.add_string buf e.cstr

  let write_file t ~path (edges : edge list) =
    let buf = Buffer.create 65536 in
    List.iter (write_edge buf) edges;
    let t0 = Unix.gettimeofday () in
    let oc = open_out_bin path in
    Buffer.output_buffer oc buf;
    close_out oc;
    t.stats.io_s <- t.stats.io_s +. (Unix.gettimeofday () -. t0);
    t.stats.bytes_written <- t.stats.bytes_written + Buffer.length buf

  let append_file t ~path (edges : edge list) =
    let buf = Buffer.create 65536 in
    List.iter (write_edge buf) edges;
    let t0 = Unix.gettimeofday () in
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
    Buffer.output_buffer oc buf;
    close_out oc;
    t.stats.io_s <- t.stats.io_s +. (Unix.gettimeofday () -. t0);
    t.stats.bytes_written <- t.stats.bytes_written + Buffer.length buf

  let read_file t ~path : edge list =
    if not (Sys.file_exists path) then []
    else begin
      let t0 = Unix.gettimeofday () in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = Bytes.create len in
      really_input ic bytes 0 len;
      close_in ic;
      t.stats.io_s <- t.stats.io_s +. (Unix.gettimeofday () -. t0);
      let pos = ref 0 in
      let acc = ref [] in
      while !pos < len do
        let src = Pathenc.Encoding.read_varint bytes pos in
        let dst = Pathenc.Encoding.read_varint bytes pos in
        let label = L.of_int (Pathenc.Encoding.read_varint bytes pos) in
        let n = Pathenc.Encoding.read_varint bytes pos in
        let cstr = Bytes.sub_string bytes !pos n in
        pos := !pos + n;
        acc := { src; dst; label; cstr } :: !acc
      done;
      List.rev !acc
    end

  (* ---------------- partitions ---------------- *)

  let part_path t pid =
    Filename.concat t.config.workdir (Printf.sprintf "s%04d.edges" pid)

  let fresh_pid t =
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    pid

  let owner t v =
    match List.find_opt (fun p -> v >= p.lo && v < p.hi) t.parts with
    | Some p -> p
    | None -> invalid_arg "String_engine.owner: vertex out of range"

  let add_seed t ~src ~dst ~label ~cstr =
    if t.ran then invalid_arg "String_engine.add_seed: engine already ran";
    t.max_vertex <- max t.max_vertex (max src dst);
    t.seeds <- { src; dst; label; cstr } :: t.seeds

  let consequences (e : edge) : edge list =
    let unary = List.map (fun l -> { e with label = l }) (L.unary e.label) in
    let mirrors =
      List.filter_map
        (fun (d : edge) ->
          match L.mirror d.label with
          | Some l -> Some { src = d.dst; dst = d.src; label = l; cstr = d.cstr }
          | None -> None)
        (e :: unary)
    in
    unary @ mirrors

  let load t (meta : pmeta) : loaded =
    let raw = read_file t ~path:meta.path in
    let l =
      { meta; all = []; by_src = Hashtbl.create 1024;
        by_dst = Hashtbl.create 1024; present = Hashtbl.create 4096;
        key_counts = Hashtbl.create 4096; bytes = 0; dirty = false }
    in
    let n_raw = List.length raw in
    let n = ref 0 in
    List.iter
      (fun e ->
        let key = (e.src, e.dst, L.to_int e.label, e.cstr) in
        if not (Hashtbl.mem l.present key) then begin
          incr n;
          Hashtbl.replace l.present key ();
          let ckey = (e.src, e.dst, L.to_int e.label) in
          Hashtbl.replace l.key_counts ckey
            (1 + Option.value ~default:0 (Hashtbl.find_opt l.key_counts ckey));
          l.all <- e :: l.all;
          l.bytes <- l.bytes + edge_bytes e;
          let push tbl k =
            match Hashtbl.find_opt tbl k with
            | Some r -> r := e :: !r
            | None -> Hashtbl.replace tbl k (ref [ e ])
          in
          push l.by_src e.src;
          push l.by_dst e.dst
        end)
      raw;
    if !n <> n_raw then l.dirty <- true;
    l

  let insert t (l : loaded) (e : edge) : bool =
    let key = (e.src, e.dst, L.to_int e.label, e.cstr) in
    if Hashtbl.mem l.present key then false
    else begin
      let ckey = (e.src, e.dst, L.to_int e.label) in
      let kept = Option.value ~default:0 (Hashtbl.find_opt l.key_counts ckey) in
      if t.config.max_strings_per_key > 0 && kept >= t.config.max_strings_per_key
      then false
      else begin
        Hashtbl.replace l.present key ();
        Hashtbl.replace l.key_counts ckey (kept + 1);
        l.all <- e :: l.all;
        l.bytes <- l.bytes + edge_bytes e;
        l.dirty <- true;
        let push tbl k =
          match Hashtbl.find_opt tbl k with
          | Some r -> r := e :: !r
          | None -> Hashtbl.replace tbl k (ref [ e ])
        in
        push l.by_src e.src;
        push l.by_dst e.dst;
        true
      end
    end

  (* [Engine]'s partitioner on the byte budget: order [edges], whose
     sources lie in [lo, hi), by source, cut them by [Engine.pieces] into
     files of at most [cap] bytes, and return them in ascending [lo]. *)
  let partition t (edges : edge list) ~lo ~hi ~cap : pmeta list =
    let sorted =
      Array.of_list (List.stable_sort (fun a b -> compare a.src b.src) edges)
    in
    let n = Array.length sorted in
    List.map
      (fun (first, last) ->
        let pid = fresh_pid t in
        let meta =
          { pid;
            lo = (if first = 0 then lo else sorted.(first).src);
            hi = (if last = n then hi else sorted.(last).src);
            path = part_path t pid;
            version = 0 }
        in
        write_file t ~path:meta.path
          (Array.to_list (Array.sub sorted first (last - first)));
        meta)
      (Engine.pieces ~n
         ~src:(fun i -> sorted.(i).src)
         ~size:(fun i -> edge_bytes sorted.(i))
         ~cap)

  (* A partition that outgrew the budget is split by [partition] into
     halves, unless all its edges share one source. *)
  let flush t (l : loaded) =
    let mixed =
      match l.all with
      | e :: rest -> List.exists (fun e' -> e'.src <> e.src) rest
      | [] -> false
    in
    if l.bytes > t.config.max_bytes_per_partition && mixed then begin
      let pieces =
        partition t l.all ~lo:l.meta.lo ~hi:l.meta.hi ~cap:((l.bytes + 1) / 2)
      in
      if Sys.file_exists l.meta.path then Sys.remove l.meta.path;
      t.parts <-
        List.sort (fun a b -> compare a.lo b.lo)
          (pieces @ List.filter (fun p -> p.pid <> l.meta.pid) t.parts)
    end
    else if l.dirty then begin
      write_file t ~path:l.meta.path l.all;
      l.meta.version <- l.meta.version + 1
    end

  (* ---------------- computation ---------------- *)

  let preprocess t =
    let seen = Hashtbl.create 4096 in
    let seeds = ref [] in
    let add e =
      let key = (e.src, e.dst, L.to_int e.label, e.cstr) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        seeds := e :: !seeds
      end
    in
    List.iter (fun e -> add e; List.iter add (consequences e)) t.seeds;
    t.seeds <- [];
    t.n_seeds <- List.length !seeds;
    t.parts <-
      partition t !seeds ~lo:0 ~hi:(t.max_vertex + 1)
        ~cap:(max 1 (t.config.max_bytes_per_partition / 2))

  let local_fixpoint t (loadeds : loaded list) ~route =
    let find_loaded v =
      List.find_opt (fun l -> v >= l.meta.lo && v < l.meta.hi) loadeds
    in
    let queue = Queue.create () in
    List.iter (fun l -> List.iter (fun e -> Queue.add e queue) l.all) loadeds;
    let add_new (e : edge) =
      let enqueue_if_new l e = if insert t l e then Queue.add e queue in
      match find_loaded e.src with
      | Some l ->
          if insert t l e then begin
            Queue.add e queue;
            List.iter
              (fun d ->
                match find_loaded d.src with
                | Some l' -> enqueue_if_new l' d
                | None -> route d)
              (consequences e)
          end
      | None ->
          route e;
          List.iter
            (fun d ->
              match find_loaded d.src with
              | Some l' -> enqueue_if_new l' d
              | None -> route d)
            (consequences e)
    in
    let try_pair (e1 : edge) (e2 : edge) =
      match L.compose e1.label e2.label with
      | None -> ()
      | Some l3 ->
          let cstr = conjoin e1.cstr e2.cstr in
          if String.length cstr <= t.config.max_constraint_bytes
             && feasible t cstr
          then add_new { src = e1.src; dst = e2.dst; label = l3; cstr }
    in
    while not (Queue.is_empty queue) do
      let e = Queue.pop queue in
      (match find_loaded e.dst with
      | Some l -> (
          match Hashtbl.find_opt l.by_src e.dst with
          | Some outs -> List.iter (fun e2 -> try_pair e e2) !outs
          | None -> ())
      | None -> ());
      List.iter
        (fun l ->
          match Hashtbl.find_opt l.by_dst e.src with
          | Some ins -> List.iter (fun e1 -> try_pair e1 e) !ins
          | None -> ())
        loadeds
    done

  let process_pair t (pa : pmeta) (pb : pmeta) =
    t.stats.iterations <- t.stats.iterations + 1;
    let loadeds =
      if pa.pid = pb.pid then [ load t pa ] else [ load t pa; load t pb ]
    in
    let pending = ref [] in
    local_fixpoint t loadeds ~route:(fun e -> pending := e :: !pending);
    List.iter (flush t) loadeds;
    let by_owner = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let meta = owner t e.src in
        match Hashtbl.find_opt by_owner meta.pid with
        | Some r -> r := e :: !r
        | None -> Hashtbl.replace by_owner meta.pid (ref [ e ]))
      !pending;
    Hashtbl.iter
      (fun pid edges ->
        match List.find_opt (fun p -> p.pid = pid) t.parts with
        | None -> assert false
        | Some meta ->
            append_file t ~path:meta.path !edges;
            meta.version <- meta.version + 1)
      by_owner

  let run t =
    if t.ran then invalid_arg "String_engine.run: already ran";
    t.ran <- true;
    preprocess t;
    let processed = Hashtbl.create 256 in
    let continue = ref true in
    while !continue do
      continue := false;
      let snapshot = t.parts in
      List.iteri
        (fun i pa ->
          List.iteri
            (fun j pb ->
              if j >= i then begin
                let alive p = List.exists (fun q -> q.pid = p.pid) t.parts in
                if alive pa && alive pb then begin
                  let key = (min pa.pid pb.pid, max pa.pid pb.pid) in
                  let vers = (pa.version, pb.version) in
                  let needs =
                    match Hashtbl.find_opt processed key with
                    | None -> true
                    | Some v -> v <> vers
                  in
                  if needs then begin
                    continue := true;
                    process_pair t pa pb;
                    let cur p =
                      match List.find_opt (fun q -> q.pid = p.pid) t.parts with
                      | Some q -> q.version
                      | None -> -1
                    in
                    Hashtbl.replace processed key (cur pa, cur pb)
                  end
                end
              end)
            snapshot)
        snapshot
    done;
    t.stats.n_partitions <- List.length t.parts;
    t.stats.edges_after <-
      List.fold_left
        (fun acc meta -> acc + List.length (load t meta).all)
        0 t.parts

  let n_seed_edges t = t.n_seeds

  let cleanup t =
    List.iter
      (fun p -> if Sys.file_exists p.path then Sys.remove p.path)
      t.parts
end
