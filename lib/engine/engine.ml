(* Grapple's single-machine, disk-based graph engine (§4.3).

   The engine performs constraint-guided dynamic transitive closure: the
   input graph is partitioned by source-vertex intervals into on-disk edge
   partitions; each scheduling step loads a pair of partitions, joins every
   pair of consecutive edges whose labels compose under the client grammar
   and whose conjoined path constraint is satisfiable, and flushes new edges
   to the partitions owning their source vertices.  Oversized partitions are
   split eagerly so that any two partitions fit in the memory budget.
   Constraint results are memoized in an LRU cache keyed by path encoding.

   Loaded partitions are flat int-packed edge buffers ([Edgebuf]): 4-word
   records over a [Bigarray], with path encodings interned in a side pool.
   The join runs semi-naively: per superstep, only the edges appended since
   the previous superstep (the delta) are sort-merge-joined against the
   partitions' standing sorted indexes, so settled edges are never re-paired.
   The same scheme extends across pairs — the checkpoint manifest records
   each partition's deduplicated edge count at every pair's last local
   fixpoint, and reprocessing a pair starts its delta there (valid because
   partition files only grow by appending behind that prefix).

   The engine is a functor over the label logic, instantiated once with the
   pointer-analysis grammar (phase 1) and once with the dataflow grammar
   (phase 2). *)

module Metrics = Metrics
module Lru = Lru
module Storage = Storage
module Edgebuf = Edgebuf
module Faults = Faults
module Manifest = Manifest
module Domains = Domains
module Interrupt = Interrupt
module Shardproc = Shardproc
module Supervisor = Supervisor
module Encoding = Pathenc.Encoding
module Formula = Smt.Formula
module Solver = Smt.Solver

module type LABEL_LOGIC = sig
  type t

  val equal : t -> t -> bool
  val to_int : t -> int
  val of_int : int -> t
  val compose : t -> t -> t option

  val compose_code : int -> int -> int
  (** [compose] on the dense integer codes, allocation-free for the
      int-packed join loop; [-1] means "no production".  Must agree with
      [compose] through [to_int]/[of_int]. *)

  val unary : t -> t list
  val mirror : t -> t option
  val is_result : t -> bool
  val pp : Format.formatter -> t -> unit
end

type config = {
  workdir : string;
  max_edges_per_partition : int;  (* memory budget, expressed in edges *)
  target_partitions : int;        (* initial partitioning *)
  cache_capacity : int;
  cache_enabled : bool;
  feasibility_enabled : bool;
      (* false turns off path sensitivity: every composition succeeds *)
  max_path_elements : int;
      (* compositions whose encodings exceed this many elements are dropped,
         bounding closure over recursive clone groups; 0 = unlimited *)
  max_encodings_per_key : int;
      (* distinct path encodings kept per (src, dst, label); further feasible
         paths between the same endpoints with the same label are witnesses
         of the same fact and are dropped; 0 = unlimited *)
  solver_domains : int;
      (* worker domains for parallel constraint solving ("multiple
         edge-induction threads" of §4.3); 1 = sequential.  Decode/solve
         timers are merged into the solve timer when > 1. *)
  max_retries : int;
      (* transient storage faults absorbed per operation before the failure
         propagates to the caller *)
  retry_base_ms : float;  (* base delay of the exponential backoff *)
  retry_seed : int;       (* seed of the deterministic backoff jitter *)
  edge_budget : int;
      (* abort with [Budget_exhausted] once this many transitive edges have
         been added; 0 = unlimited *)
  wall_budget_s : float;
      (* abort with [Budget_exhausted] after this much wall-clock time in
         [run]; 0 = unlimited *)
}

(* A budget abort.  State on disk stays consistent (the last checkpoint is
   durable), so the caller may retry with [run ~resume:true], extend the
   budget, or degrade the instance. *)
exception Budget_exhausted of string

(* A cooperative interrupt (SIGINT/SIGTERM, or the shard supervisor shutting
   down).  Raised from the same poll points as budget aborts, so the last
   checkpoint manifest is durable and the run is resumable. *)
exception Interrupted = Interrupt.Interrupted

(* mkdir -p *)
let rec ensure_dir dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let default_config ~workdir =
  { workdir;
    max_edges_per_partition = 200_000;
    target_partitions = 4;
    cache_capacity = 65_536;
    cache_enabled = true;
    feasibility_enabled = true;
    max_path_elements = 64;
    max_encodings_per_key = 8;
    solver_domains = 1;
    max_retries = 3;
    retry_base_ms = 2.;
    retry_seed = 0x6a09;
    edge_budget = 0;
    wall_budget_s = 0. }

module Make (L : LABEL_LOGIC) = struct
  type edge = { src : int; dst : int; label : L.t; enc : Encoding.t }
  (* the boxed view, used at the API boundary (seeds, results, consequence
     expansion); the join loop itself works on int-packed [Edgebuf] records *)

  type pmeta = {
    pid : int;
    lo : int;
    hi : int;  (* owns source vertices in [lo, hi) *)
    path : string;
    mutable version : int;
    mutable approx_edges : int;  (* includes not-yet-deduplicated appends *)
  }

  (* A loaded partition.  [buf] holds the deduplicated edges in file order
     (load order, then insertions); [present] and [key_counts] key edges by
     the *canonical pool id* of their encoding ([Edgebuf.canon]), so
     membership is pure int hashing — candidate bytes pay one string lookup
     ([Edgebuf.find_bytes]) to reach id space, and everything after that
     never touches the bytes again.  [idx_src] and [idx_dst] are sorted
     edge-index arrays over the settled prefix [0, indexed): everything at
     or past [indexed] is the join delta of the next superstep. *)
  type loaded = {
    meta : pmeta;
    buf : Edgebuf.t;
    present : (int * int * int * int, unit) Hashtbl.t;
    key_counts : (int * int * int, int) Hashtbl.t;
        (* encodings already kept per (src, dst, label) *)
    mutable indexed : int;
    mutable idx_src : int array;  (* sorted by (src, insertion index) *)
    mutable idx_dst : int array;  (* sorted by (dst, insertion index) *)
    mutable dirty : bool;  (* contents differ from the on-disk file *)
  }

  (* An edge routed to a partition that is not loaded; flushed in batch by
     [flush_external]. *)
  type pending = {
    p_src : int;
    p_dst : int;
    p_label : int;
    p_bytes : string;
    p_enc : Encoding.t;
  }

  type t = {
    config : config;
    decode : Encoding.t -> Formula.t;
    metrics : Metrics.t;
    cache : (string, bool) Lru.t;
        (* feasibility verdicts keyed by canonical encoding wire bytes —
           one flat string hash per probe instead of a deep structural
           hash of the encoding *)
    mutable resident : (int * loaded) list;
        (* pid -> loaded partitions known to be in sync with their files;
           at most the two partitions of the current pair, so the memory
           budget ("any two partitions fit") is unchanged.  The scheduler
           holds one partition fixed across its inner loop, so residency
           turns half of all pair loads into no-ops. *)
    mutable parts : pmeta list;  (* sorted by [lo] *)
    mutable next_pid : int;
    mutable seeds : edge list;   (* only before [run] *)
    mutable n_seed_edges : int;
    mutable max_vertex : int;
    mutable ran : bool;
    mutable run_start : float;  (* wall-budget reference point, set by [run] *)
  }

  let create ?(config : config option) ~decode ~workdir () =
    let config =
      match config with Some c -> c | None -> default_config ~workdir
    in
    ensure_dir config.workdir;
    let metrics = Metrics.create () in
    (* a writer that died mid-[atomic_write] leaves an orphaned temp file;
       sweep it now so it can never shadow live state *)
    let stale = Storage.sweep_stale_temps ~dir:config.workdir in
    if stale > 0 then Metrics.add metrics.Metrics.stale_temps stale;
    { config;
      decode;
      metrics;
      cache = Lru.create (max 16 config.cache_capacity);
      resident = [];
      parts = [];
      next_pid = 0;
      seeds = [];
      n_seed_edges = 0;
      max_vertex = 0;
      ran = false;
      run_start = 0. }

  (* Sync pull-style counts (the LRU's eviction tally) into the registry on
     read.  [set] makes repeated reads idempotent. *)
  let metrics t =
    Metrics.set_count t.metrics.Metrics.cache_evictions (Lru.evictions t.cache);
    t.metrics

  (* ---------------- fault absorption and budgets ---------------- *)

  (* Absorb transient storage faults: injected faults and real I/O errors
     are retried with deterministic exponential backoff up to
     [max_retries] times, then propagated.  Simulated crashes
     ([Faults.Crash]) are never caught — a dead process doesn't retry. *)
  let with_retries t f =
    let rec go attempt =
      try f ()
      with (Faults.Injected _ | Sys_error _) as exn ->
        if attempt >= t.config.max_retries then raise exn
        else begin
          Metrics.incr t.metrics.Metrics.retries;
          Obs.Trace.instant ~cat:"storage"
            ~args:[ ("attempt", Obs.Trace.Int attempt) ]
            "storage.retry";
          Unix.sleepf
            (Faults.backoff_delay_s ~seed:t.config.retry_seed
               ~base_ms:t.config.retry_base_ms ~attempt);
          go (attempt + 1)
        end
    in
    go 0

  let check_budgets t =
    Interrupt.check ();
    let c = t.config in
    let edges_added = Metrics.count t.metrics.Metrics.edges_added in
    if c.edge_budget > 0 && edges_added > c.edge_budget then
      raise
        (Budget_exhausted
           (Printf.sprintf "edge budget exhausted (%d > %d)" edges_added
              c.edge_budget));
    if
      c.wall_budget_s > 0. && t.run_start > 0.
      && Unix.gettimeofday () -. t.run_start > c.wall_budget_s
    then
      raise
        (Budget_exhausted
           (Printf.sprintf "wall-clock budget exhausted (%.3fs)" c.wall_budget_s))

  (* ---------------- feasibility with memoization ---------------- *)

  let solve_one decode enc =
    match Solver.check (decode enc) with
    | Solver.Sat | Solver.Unknown -> true
    | Solver.Unsat -> false

  (* Decide a batch of (deduplicated, cache-missed) encodings, fanning the
     work out over worker domains when configured.  Decoding and solving are
     both pure over read-only state (the ICFET, the formula algebra), and
     the solver's statistics counters are atomic, so the verdicts — and the
     counter totals — are independent of how the batch is split.

     The fan-out draws its extra domains from the process-wide
     [Domains] budget: when the instance scheduler already owns every slot
     (this engine is running inside a worker domain), [acquire] grants
     nothing and the batch degrades to sequential solving in the calling
     domain instead of oversubscribing the machine. *)
  let solve_batch t (encs : Encoding.t list) : (Encoding.t * bool) list =
    let n = List.length encs in
    let domains = t.config.solver_domains in
    (* spawning a domain costs ~an OS thread; only fan out when the batch
       amortizes it *)
    if domains <= 1 || n < 16 * domains then
      List.map (fun enc -> (enc, solve_one t.decode enc)) encs
    else begin
      let grant = Domains.acquire ~max:(domains - 1) in
      if grant = 0 then
        List.map (fun enc -> (enc, solve_one t.decode enc)) encs
      else
        Fun.protect
          ~finally:(fun () -> Domains.release grant)
          (fun () ->
            let arr = Array.of_list encs in
            let lanes = grant + 1 in
            let chunk = (n + lanes - 1) / lanes in
            let work lo =
              let hi = min n (lo + chunk) in
              let out = ref [] in
              for i = hi - 1 downto lo do
                out := (arr.(i), solve_one t.decode arr.(i)) :: !out
              done;
              !out
            in
            let spawned =
              List.init grant (fun k ->
                  Domains.spawn (fun () -> work ((k + 1) * chunk)))
            in
            let mine = work 0 in
            (* concatenate chunks in index order: the result list preserves
               the input order whatever the grant was, so downstream
               consumers (LRU insertion order in particular) behave
               identically at every degree of fan-out *)
            mine @ List.concat_map Domain.join spawned)
    end

  (* [bytes] must be [enc]'s canonical wire bytes (the cache key). *)
  let feasible t ~(bytes : string) (enc : Encoding.t) : bool =
    if not t.config.feasibility_enabled then true
    else begin
      let m = t.metrics in
      (* a disabled cache is never consulted, so it must not count lookups:
         otherwise stats report a 0% hit rate for a cache that is off *)
      let cached =
        if t.config.cache_enabled then begin
          Metrics.incr m.Metrics.cache_lookups;
          Lru.find t.cache bytes
        end
        else None
      in
      match cached with
      | Some answer ->
          Metrics.incr m.Metrics.cache_hits;
          answer
      | None ->
          let formula = Metrics.time m `Decode (fun () -> t.decode enc) in
          let answer =
            Metrics.time m `Solve (fun () ->
                match Solver.check formula with
                | Solver.Sat | Solver.Unknown -> true
                | Solver.Unsat -> false)
          in
          Metrics.incr m.Metrics.constraints_solved;
          if t.config.cache_enabled then Lru.add t.cache bytes answer;
          answer
    end

  (* ---------------- seed edges and closure helpers ---------------- *)

  (* The unary (e.g. New => FlowsTo) and mirror (FlowsTo => reversed
     FlowsToBar) consequences of an edge; they share the edge's path, so no
     new constraint check is needed. *)
  let consequences (e : edge) : edge list =
    let unary =
      List.map (fun l -> { e with label = l }) (L.unary e.label)
    in
    let mirrors =
      List.filter_map
        (fun (d : edge) ->
          match L.mirror d.label with
          | Some l ->
              Some { src = d.dst; dst = d.src; label = l; enc = Encoding.rev d.enc }
          | None -> None)
        (e :: unary)
    in
    unary @ mirrors

  let add_seed t ~src ~dst ~label ~enc =
    if t.ran then invalid_arg "Engine.add_seed: engine already ran";
    let e = { src; dst; label; enc } in
    t.max_vertex <- max t.max_vertex (max src dst);
    t.seeds <- e :: t.seeds

  (* ---------------- partition bookkeeping ---------------- *)

  let part_path t pid = Filename.concat t.config.workdir
      (Printf.sprintf "p%04d.edges" pid)

  let fresh_pid t =
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    pid

  let owner t (v : int) : pmeta =
    match List.find_opt (fun p -> v >= p.lo && v < p.hi) t.parts with
    | Some p -> p
    | None ->
        invalid_arg (Printf.sprintf "Engine.owner: vertex %d out of range" v)

  (* Dedup key of a boxed edge: the encoding goes in as canonical wire
     bytes, so hashing the key walks one flat string instead of the whole
     encoding structure. *)
  let edge_key (e : edge) =
    (e.src, e.dst, L.to_int e.label, Encoding.to_bytes e.enc)

  let load t (meta : pmeta) : loaded =
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pid", Obs.Trace.Int meta.pid) ]
      "engine.load"
    @@ fun () ->
    let outcome =
      Metrics.time t.metrics `Io (fun () ->
          with_retries t (fun () -> Storage.read_flat ~path:meta.path))
    in
    Metrics.add t.metrics.Metrics.bytes_read outcome.Storage.bytes;
    let raw = outcome.Storage.buf in
    let n_raw = Edgebuf.n raw in
    let present = Hashtbl.create 4096 in
    let key_counts = Hashtbl.create 4096 in
    let count_key src dst label cid =
      Hashtbl.replace present (src, dst, label, cid) ();
      let ckey = (src, dst, label) in
      Hashtbl.replace key_counts ckey
        (1 + Option.value ~default:0 (Hashtbl.find_opt key_counts ckey))
    in
    (* first pass: membership tables, and whether the file holds exact
       duplicate records (it shouldn't — every writer deduplicates — but a
       hand-edited or legacy file must still load to a consistent state).
       Keys use the canonical pool ids the parse already built, so this
       pass never re-hashes encoding bytes. *)
    let dup = ref false in
    for i = 0 to n_raw - 1 do
      let cid = Edgebuf.canon raw (Edgebuf.enc_id raw i) in
      let key = (Edgebuf.src raw i, Edgebuf.dst raw i, Edgebuf.label raw i,
                 cid)
      in
      if Hashtbl.mem present key then dup := true
      else count_key (Edgebuf.src raw i) (Edgebuf.dst raw i)
             (Edgebuf.label raw i) cid
    done;
    let buf =
      if not !dup then raw  (* the common case: adopt the file's buffer *)
      else begin
        let b = Edgebuf.create ~capacity:(max 256 n_raw) () in
        Hashtbl.reset present;
        Hashtbl.reset key_counts;
        for i = 0 to n_raw - 1 do
          let bytes = Edgebuf.enc_bytes raw (Edgebuf.enc_id raw i) in
          let id = Edgebuf.intern_bytes b bytes in
          let key = (Edgebuf.src raw i, Edgebuf.dst raw i, Edgebuf.label raw i,
                     id)
          in
          if not (Hashtbl.mem present key) then begin
            count_key (Edgebuf.src raw i) (Edgebuf.dst raw i)
              (Edgebuf.label raw i) id;
            Edgebuf.push b ~src:(Edgebuf.src raw i) ~dst:(Edgebuf.dst raw i)
              ~label:(Edgebuf.label raw i) ~enc_id:id
          end
        done;
        b
      end
    in
    let l =
      { meta; buf; present; key_counts; indexed = 0; idx_src = [||];
        idx_dst = [||]; dirty = !dup }
    in
    (match outcome.Storage.corrupt with
    | None -> ()
    | Some c ->
        (* the valid prefix survives; mark dirty so the next flush rewrites
           the repaired file.  Any record lost with the damaged tail is
           rederived when the pair is reprocessed (the checkpoint manifest
           predates the damage). *)
        Logs.warn (fun k ->
            k "partition %s: %a — kept %d-record prefix"
              (Filename.basename meta.path) Storage.pp_corruption c
              (Edgebuf.n buf));
        Metrics.incr t.metrics.Metrics.corrupt_reads;
        Obs.Trace.instant ~cat:"storage"
          ~args:[ ("pid", Obs.Trace.Int meta.pid);
                  ("kept_records", Obs.Trace.Int (Edgebuf.n buf)) ]
          "storage.corrupt_recovered";
        l.dirty <- true);
    l

  (* ---------------- residency cache ---------------- *)

  let evict_except t pids =
    t.resident <- List.filter (fun (pid, _) -> List.mem pid pids) t.resident

  (* Load through the residency cache.  A resident partition's buffer and
     membership tables are in sync with its file (it was flushed, or never
     dirtied, when its pair completed), so a hit skips the read, the block
     parse, and the membership rebuild.  The guard on the [pmeta] identity
     drops entries that survived a restore or a metadata rebuild. *)
  let load_resident t (meta : pmeta) : loaded =
    match List.assoc_opt meta.pid t.resident with
    | Some l when l.meta == meta -> l
    | _ ->
        let l = load t meta in
        t.resident <- (meta.pid, l) :: List.remove_assoc meta.pid t.resident;
        l

  (* Insert an int-packed edge into a loaded partition; true if it is new.
     An edge is rejected (treated as already known) when its
     (src, dst, label) key has already accumulated [max_encodings_per_key]
     distinct path encodings: further encodings witness the same analysis
     fact.  [bytes] must be [enc]'s canonical wire bytes. *)
  let insert t (l : loaded) ~src ~dst ~label ~(bytes : string)
      ~(enc : Encoding.t) : bool =
    let known =
      match Edgebuf.find_bytes l.buf bytes with
      | Some cid -> Hashtbl.mem l.present (src, dst, label, cid)
      | None -> false  (* bytes nowhere in the pool: certainly a new fact *)
    in
    if known then false
    else begin
      let ckey = (src, dst, label) in
      let kept = Option.value ~default:0 (Hashtbl.find_opt l.key_counts ckey) in
      let cap = t.config.max_encodings_per_key in
      if cap > 0 && kept >= cap then false
      else begin
        (* canonical by construction: [intern_bytes] returns the existing
           binding or creates the first slot for these bytes *)
        let id = Edgebuf.intern_bytes ~decoded:enc l.buf bytes in
        Hashtbl.replace l.present (src, dst, label, id) ();
        Hashtbl.replace l.key_counts ckey (kept + 1);
        Edgebuf.push l.buf ~src ~dst ~label ~enc_id:id;
        l.dirty <- true;
        true
      end
    end

  (* ---------------- sorted edge-index arrays ---------------- *)

  (* Indexes are int arrays of edge positions, sorted by (key, position):
     the position tiebreak makes every scan order — and therefore every
     downstream insertion order — deterministic. *)

  let ids_range lo hi = Array.init (hi - lo) (fun k -> lo + k)

  let sort_ids buf keyf (ids : int array) =
    Array.sort
      (fun a b ->
        let c = compare (keyf buf a : int) (keyf buf b) in
        if c <> 0 then c else compare a b)
      ids;
    ids

  let merge_sorted buf keyf (a : int array) (b : int array) =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 in
      for k = 0 to la + lb - 1 do
        let take_a =
          if !i >= la then false
          else if !j >= lb then true
          else
            let c = compare (keyf buf a.(!i) : int) (keyf buf b.(!j)) in
            c < 0 || (c = 0 && a.(!i) <= b.(!j))
        in
        if take_a then begin
          out.(k) <- a.(!i);
          incr i
        end
        else begin
          out.(k) <- b.(!j);
          incr j
        end
      done;
      out
    end

  (* First position in [idx] whose key is >= [v]. *)
  let lower_bound buf keyf (idx : int array) v =
    let lo = ref 0 and hi = ref (Array.length idx) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if (keyf buf idx.(mid) : int) < v then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Apply [f] to every edge position in [idx] whose key equals [v]. *)
  let scan_eq buf keyf (idx : int array) v f =
    let n = Array.length idx in
    let i = ref (lower_bound buf keyf idx v) in
    while !i < n && (keyf buf idx.(!i) : int) = v do
      f idx.(!i);
      incr i
    done

  (* Build the standing indexes over the first [upto] edges: the cross-pair
     delta start.  [upto] past the buffer (a corruption-truncated file)
     clamps to the available prefix. *)
  let prepare (l : loaded) ~upto =
    let upto = min (max upto 0) (Edgebuf.n l.buf) in
    l.idx_src <- sort_ids l.buf Edgebuf.src (ids_range 0 upto);
    l.idx_dst <- sort_ids l.buf Edgebuf.dst (ids_range 0 upto);
    l.indexed <- upto

  (* ---------------- flush paths ---------------- *)

  (* Write a loaded partition back, splitting it if it outgrew the memory
     budget (eager repartitioning, §4.3).  The buffer is already in file
     order, so an unsplit flush is one bulk serialization. *)
  let flush t (l : loaded) : unit =
    let count = Edgebuf.n l.buf in
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pid", Obs.Trace.Int l.meta.pid);
              ("edges", Obs.Trace.Int count);
              ("dirty", Obs.Trace.Bool l.dirty) ]
      "engine.flush"
    @@ fun () ->
    let write_meta (meta : pmeta) (buf : Edgebuf.t) =
      let bytes =
        Metrics.time t.metrics `Io (fun () ->
            with_retries t (fun () -> Storage.write_flat ~path:meta.path buf))
      in
      Metrics.add t.metrics.Metrics.bytes_written bytes;
      meta.approx_edges <- Edgebuf.n buf
    in
    let needs_split =
      count > t.config.max_edges_per_partition && l.meta.hi - l.meta.lo >= 2
    in
    if not needs_split then begin
      if l.dirty then begin
        write_meta l.meta l.buf;
        l.meta.version <- l.meta.version + 1;
        l.dirty <- false  (* back in sync with the file: residency-safe *)
      end
    end
    else begin
      (* split at the weighted median source vertex *)
      let srcs = Array.init count (fun i -> Edgebuf.src l.buf i) in
      Array.sort compare srcs;
      let mid_src = srcs.(count / 2) in
      let cut =
        (* cut strictly inside (lo, hi) so both halves are non-empty ranges *)
        max (l.meta.lo + 1) (min mid_src (l.meta.hi - 1))
      in
      let left = Edgebuf.create ~capacity:(max 256 count) () in
      let right = Edgebuf.create ~capacity:(max 256 count) () in
      for i = 0 to count - 1 do
        let target = if Edgebuf.src l.buf i < cut then left else right in
        Edgebuf.push target ~src:(Edgebuf.src l.buf i)
          ~dst:(Edgebuf.dst l.buf i) ~label:(Edgebuf.label l.buf i)
          ~enc_id:
            (Edgebuf.intern_bytes target
               (Edgebuf.enc_bytes l.buf (Edgebuf.enc_id l.buf i)))
      done;
      let mk lo hi buf =
        let pid = fresh_pid t in
        let meta =
          { pid; lo; hi; path = part_path t pid; version = 0;
            approx_edges = 0 }
        in
        write_meta meta buf;
        meta
      in
      let ml = mk l.meta.lo cut left in
      let mr = mk cut l.meta.hi right in
      Storage.remove_file ~path:l.meta.path;
      t.parts <-
        List.sort
          (fun a b -> compare a.lo b.lo)
          (ml :: mr :: List.filter (fun p -> p.pid <> l.meta.pid) t.parts);
      Metrics.incr t.metrics.Metrics.repartitions;
      Obs.Trace.instant ~cat:"engine"
        ~args:[ ("split_pid", Obs.Trace.Int l.meta.pid);
                ("cut", Obs.Trace.Int cut);
                ("left_pid", Obs.Trace.Int ml.pid);
                ("right_pid", Obs.Trace.Int mr.pid) ]
        "engine.repartition"
    end

  (* ---------------- preprocessing ---------------- *)

  (* Partition the seed edges into [target_partitions] intervals of roughly
     equal edge counts and write them to disk. *)
  let preprocess t =
    let seeds =
      (* close seeds under unary/mirror, deduplicated *)
      let seen = Hashtbl.create 4096 in
      let out = ref [] in
      let add e =
        let key = edge_key e in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          out := e :: !out
        end
      in
      List.iter
        (fun e ->
          add e;
          List.iter add (consequences e))
        t.seeds;
      !out
    in
    t.seeds <- [];
    t.n_seed_edges <- List.length seeds;
    let sorted = List.sort (fun a b -> Int.compare a.src b.src) seeds in
    let n = List.length sorted in
    let k = max 1 t.config.target_partitions in
    let per = max 1 ((n + k - 1) / k) in
    (* choose interval boundaries at multiples of [per], aligned to source
       vertex changes so an interval never splits a vertex *)
    let bounds = ref [] in
    let () =
      let i = ref 0 in
      let last_src = ref (-1) in
      List.iter
        (fun e ->
          if !i > 0 && !i mod per = 0 && e.src <> !last_src then
            bounds := e.src :: !bounds;
          last_src := e.src;
          incr i)
        sorted
    in
    let bounds = List.rev !bounds in
    let lo_list = 0 :: bounds in
    let hi_list = bounds @ [ t.max_vertex + 1 ] in
    let metas =
      List.map2
        (fun lo hi ->
          let pid = fresh_pid t in
          { pid; lo; hi; path = part_path t pid; version = 0;
            approx_edges = 0 })
        lo_list hi_list
    in
    (* one ordered pass: the metas ascend by [lo] and the seeds by [src], so
       each partition's slice is the next contiguous run of the sorted list
       (the last interval's [hi] is [max_vertex + 1], so it takes the rest) *)
    let rest = ref sorted in
    List.iter
      (fun meta ->
        let buf = Edgebuf.create () in
        let continue_ = ref true in
        while !continue_ do
          match !rest with
          | e :: tl when e.src < meta.hi ->
              rest := tl;
              Edgebuf.push_edge buf ~src:e.src ~dst:e.dst
                ~label:(L.to_int e.label) e.enc
          | _ -> continue_ := false
        done;
        let bytes =
          Metrics.time t.metrics `Io (fun () ->
              with_retries t (fun () -> Storage.write_flat ~path:meta.path buf))
        in
        Metrics.add t.metrics.Metrics.bytes_written bytes;
        meta.approx_edges <- Edgebuf.n buf)
      metas;
    t.parts <- metas

  (* ---------------- the edge-pair-centric computation ---------------- *)

  (* A composition that survived the label and encoding checks, awaiting a
     feasibility verdict. *)
  type cand = {
    c_src : int;
    c_dst : int;
    c_label : int;
    c_bytes : string;
    c_enc : Encoding.t;
  }

  (* How many candidates are collected before feasibility checks are
     resolved (in parallel when [solver_domains] > 1). *)
  let chunk_cap = 2048

  (* Join the loaded partitions to a local fixpoint, semi-naively: each
     superstep pairs only the edges appended since the last superstep (the
     delta) against the standing sorted indexes, then merges the delta in.
     Settled edges are never re-paired against each other — within a pair,
     and (via [prepare]'s cross-pair counts) across a pair's reprocessings.

     Coverage: for a delta edge e and a settled or delta partner f, the
     ordered pair (e, f) is generated exactly once —
       - e on the left: e's [dst] owner is scanned by src, settled index
         first, then that partition's own delta (so delta x delta included);
       - e on the right: every loaded partition's settled [idx_dst] is
         scanned (delta x delta already covered by the left pass).
     Edges inserted *during* a superstep land past the snapshot and join as
     the next superstep's delta.

     [route] receives edges owned by partitions that are not loaded. *)
  let local_fixpoint t (loadeds : loaded list) ~route =
    let m = t.metrics in
    let find_loaded v =
      List.find_opt (fun l -> v >= l.meta.lo && v < l.meta.hi) loadeds
    in
    (* materialize the unary/mirror consequences of a just-added edge; they
       share its (already decided) path, so no feasibility check *)
    let dispatch_consequences ~src ~dst ~label ~enc =
      let e = { src; dst; label = L.of_int label; enc } in
      List.iter
        (fun (d : edge) ->
          let dl = L.to_int d.label in
          let db = Encoding.to_bytes d.enc in
          match find_loaded d.src with
          | Some l' ->
              if insert t l' ~src:d.src ~dst:d.dst ~label:dl ~bytes:db
                   ~enc:d.enc
              then Metrics.incr m.Metrics.edges_added
          | None ->
              route
                { p_src = d.src; p_dst = d.dst; p_label = dl; p_bytes = db;
                  p_enc = d.enc })
        (consequences e)
    in
    (* a feasible candidate becomes an edge: inserted locally when a loaded
       partition owns its source (counting it once, here and only here),
       routed otherwise (routed edges are counted by [flush_external], when
       they genuinely land in their target file) *)
    let add_new ~src ~dst ~label ~bytes ~enc =
      match find_loaded src with
      | Some l ->
          if insert t l ~src ~dst ~label ~bytes ~enc then begin
            Metrics.incr m.Metrics.edges_added;
            dispatch_consequences ~src ~dst ~label ~enc
          end
      | None ->
          route { p_src = src; p_dst = dst; p_label = label; p_bytes = bytes;
                  p_enc = enc };
          dispatch_consequences ~src ~dst ~label ~enc
    in
    let chunk = ref [] in
    let chunk_n = ref 0 in
    (* resolve the collected candidates: dedup within the chunk (the same
       composition is rediscovered through every parallel witness pair),
       drop the ones that cannot materialize, then cache hits immediately
       and the misses as one (possibly parallel) solving batch *)
    let resolve_chunk () =
      if !chunk_n > 0 then begin
        (* budgets are polled per chunk so a runaway pair cannot exceed its
           allowance by more than one chunk of work *)
        check_budgets t;
        let cands = List.rev !chunk in
        chunk := [];
        chunk_n := 0;
        let seen = Hashtbl.create 256 in
        let cands =
          List.filter
            (fun c ->
              let key = (c.c_src, c.c_dst, c.c_label, c.c_bytes) in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.replace seen key ();
                true
              end)
            cands
        in
        Metrics.add m.Metrics.edges_considered (List.length cands);
        (* don't pay for a verdict the insert would throw away: already
           present, or its (src, dst, label) key is at the witness cap *)
        let live =
          List.filter
            (fun c ->
              match find_loaded c.c_src with
              | None -> true
              | Some l ->
                  (match Edgebuf.find_bytes l.buf c.c_bytes with
                  | Some cid ->
                      not
                        (Hashtbl.mem l.present
                           (c.c_src, c.c_dst, c.c_label, cid))
                  | None -> true)
                  &&
                  let cap = t.config.max_encodings_per_key in
                  cap = 0
                  || Option.value ~default:0
                       (Hashtbl.find_opt l.key_counts
                          (c.c_src, c.c_dst, c.c_label))
                     < cap)
            cands
        in
        if live <> [] then begin
          if not t.config.feasibility_enabled then
            List.iter
              (fun c ->
                add_new ~src:c.c_src ~dst:c.c_dst ~label:c.c_label
                  ~bytes:c.c_bytes ~enc:c.c_enc)
              live
          else begin
            let unknown = Hashtbl.create 64 in
            let order = ref [] in
            List.iter
              (fun c ->
                (* as in [feasible]: a disabled cache counts no lookups *)
                match
                  if t.config.cache_enabled then begin
                    Metrics.incr m.Metrics.cache_lookups;
                    Lru.find t.cache c.c_bytes
                  end
                  else None
                with
                | Some _ -> Metrics.incr m.Metrics.cache_hits
                | None ->
                    if not (Hashtbl.mem unknown c.c_bytes) then begin
                      Hashtbl.replace unknown c.c_bytes ();
                      order := (c.c_bytes, c.c_enc) :: !order
                    end)
              live;
            let to_solve = List.rev !order in
            let n_to_solve = List.length to_solve in
            let batch_t0 = Unix.gettimeofday () in
            let solved =
              Obs.Trace.with_span ~cat:"smt"
                ~args:
                  [ ("batch_size", Obs.Trace.Int n_to_solve);
                    ("solver_domains", Obs.Trace.Int t.config.solver_domains) ]
                "smt.solve_batch"
              @@ fun () ->
              if t.config.solver_domains <= 1 then
                List.map
                  (fun (bytes, enc) ->
                    let formula =
                      Metrics.time m `Decode (fun () -> t.decode enc)
                    in
                    ( bytes,
                      Metrics.time m `Solve (fun () ->
                          match Solver.check formula with
                          | Solver.Sat | Solver.Unknown -> true
                          | Solver.Unsat -> false) ))
                  to_solve
              else
                (* parallel: decode+solve timed together under the solve
                   timer (per-domain timers cannot be split).  [solve_batch]
                   preserves input order, so the verdicts zip back onto
                   their cache keys positionally. *)
                Metrics.time m `Solve (fun () ->
                    List.map2
                      (fun (bytes, _) (_, ok) -> (bytes, ok))
                      to_solve
                      (solve_batch t (List.map snd to_solve)))
            in
            if n_to_solve > 0 then
              Metrics.observe_batch m ~n:n_to_solve
                ~dt:(Unix.gettimeofday () -. batch_t0);
            Metrics.add m.Metrics.constraints_solved (List.length solved);
            let verdicts = Hashtbl.create 64 in
            List.iter
              (fun (bytes, ok) ->
                Hashtbl.replace verdicts bytes ok;
                if t.config.cache_enabled then Lru.add t.cache bytes ok)
              solved;
            List.iter
              (fun c ->
                let ok =
                  match Hashtbl.find_opt verdicts c.c_bytes with
                  | Some ok -> ok
                  | None ->
                      (* encoding not in this batch (cache-evicted between
                         collection and application): fall back to the
                         single-encoding path *)
                      feasible t ~bytes:c.c_bytes c.c_enc
                in
                if ok then
                  add_new ~src:c.c_src ~dst:c.c_dst ~label:c.c_label
                    ~bytes:c.c_bytes ~enc:c.c_enc)
              live
          end
        end
      end
    in
    (* the join kernel: compose edge [i1] of [l1] with edge [i2] of [l2],
       entirely on unboxed ints until a production fires *)
    let try_pair (l1 : loaded) i1 (l2 : loaded) i2 =
      let code =
        L.compose_code (Edgebuf.label l1.buf i1) (Edgebuf.label l2.buf i2)
      in
      if code >= 0 then begin
        match
          Encoding.compose_normalized
            (Edgebuf.enc l1.buf (Edgebuf.enc_id l1.buf i1))
            (Edgebuf.enc l2.buf (Edgebuf.enc_id l2.buf i2))
        with
        | enc ->
            let cap = t.config.max_path_elements in
            if cap = 0 || Encoding.n_elements enc <= cap then begin
              chunk :=
                { c_src = Edgebuf.src l1.buf i1;
                  c_dst = Edgebuf.dst l2.buf i2; c_label = code;
                  c_bytes = Encoding.to_bytes enc; c_enc = enc }
                :: !chunk;
              incr chunk_n;
              (* resolving mid-scan is safe: insertions land past every
                 snapshot bound, and the index arrays are immutable *)
              if !chunk_n >= chunk_cap then resolve_chunk ()
            end
        | exception Encoding.Incomposable -> ()
      end
    in
    Metrics.time m `Join (fun () ->
        let continue_ = ref true in
        while !continue_ do
          check_budgets t;
          let snaps = List.map (fun l -> (l, Edgebuf.n l.buf)) loadeds in
          if List.for_all (fun (l, n_snap) -> l.indexed >= n_snap) snaps then
            continue_ := false
          else begin
            (* this superstep's delta: per loaded, the sorted-by-src index
               of the edges in [indexed, n_snap) *)
            let deltas =
              List.map
                (fun (l, n_snap) ->
                  (l, n_snap,
                   sort_ids l.buf Edgebuf.src (ids_range l.indexed n_snap)))
                snaps
            in
            let delta_src_of l2 =
              let (_, _, d) =
                List.find (fun (l, _, _) -> l == l2) deltas
              in
              d
            in
            List.iter
              (fun (l, n_snap, _) ->
                for i = l.indexed to n_snap - 1 do
                  (* as the left edge of a pair: the partner owning [dst],
                     settled index then its in-flight delta *)
                  let v_dst = Edgebuf.dst l.buf i in
                  (match find_loaded v_dst with
                  | Some l2 ->
                      scan_eq l2.buf Edgebuf.src l2.idx_src v_dst (fun j ->
                          try_pair l i l2 j);
                      scan_eq l2.buf Edgebuf.src (delta_src_of l2) v_dst
                        (fun j -> try_pair l i l2 j)
                  | None -> ());
                  (* as the right edge of a pair: settled partners only —
                     delta x delta was covered by the left pass *)
                  let v_src = Edgebuf.src l.buf i in
                  List.iter
                    (fun l1 ->
                      scan_eq l1.buf Edgebuf.dst l1.idx_dst v_src (fun j ->
                          try_pair l1 j l i))
                    loadeds
                done)
              deltas;
            resolve_chunk ();
            (* merge the delta into the standing indexes; edges inserted
               during this superstep sit past [n_snap] and form the next
               delta *)
            List.iter
              (fun (l, n_snap, dsrc) ->
                l.idx_src <- merge_sorted l.buf Edgebuf.src l.idx_src dsrc;
                l.idx_dst <-
                  merge_sorted l.buf Edgebuf.dst l.idx_dst
                    (sort_ids l.buf Edgebuf.dst (ids_range l.indexed n_snap));
                l.indexed <- n_snap)
              deltas
          end
        done)

  (* Append externally-routed edges to the partitions owning them.  Owners
     are resolved here, after any splits performed by [flush], so an edge is
     never appended to a stale partition.  Each pending edge is deduplicated
     against the target file (and against the batch itself), and only the
     edges that genuinely land count toward [edges_added] — a routed
     rediscovery of a known fact adds nothing. *)
  let flush_external t (pending : pending list) =
    let by_owner : (int, pending list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun p ->
        let meta = owner t p.p_src in
        match Hashtbl.find_opt by_owner meta.pid with
        | Some r -> r := p :: !r
        | None ->
            Hashtbl.replace by_owner meta.pid (ref [ p ]);
            order := meta :: !order)
      pending;
    List.iter
      (fun (meta : pmeta) ->
        let batch = List.rev !(Hashtbl.find by_owner meta.pid) in
        let n_new, bytes_read, bytes_written =
          Metrics.time t.metrics `Io (fun () ->
              with_retries t (fun () ->
                  let outcome = Storage.read_flat ~path:meta.path in
                  let buf = outcome.Storage.buf in
                  let existing = Hashtbl.create (max 64 (2 * Edgebuf.n buf)) in
                  for i = 0 to Edgebuf.n buf - 1 do
                    Hashtbl.replace existing
                      (Edgebuf.src buf i, Edgebuf.dst buf i,
                       Edgebuf.label buf i,
                       Edgebuf.canon buf (Edgebuf.enc_id buf i))
                      ()
                  done;
                  let added = ref 0 in
                  List.iter
                    (fun p ->
                      let id =
                        Edgebuf.intern_bytes ~decoded:p.p_enc buf p.p_bytes
                      in
                      let key = (p.p_src, p.p_dst, p.p_label, id) in
                      if not (Hashtbl.mem existing key) then begin
                        Hashtbl.replace existing key ();
                        Edgebuf.push buf ~src:p.p_src ~dst:p.p_dst
                          ~label:p.p_label ~enc_id:id;
                        incr added
                      end)
                    batch;
                  if !added = 0 then (0, outcome.Storage.bytes, 0)
                  else
                    let written = Storage.write_flat ~path:meta.path buf in
                    (!added, outcome.Storage.bytes, written)))
        in
        Metrics.add t.metrics.Metrics.bytes_read bytes_read;
        Metrics.add t.metrics.Metrics.bytes_written bytes_written;
        if n_new > 0 then begin
          Metrics.add t.metrics.Metrics.edges_added n_new;
          meta.approx_edges <- meta.approx_edges + n_new;
          (* a batch that landed nothing leaves the file byte-identical:
             bumping the version would only force a no-op reprocess *)
          meta.version <- meta.version + 1;
          (* the file just outgrew any resident copy *)
          t.resident <- List.remove_assoc meta.pid t.resident
        end)
      (List.rev !order)

  (* Process one scheduled pair of partitions.  [counts] is the pair's
     recorded deduplicated edge counts at its previous local fixpoint
     ((0, 0) for a first encounter): the join starts its delta there.
     Returns the counts at this fixpoint, captured before flushing, for the
     caller to record. *)
  let process_pair t (pa : pmeta) (pb : pmeta) ~counts:(ca, cb) : int * int =
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pa", Obs.Trace.Int pa.pid); ("pb", Obs.Trace.Int pb.pid) ]
      "engine.pair"
    @@ fun () ->
    Metrics.incr t.metrics.Metrics.pairs_processed;
    (* keep residency at the memory budget: only this pair stays loaded *)
    evict_except t [ pa.pid; pb.pid ];
    let loadeds =
      if pa.pid = pb.pid then [ load_resident t pa ]
      else [ load_resident t pa; load_resident t pb ]
    in
    (match loadeds with
    | [ la ] -> prepare la ~upto:ca
    | [ la; lb ] ->
        prepare la ~upto:ca;
        prepare lb ~upto:cb
    | _ -> assert false);
    let pending = ref [] in
    let route p = pending := p :: !pending in
    local_fixpoint t loadeds ~route;
    let counts' =
      match loadeds with
      | [ la ] -> (Edgebuf.n la.buf, Edgebuf.n la.buf)
      | [ la; lb ] -> (Edgebuf.n la.buf, Edgebuf.n lb.buf)
      | _ -> assert false
    in
    List.iter (fun l -> flush t l) loadeds;
    (* a split partition's pid (and file) is gone: drop its resident copy *)
    t.resident <-
      List.filter
        (fun (pid, _) -> List.exists (fun p -> p.pid = pid) t.parts)
        t.resident;
    flush_external t (List.rev !pending);
    counts'

  (* ---------------- checkpointing ---------------- *)

  (* Persist partition metadata and the scheduler frontier.  Called after
     every completed pair, *after* that pair's partitions and routed appends
     are durable, so a validating manifest never references state newer than
     the files.  (The converse — files newer than the manifest — is safe:
     the missed pair is simply reprocessed, and reprocessing is idempotent
     because loads and inserts deduplicate; its recorded delta counts are at
     worst stale-low, which only re-joins a suffix.)  The
     crash-at-checkpoint fault hook fires after the save: the manifest is
     durable at that instant, which is exactly the boundary [--resume]
     guarantees byte-identical results from. *)
  let checkpoint t (processed : (int * int, int * int * int * int) Hashtbl.t) =
    let parts =
      List.map
        (fun p ->
          { Manifest.pid = p.pid; lo = p.lo; hi = p.hi; version = p.version;
            approx_edges = p.approx_edges; file = Filename.basename p.path })
        t.parts
    in
    let frontier =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) processed []
      |> List.sort compare
    in
    let m =
      { Manifest.next_pid = t.next_pid; max_vertex = t.max_vertex;
        n_seed_edges = t.n_seed_edges; parts; processed = frontier }
    in
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("parts", Obs.Trace.Int (List.length parts)) ]
      "engine.checkpoint"
      (fun () ->
        Metrics.time t.metrics `Io (fun () ->
            with_retries t (fun () -> Manifest.save ~workdir:t.config.workdir m)));
    Faults.on_checkpoint ()

  (* Restore partition metadata and the scheduler frontier from the last
     checkpoint; false when there is none (or it failed validation). *)
  let try_restore t (processed : (int * int, int * int * int * int) Hashtbl.t)
      : bool =
    match with_retries t (fun () -> Manifest.load ~workdir:t.config.workdir) with
    | None -> false
    | Some m
      when not
             (List.for_all
                (fun (p : Manifest.part) ->
                  Sys.file_exists
                    (Filename.concat t.config.workdir p.Manifest.file))
                m.Manifest.parts) ->
        (* a checksum-valid manifest referencing a vanished partition file
           describes state that no longer exists: start fresh rather than
           resume into silently-empty partitions *)
        false
    | Some m ->
        t.parts <-
          List.map
            (fun (p : Manifest.part) ->
              { pid = p.Manifest.pid; lo = p.Manifest.lo; hi = p.Manifest.hi;
                path = Filename.concat t.config.workdir p.Manifest.file;
                version = p.Manifest.version;
                approx_edges = p.Manifest.approx_edges })
            m.Manifest.parts
          |> List.sort (fun a b -> compare a.lo b.lo);
        t.next_pid <- m.Manifest.next_pid;
        t.max_vertex <- max t.max_vertex m.Manifest.max_vertex;
        t.n_seed_edges <- m.Manifest.n_seed_edges;
        t.seeds <- [];  (* the partitions already hold the preprocessed seeds *)
        List.iter (fun (k, v) -> Hashtbl.replace processed k v)
          m.Manifest.processed;
        true

  (* Run to global fixpoint.  With [~resume:true], continue from the
     workdir's checkpoint manifest when one validates (fresh run
     otherwise): partitions and frontier are restored and only pairs whose
     versions advanced since the checkpoint are (re)processed — and those
     only past their recorded delta counts.  The closure is confluent —
     facts accumulate monotonically and deduplicate — so a resumed run
     converges to the same fixpoint as an uninterrupted one. *)
  let run ?(resume = false) t =
    if t.ran then invalid_arg "Engine.run: already ran";
    t.ran <- true;
    t.run_start <- Unix.gettimeofday ();
    (* (pid_min, pid_max) -> (version_min, version_max, count_min, count_max),
       versions and fixpoint counts stored in pid order *)
    let processed : (int * int, int * int * int * int) Hashtbl.t =
      Hashtbl.create 256
    in
    let restored = resume && try_restore t processed in
    if not restored then begin
      preprocess t;
      checkpoint t processed
    end;
    let continue = ref true in
    while !continue do
      continue := false;
      (* snapshot: [t.parts] changes under our feet when partitions split *)
      let snapshot = t.parts in
      List.iteri
        (fun i pa ->
          List.iteri
            (fun j pb ->
              if j >= i then begin
                let alive p = List.exists (fun q -> q.pid = p.pid) t.parts in
                if alive pa && alive pb then begin
                  let key = (min pa.pid pb.pid, max pa.pid pb.pid) in
                  let swap = pa.pid > pb.pid in
                  let vers =
                    if swap then (pb.version, pa.version)
                    else (pa.version, pb.version)
                  in
                  let needs, (c1, c2) =
                    match Hashtbl.find_opt processed key with
                    | None -> (true, (0, 0))
                    | Some (va, vb, ca, cb) -> ((va, vb) <> vers, (ca, cb))
                  in
                  if needs then begin
                    continue := true;
                    let counts = if swap then (c2, c1) else (c1, c2) in
                    let ca', cb' = process_pair t pa pb ~counts in
                    (* versions may have advanced during processing *)
                    let cur p =
                      match List.find_opt (fun q -> q.pid = p.pid) t.parts with
                      | Some q -> q.version
                      | None -> -1
                    in
                    let v1, v2, d1, d2 =
                      if swap then (cur pb, cur pa, cb', ca')
                      else (cur pa, cur pb, ca', cb')
                    in
                    Hashtbl.replace processed key (v1, v2, d1, d2);
                    checkpoint t processed;
                    check_budgets t
                  end
                end
              end)
            snapshot)
        snapshot
    done

  (* ---------------- results ---------------- *)

  let n_partitions t = List.length t.parts
  let n_seed_edges t = t.n_seed_edges

  (* Exact total edge count.  Every writer deduplicates, so the files hold
     each edge once and folding needs no membership tables — just the raw
     buffer.  Edges are folded newest-first per partition, matching the
     historical reverse-insertion-order iteration that report generation
     depends on. *)
  let fold_edges t f acc =
    List.fold_left
      (fun acc meta ->
        let outcome =
          Metrics.time t.metrics `Io (fun () ->
              with_retries t (fun () -> Storage.read_flat ~path:meta.path))
        in
        Metrics.add t.metrics.Metrics.bytes_read outcome.Storage.bytes;
        (match outcome.Storage.corrupt with
        | None -> ()
        | Some c ->
            Logs.warn (fun k ->
                k "partition %s: %a — kept %d-record prefix"
                  (Filename.basename meta.path) Storage.pp_corruption c
                  (Edgebuf.n outcome.Storage.buf));
            Metrics.incr t.metrics.Metrics.corrupt_reads);
        let buf = outcome.Storage.buf in
        let acc = ref acc in
        for i = Edgebuf.n buf - 1 downto 0 do
          let e =
            { src = Edgebuf.src buf i; dst = Edgebuf.dst buf i;
              label = L.of_int (Edgebuf.label buf i);
              enc = Edgebuf.enc buf (Edgebuf.enc_id buf i) }
          in
          acc := f !acc e
        done;
        !acc)
      acc t.parts

  let total_edges t = fold_edges t (fun n _ -> n + 1) 0

  let iter_result_edges t f =
    fold_edges t (fun () e -> if L.is_result e.label then f e) ()

  (* Delete the working directory contents created by this engine. *)
  let cleanup t =
    t.resident <- [];
    List.iter
      (fun p ->
        Storage.remove_file ~path:p.path;
        Storage.remove_file ~path:(p.path ^ ".tmp"))
      t.parts;
    let manifest = Manifest.path ~workdir:t.config.workdir in
    Storage.remove_file ~path:manifest;
    Storage.remove_file ~path:(manifest ^ ".tmp")
end
