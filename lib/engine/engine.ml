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
   Two flat int indexes over the buffer's positions ([Edgeindex]) answer
   every lookup: one open-addressing key table for "is this edge already
   here?" and the per-key witness count, and per-vertex src/dst chains for
   the join.  The join runs semi-naively: per superstep, only the edges
   appended since the previous superstep (the delta) walk the chains of
   their join vertex, and since chains list positions in ascending order,
   "settled" is just a position bound — settled edges are never re-paired,
   and nothing is sorted or merged.  The same scheme extends across pairs —
   the checkpoint manifest records each partition's deduplicated edge count
   at every pair's last local fixpoint, and reprocessing a pair starts its
   delta there (valid because partition files only grow by appending behind
   that prefix).

   The engine is a functor over the label logic, instantiated once with the
   pointer-analysis grammar (phase 1) and once with the dataflow grammar
   (phase 2). *)

module Metrics = Metrics
module Lru = Lru
module Storage = Storage
module Edgebuf = Edgebuf
module Keys = Edgeindex.Keys
module Chains = Edgeindex.Chains
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
    cache_enabled = true;
    feasibility_enabled = true;
    max_path_elements = 64;
    max_encodings_per_key = 8;
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
     (load order, then insertions).  [keys] indexes every position by
     (src, dst, label) and compares encodings by their *canonical pool id*
     ([Edgebuf.canon]), so membership is pure int work — candidate bytes pay
     one string lookup ([Edgebuf.find_bytes]) to reach id space, and
     everything after that never touches the bytes again.  [chains] links
     positions by src and by dst for the current pair (rebuilt by
     [prepare]); positions below [indexed] are settled, and [indexed, snap)
     is the current superstep's delta. *)
  type loaded = {
    meta : pmeta;
    buf : Edgebuf.t;
    keys : Keys.t;
    chains : Chains.t;
    mutable indexed : int;
    mutable snap : int;  (* edge count when the current superstep began *)
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
      cache = Lru.create 65_536;
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
    let keys = Keys.create n_raw in
    (* index every record, noting whether the file holds exact duplicates
       (it shouldn't — every writer deduplicates — but a hand-edited or
       legacy file must still load to a consistent state).  Keys use the
       canonical pool ids the parse already built, so this pass never
       re-hashes encoding bytes. *)
    let dup = Keys.build keys raw in
    let buf =
      if not dup then raw  (* the common case: adopt the file's buffer *)
      else begin
        let b = Edgebuf.create ~capacity:(max 256 n_raw) () in
        Keys.clear keys;
        for i = 0 to n_raw - 1 do
          let src = Edgebuf.src raw i and dst = Edgebuf.dst raw i in
          let label = Edgebuf.label raw i in
          let bytes = Edgebuf.enc_bytes raw (Edgebuf.enc_id raw i) in
          let id = Edgebuf.intern_bytes b bytes in
          let slot = Keys.find keys b ~src ~dst ~label in
          if not (Keys.mem keys b slot id) then begin
            Edgebuf.push b ~src ~dst ~label ~enc_id:id;
            Keys.add keys b slot (Edgebuf.n b - 1)
          end
        done;
        b
      end
    in
    let l =
      { meta; buf; keys; chains = Chains.create (Edgebuf.n buf); indexed = 0;
        snap = 0; dirty = dup }
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

  (* Where a loaded partition would take an edge: the key-table slot, or
     [-1] when the partition already holds it or its (src, dst, label) key
     has accumulated [max_encodings_per_key] distinct path encodings —
     further encodings witness the same analysis fact.  [bytes] must be the
     encoding's canonical wire bytes.  The slot is valid until the next
     insertion into [l]. *)
  let free_slot t (l : loaded) ~src ~dst ~label ~(bytes : string) : int =
    let slot = Keys.find l.keys l.buf ~src ~dst ~label in
    let known =
      match Edgebuf.find_bytes l.buf bytes with
      | Some cid -> Keys.mem l.keys l.buf slot cid
      | None -> false  (* bytes nowhere in the pool: certainly a new fact *)
    in
    let cap = t.config.max_encodings_per_key in
    if known || (cap > 0 && Keys.count l.keys slot >= cap) then -1 else slot

  (* Append an edge at the slot [free_slot] found for it. *)
  let push (l : loaded) slot ~src ~dst ~label ~(bytes : string)
      ~(enc : Encoding.t) =
    (* canonical by construction: [intern_bytes] returns the existing
       binding or creates the first slot for these bytes *)
    let id = Edgebuf.intern_bytes ~decoded:enc l.buf bytes in
    Edgebuf.push l.buf ~src ~dst ~label ~enc_id:id;
    let p = Edgebuf.n l.buf - 1 in
    Keys.add l.keys l.buf slot p;
    Chains.append l.chains l.buf p;
    l.dirty <- true

  (* Insert an int-packed edge into a loaded partition; true if it is new. *)
  let insert t (l : loaded) ~src ~dst ~label ~bytes ~enc : bool =
    let slot = free_slot t l ~src ~dst ~label ~bytes in
    slot >= 0
    && begin
         push l slot ~src ~dst ~label ~bytes ~enc;
         true
       end

  (* Start a pair: positions below [upto] (the cross-pair delta start) are
     settled, and the chains are rebuilt for the pair's vertex intervals.
     [upto] past the buffer (a corruption-truncated file) clamps to the
     available prefix. *)
  let prepare (l : loaded) ~upto ~(pair : loaded list) =
    l.indexed <- min (max upto 0) (Edgebuf.n l.buf);
    let lo1, hi1, lo2, hi2 =
      match pair with
      | [ a ] -> (a.meta.lo, a.meta.hi, 0, 0)
      | [ a; b ] -> (a.meta.lo, a.meta.hi, b.meta.lo, b.meta.hi)
      | _ -> invalid_arg "Engine.prepare: a pair has one or two partitions"
    in
    Chains.rebuild l.chains l.buf ~lo:l.meta.lo ~hi:l.meta.hi ~lo1 ~hi1 ~lo2
      ~hi2

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
    (* close seeds under unary/mirror into one buffer, deduplicated by a key
       table; each encoding is serialized and interned once (unary
       consequences share their seed's) *)
    let n_in = List.length t.seeds in
    let sb = Edgebuf.create ~capacity:(max 256 n_in) () in
    let keys = Keys.create n_in in
    let add ~src ~dst ~label id =
      let slot = Keys.find keys sb ~src ~dst ~label in
      if not (Keys.mem keys sb slot id) then begin
        Edgebuf.push sb ~src ~dst ~label ~enc_id:id;
        Keys.add keys sb slot (Edgebuf.n sb - 1)
      end
    in
    List.iter
      (fun (e : edge) ->
        let id = Edgebuf.intern sb e.enc in
        add ~src:e.src ~dst:e.dst ~label:(L.to_int e.label) id;
        List.iter
          (fun (d : edge) ->
            let id = if d.enc == e.enc then id else Edgebuf.intern sb d.enc in
            add ~src:d.src ~dst:d.dst ~label:(L.to_int d.label) id)
          (consequences e))
      t.seeds;
    t.seeds <- [];
    let n = Edgebuf.n sb in
    t.n_seed_edges <- n;
    (* file order: by src, and newest first within a src *)
    let order = Array.init n (fun i -> n - 1 - i) in
    Array.stable_sort
      (fun a b -> Int.compare (Edgebuf.src sb a) (Edgebuf.src sb b))
      order;
    let k = max 1 t.config.target_partitions in
    let per = max 1 ((n + k - 1) / k) in
    (* choose interval boundaries at multiples of [per], aligned to source
       vertex changes so an interval never splits a vertex *)
    let bounds = ref [] in
    let last_src = ref (-1) in
    Array.iteri
      (fun i p ->
        let src = Edgebuf.src sb p in
        if i > 0 && i mod per = 0 && src <> !last_src then
          bounds := src :: !bounds;
        last_src := src)
      order;
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
    (* one ordered pass: the metas ascend by [lo] and [order] by [src], so
       each partition's slice is the next contiguous run of [order] (the
       last interval's [hi] is [max_vertex + 1], so it takes the rest) *)
    let next = ref 0 in
    let local = Array.make (Edgebuf.pool_size sb) (-1) in
    List.iter
      (fun meta ->
        (* [local]: seed pool id -> this partition's pool id, interning
           each encoding at its first use so the pool keeps that order *)
        Array.fill local 0 (Array.length local) (-1);
        let buf = Edgebuf.create () in
        while !next < n && Edgebuf.src sb order.(!next) < meta.hi do
          let p = order.(!next) in
          let id = Edgebuf.enc_id sb p in
          if local.(id) < 0 then
            local.(id) <- Edgebuf.intern_bytes buf (Edgebuf.enc_bytes sb id);
          Edgebuf.push buf ~src:(Edgebuf.src sb p) ~dst:(Edgebuf.dst sb p)
            ~label:(Edgebuf.label sb p) ~enc_id:local.(id);
          incr next
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

  (* How many candidates the join decides between two budget polls. *)
  let poll_every = 2048

  (* The verdict on a candidate's path constraint: one cache hit, or one
     solver call whose result is cached.  With feasibility off, every
     composition succeeds. *)
  let feasible t ~(bytes : string) (enc : Encoding.t) : bool =
    let m = t.metrics in
    (not t.config.feasibility_enabled)
    ||
    (* a disabled cache is never consulted, so it must not count lookups:
       otherwise stats report a 0% hit rate for a cache that is off *)
    match
      if t.config.cache_enabled then begin
        Metrics.incr m.Metrics.cache_lookups;
        Lru.find t.cache bytes
      end
      else None
    with
    | Some ok ->
        Metrics.incr m.Metrics.cache_hits;
        ok
    | None ->
        let formula = Metrics.time m `Decode (fun () -> t.decode enc) in
        let ok =
          Metrics.time m `Solve (fun () ->
              match Solver.check formula with
              | Solver.Sat | Solver.Unknown -> true
              | Solver.Unsat -> false)
        in
        Metrics.incr m.Metrics.constraints_solved;
        if t.config.cache_enabled then Lru.add t.cache bytes ok;
        ok

  (* Join the loaded partitions to a local fixpoint, semi-naively: each
     superstep pairs only the edges appended since the last superstep (the
     delta) with their partners, found by walking per-vertex chains.
     Settled edges are never re-paired against each other — within a pair,
     and (via [prepare]'s cross-pair counts) across a pair's reprocessings.

     Coverage: for a delta edge e and a settled or delta partner f, the
     ordered pair (e, f) is generated exactly once —
       - e on the left: the src chain of e's [dst] in the partition owning
         it, below that partition's snapshot (settled and delta partners,
         so delta x delta included);
       - e on the right: every loaded partition's dst chain of e's [src],
         below its [indexed] bound (settled partners only: delta x delta
         was covered by the left pass).
     Chains list positions in ascending order, so partners are visited in
     (key, position) order: that fixes every downstream insertion order,
     and with it the partition files.  Each candidate is decided where the
     walk finds it, and a feasible one is inserted at once: it lands past
     every bound, so the walks in progress never see it, and it joins as
     the next superstep's delta.

     [route] receives edges owned by partitions that are not loaded. *)
  let local_fixpoint t (loadeds : loaded list) ~route =
    let m = t.metrics in
    let rec owner_in v = function
      | [] -> None
      | l :: rest ->
          if v >= l.meta.lo && v < l.meta.hi then Some l else owner_in v rest
    in
    let find_loaded v = owner_in v loadeds in
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
    (* budgets are polled every [poll_every] candidates, so a runaway pair
       cannot exceed its allowance by more than that much work *)
    let since_poll = ref 0 in
    let poll () =
      since_poll := 0;
      check_budgets t
    in
    (* a candidate becomes an edge unless it cannot materialize — its owner
       is loaded and already holds it or is at the witness cap, checked
       first so no verdict is paid for a doomed candidate — or its path is
       infeasible.  It is inserted locally when a loaded partition owns its
       source (counted once, here and only here), routed otherwise (routed
       edges are counted by [flush_external], when they genuinely land in
       their target file) *)
    let decide ~src ~dst ~label enc =
      incr since_poll;
      if !since_poll >= poll_every then poll ();
      Metrics.incr m.Metrics.edges_considered;
      let bytes = Encoding.to_bytes enc in
      match find_loaded src with
      | Some l ->
          let slot = free_slot t l ~src ~dst ~label ~bytes in
          if slot >= 0 && feasible t ~bytes enc then begin
            push l slot ~src ~dst ~label ~bytes ~enc;
            Metrics.incr m.Metrics.edges_added;
            dispatch_consequences ~src ~dst ~label ~enc
          end
      | None ->
          if feasible t ~bytes enc then begin
            route { p_src = src; p_dst = dst; p_label = label; p_bytes = bytes;
                    p_enc = enc };
            dispatch_consequences ~src ~dst ~label ~enc
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
            if cap = 0 || Encoding.n_elements enc <= cap then
              decide ~src:(Edgebuf.src l1.buf i1) ~dst:(Edgebuf.dst l2.buf i2)
                ~label:code enc
        | exception Encoding.Incomposable -> ()
      end
    in
    (* delta edge [i] of [l] as the right edge of a pair: the settled
       partners in every loaded partition *)
    let rec join_right l i v_src = function
      | [] -> ()
      | l1 :: rest ->
          let j = ref (Chains.first_dst l1.chains v_src) in
          while !j >= 0 && !j < l1.indexed do
            try_pair l1 !j l i;
            j := Chains.next_dst l1.chains !j
          done;
          join_right l i v_src rest
    in
    (* every delta edge of [l], first as the left edge of a pair — partners
       in the partition owning its [dst], settled and in-flight delta alike
       — then as the right edge *)
    let join_delta l =
      for i = l.indexed to l.snap - 1 do
        let v_dst = Edgebuf.dst l.buf i in
        (match find_loaded v_dst with
        | Some l2 ->
            let j = ref (Chains.first_src l2.chains v_dst) in
            while !j >= 0 && !j < l2.snap do
              try_pair l i l2 !j;
              j := Chains.next_src l2.chains !j
            done
        | None -> ());
        join_right l i (Edgebuf.src l.buf i) loadeds
      done
    in
    Metrics.time m `Join (fun () ->
        let continue_ = ref true in
        while !continue_ do
          poll ();
          List.iter (fun l -> l.snap <- Edgebuf.n l.buf) loadeds;
          if List.for_all (fun l -> l.indexed >= l.snap) loadeds then
            continue_ := false
          else begin
            List.iter join_delta loadeds;
            (* edges inserted during this superstep sit past [snap] and
               form the next delta *)
            List.iter (fun l -> l.indexed <- l.snap) loadeds
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
                  let keys = Keys.create (Edgebuf.n buf) in
                  ignore (Keys.build keys buf : bool);
                  let added = ref 0 in
                  List.iter
                    (fun p ->
                      let id =
                        Edgebuf.intern_bytes ~decoded:p.p_enc buf p.p_bytes
                      in
                      let slot =
                        Keys.find keys buf ~src:p.p_src ~dst:p.p_dst
                          ~label:p.p_label
                      in
                      if not (Keys.mem keys buf slot id) then begin
                        Edgebuf.push buf ~src:p.p_src ~dst:p.p_dst
                          ~label:p.p_label ~enc_id:id;
                        Keys.add keys buf slot (Edgebuf.n buf - 1);
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
    | [ la ] -> prepare la ~upto:ca ~pair:loadeds
    | [ la; lb ] ->
        prepare la ~upto:ca ~pair:loadeds;
        prepare lb ~upto:cb ~pair:loadeds
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

  (* Read one partition file as stored (no membership tables: every writer
     deduplicates, so the file holds each edge once). *)
  let read_partition t (meta : pmeta) : Edgebuf.t =
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
    outcome.Storage.buf

  let edge_at buf i =
    { src = Edgebuf.src buf i; dst = Edgebuf.dst buf i;
      label = L.of_int (Edgebuf.label buf i);
      enc = Edgebuf.enc buf (Edgebuf.enc_id buf i) }

  (* Fold every edge.  Edges are folded newest-first per partition, matching
     the historical reverse-insertion-order iteration that report generation
     depends on. *)
  let fold_edges t f acc =
    List.fold_left
      (fun acc meta ->
        let buf = read_partition t meta in
        let acc = ref acc in
        for i = Edgebuf.n buf - 1 downto 0 do
          acc := f !acc (edge_at buf i)
        done;
        !acc)
      acc t.parts

  (* Exact total edge count: the record counts, nothing decoded. *)
  let total_edges t =
    List.fold_left (fun n meta -> n + Edgebuf.n (read_partition t meta)) 0
      t.parts

  (* [fold_edges] restricted to result labels, testing the label code before
     an edge is built (and its encoding decoded). *)
  let iter_result_edges t f =
    List.iter
      (fun meta ->
        let buf = read_partition t meta in
        for i = Edgebuf.n buf - 1 downto 0 do
          if L.is_result (L.of_int (Edgebuf.label buf i)) then f (edge_at buf i)
        done)
      t.parts

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
