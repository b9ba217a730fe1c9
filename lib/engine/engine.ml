(* Grapple's single-machine, disk-based graph engine (§4.3).

   The engine performs constraint-guided dynamic transitive closure: the
   input graph is partitioned by source-vertex intervals into on-disk edge
   partitions; each scheduling step loads a pair of partitions, joins every
   pair of consecutive edges whose labels compose under the client grammar
   and whose conjoined path constraint is satisfiable, and flushes new edges
   to the partitions owning their source vertices.  Constraint results are
   memoized at two levels: an LRU cache keyed by path encoding, and behind
   it one keyed by the decoded constraint, since many encodings decode to
   the same constraint.

   The memory budget ([max_edges_per_partition]) alone decides the
   partitions, by one rule ([partition]): order the edges by source and cut
   them, at source changes only, into pieces of at most a cap.
   [preprocess] cuts the closed seeds with half the budget as the cap, so
   that any two fresh partitions — a pair — fit in the budget together; a
   vertex's edges are never split, so only a partition holding a single
   source may exceed half.  A partition that outgrows the whole budget is
   split eagerly when it is flushed, by the same rule with half its own
   size as the cap: it splits in two (three when one source's run
   straddles the middle), not into many half-budget pieces, each of which
   the scheduler would join again from its first record.

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
   the scheduler records each partition's record count at every pair's last
   local fixpoint; a pair needs work again once either partition holds more
   records than that, and reprocessing starts its delta there (valid because
   partition files only grow by appending behind that prefix).

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

(* rm -r *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* The cut rule of every partitioner, this engine's and the string
   baseline's.  Given [n] records sorted by source, record [i] with source
   [src i] and size [size i], returns the pieces as index ranges
   [(first, last)], [last] exclusive, in order; there is always one.  A
   piece ends where the next source's records would take it past [cap]; a
   source's records are never split, so only a piece holding one source
   can exceed [cap]. *)
let pieces ~n ~src ~size ~cap =
  let rec go first i piece acc =
    if i >= n then List.rev ((first, n) :: acc)
    else begin
      let s = src i in
      let j = ref i and run = ref 0 in
      while !j < n && src !j = s do
        run := !run + size !j;
        incr j
      done;
      if piece > 0 && piece + !run > cap then go i !j !run ((first, i) :: acc)
      else go first !j (piece + !run) acc
    end
  in
  go 0 0 0 []

let default_config ~workdir =
  { workdir;
    max_edges_per_partition = 200_000;
    cache_enabled = true;
    feasibility_enabled = true;
    max_path_elements = 64;
    max_encodings_per_key = 8;
    max_retries = 3;
    retry_base_ms = 2.;
    edge_budget = 0;
    wall_budget_s = 0. }

module Make (L : LABEL_LOGIC) = struct
  type edge = { src : int; dst : int; label : L.t; enc : Encoding.t }
  (* the boxed view, used at the API boundary (results, consequence
     expansion); seeds and the join loop work on int-packed [Edgebuf]
     records *)

  type pmeta = {
    pid : int;
    lo : int;
    hi : int;  (* owns source vertices in [lo, hi) *)
    path : string;
    mutable n_edges : int;
        (* records in the file: exact, since [read_partition] and
           [write_partition] set it on every read and write *)
    mutable restored : bool;
        (* restored from a checkpoint and not loaded since: the file may
           hold records of a crashed pair whose consequences never landed *)
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
    verdicts : (int * Formula.t, bool) Lru.t;
        (* the same verdicts keyed by decoded constraint, behind [cache]: a
           miss there decodes, and a hit here spares the solver.  The key
           leads with [Formula.hash], which reads the whole constraint, so
           the table's polymorphic hash does too *)
    mutable resident : (int * loaded) list;
        (* pid -> loaded partitions known to be in sync with their files;
           at most the two partitions of the current pair, so the memory
           budget ("any two partitions fit") is unchanged.  The scheduler
           holds one partition fixed across its inner loop, so residency
           turns half of all pair loads into no-ops. *)
    mutable parts : pmeta list;  (* sorted by [lo] *)
    mutable next_pid : int;
    mutable seeds : Edgebuf.t;
        (* the seed edges in emission order, only before [run]: [add_seed]
           appends to it, and a graph builder may fill it directly *)
    mutable n_seed_edges : int;
    mutable seed_digest : int;
        (* [Edgebuf.digest] of the seeds, set by [run]: the checkpoint
           names the graph it closes, and a restore checks it *)
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
      verdicts = Lru.create 65_536;
      resident = [];
      parts = [];
      next_pid = 0;
      seeds = Edgebuf.create ();
      n_seed_edges = 0;
      seed_digest = 0;
      max_vertex = 0;
      ran = false;
      run_start = 0. }

  (* Sync pull-style counts (the two LRUs' eviction tallies) into the
     registry on read.  [set] makes repeated reads idempotent. *)
  let metrics t =
    Metrics.set_count t.metrics.Metrics.cache_evictions
      (Lru.evictions t.cache + Lru.evictions t.verdicts);
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
            (Faults.backoff_delay_s ~base_ms:t.config.retry_base_ms ~attempt);
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

  (* The seed buffer, for a builder that writes its seeds straight in:
     records with label codes ([L.to_int]) and pool ids of the buffer. *)
  let seeds t =
    if t.ran then invalid_arg "Engine.seeds: engine already ran";
    t.seeds

  let add_seed t ~src ~dst ~label ~enc =
    Edgebuf.push_edge (seeds t) ~src ~dst ~label:(L.to_int label) enc

  let drop_seeds t = t.seeds <- Edgebuf.create ~capacity:0 ()

  (* ---------------- partition bookkeeping ---------------- *)

  let part_path t pid = Filename.concat t.config.workdir
      (Printf.sprintf "p%04d.edges" pid)

  (* A partition with a fresh pid over sources [lo, hi), before its file is
     written. *)
  let new_part t lo hi =
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    { pid; lo; hi; path = part_path t pid; n_edges = 0; restored = false }

  let owner t (v : int) : pmeta =
    match List.find_opt (fun p -> v >= p.lo && v < p.hi) t.parts with
    | Some p -> p
    | None ->
        invalid_arg (Printf.sprintf "Engine.owner: vertex %d out of range" v)

  (* ---------------- the one reader and the one writer ---------------- *)

  (* Read a partition file: pair loads, routed appends, result scans and
     restore all come through here.  Damage is never fatal: the valid
     prefix is returned and the damage is logged and counted.  Sets the
     partition's record count to the records read.  Returns the records in
     file order and whether the file was damaged. *)
  let read_partition t (meta : pmeta) : Edgebuf.t * bool =
    let outcome =
      Metrics.time t.metrics `Io (fun () ->
          with_retries t (fun () -> Storage.read_flat ~path:meta.path))
    in
    Metrics.add t.metrics.Metrics.bytes_read outcome.Storage.bytes;
    let buf = outcome.Storage.buf in
    meta.n_edges <- Edgebuf.n buf;
    match outcome.Storage.corrupt with
    | None -> (buf, false)
    | Some c ->
        Logs.warn (fun k ->
            k "partition %s: %a — kept %d-record prefix"
              (Filename.basename meta.path) Storage.pp_corruption c
              (Edgebuf.n buf));
        Metrics.incr t.metrics.Metrics.corrupt_reads;
        Obs.Trace.instant ~cat:"storage"
          ~args:[ ("pid", Obs.Trace.Int meta.pid);
                  ("kept_records", Obs.Trace.Int (Edgebuf.n buf)) ]
          "storage.corrupt_recovered";
        (buf, true)

  (* Replace a partition file with [buf]: preprocessing, flushes, splits
     and routed appends all come through here.  Sets the partition's record
     count to the records written. *)
  let write_partition t (meta : pmeta) (buf : Edgebuf.t) =
    let bytes =
      Metrics.time t.metrics `Io (fun () ->
          with_retries t (fun () -> Storage.write_flat ~path:meta.path buf))
    in
    Metrics.add t.metrics.Metrics.bytes_written bytes;
    meta.n_edges <- Edgebuf.n buf

  (* ---------------- the one partitioner ---------------- *)

  (* Cut [buf], whose sources lie in [lo, hi), into partitions of at most
     [cap] records by [pieces], write each with its own encoding pool, and
     return them in ascending [lo]: the closed seeds in [preprocess], and a
     partition that outgrew the budget in [flush].  Records are ordered by
     source by a stable counting sort, and within a source by position:
     descending when [newest_first], which lays the seeds, built newest
     first, out in emission order, else ascending, which keeps a loaded
     partition's file order.  A piece interns each encoding at its first
     use, so its pool keeps that order. *)
  let partition t (buf : Edgebuf.t) ~lo ~hi ~cap ~newest_first : pmeta list =
    let n = Edgebuf.n buf in
    let start = Array.make (hi - lo + 1) 0 in
    for p = 0 to n - 1 do
      let s = Edgebuf.src buf p - lo + 1 in
      start.(s) <- start.(s) + 1
    done;
    for v = 1 to hi - lo do
      start.(v) <- start.(v) + start.(v - 1)
    done;
    let order = Array.make n 0 in
    for i = 0 to n - 1 do
      let p = if newest_first then n - 1 - i else i in
      let s = Edgebuf.src buf p - lo in
      order.(start.(s)) <- p;
      start.(s) <- start.(s) + 1
    done;
    let src q = Edgebuf.src buf order.(q) in
    (* [local]: [buf] pool id -> the piece's pool id, reset after each piece *)
    let local = Array.make (Edgebuf.pool_size buf) (-1) in
    List.map
      (fun (first, last) ->
        let meta =
          new_part t
            (if first = 0 then lo else src first)
            (if last = n then hi else src last)
        in
        let piece = Edgebuf.create ~capacity:(last - first) () in
        for q = first to last - 1 do
          let p = order.(q) in
          let id = Edgebuf.enc_id buf p in
          if local.(id) < 0 then
            local.(id) <- Edgebuf.intern_bytes piece (Edgebuf.enc_bytes buf id);
          Edgebuf.push piece ~src:(Edgebuf.src buf p) ~dst:(Edgebuf.dst buf p)
            ~label:(Edgebuf.label buf p) ~enc_id:local.(id)
        done;
        for q = first to last - 1 do
          local.(Edgebuf.enc_id buf order.(q)) <- -1
        done;
        write_partition t meta piece;
        meta)
      (pieces ~n ~src ~size:(fun _ -> 1) ~cap)

  (* Append an edge to [buf] unless [keys], which indexes all of [buf],
     already holds it; true when it landed.  [enc_id] must be a canonical
     pool id of [buf] (as [Edgebuf.intern_bytes] returns). *)
  let append_unique keys buf ~src ~dst ~label ~enc_id =
    let slot = Keys.find keys buf ~src ~dst ~label in
    (not (Keys.mem keys buf slot enc_id))
    && begin
         Edgebuf.push buf ~src ~dst ~label ~enc_id;
         Keys.add keys buf slot (Edgebuf.n buf - 1);
         true
       end

  let load t (meta : pmeta) : loaded =
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pid", Obs.Trace.Int meta.pid) ]
      "engine.load"
    @@ fun () ->
    let raw, damaged = read_partition t meta in
    Metrics.incr t.metrics.Metrics.partition_loads;
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
          let bytes = Edgebuf.enc_bytes raw (Edgebuf.enc_id raw i) in
          let id = Edgebuf.intern_bytes b bytes in
          ignore
            (append_unique keys b ~src:(Edgebuf.src raw i)
               ~dst:(Edgebuf.dst raw i) ~label:(Edgebuf.label raw i) ~enc_id:id
              : bool)
        done;
        b
      end
    in
    (* dirty, so the next flush rewrites the file: without its duplicates,
       or as the repaired valid prefix of a damaged one.  A record lost with
       a damaged tail is rederived when its pair is reprocessed (the
       checkpoint manifest predates the damage). *)
    { meta; buf; keys; chains = Chains.create (Edgebuf.n buf); indexed = 0;
      snap = 0; dirty = dup || damaged }

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
    | Some l when l.meta == meta ->
        Metrics.incr t.metrics.Metrics.resident_hits;
        l
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

  (* Start a pair (la, lb), where [lb == la] for a partition paired with
     itself: positions of [l] below [upto] (the cross-pair delta start) are
     settled, and the chains are rebuilt for the pair's vertex intervals.
     [upto] past the buffer (a corruption-truncated file) clamps to the
     available prefix. *)
  let prepare (l : loaded) ~upto (la : loaded) (lb : loaded) =
    l.indexed <- min (max upto 0) (Edgebuf.n l.buf);
    let lo2, hi2 = if lb == la then (0, 0) else (lb.meta.lo, lb.meta.hi) in
    Chains.rebuild l.chains l.buf ~lo:l.meta.lo ~hi:l.meta.hi ~lo1:la.meta.lo
      ~hi1:la.meta.hi ~lo2 ~hi2

  (* ---------------- flush paths ---------------- *)

  (* Write a loaded partition back.  One that outgrew the memory budget is
     split eagerly (§4.3) by [partition] into halves, unless all its edges
     share one source, which no cut can divide.  Otherwise the buffer is
     already in file order, so the flush is one bulk serialization. *)
  let flush t (l : loaded) : unit =
    let count = Edgebuf.n l.buf in
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pid", Obs.Trace.Int l.meta.pid);
              ("edges", Obs.Trace.Int count);
              ("dirty", Obs.Trace.Bool l.dirty) ]
      "engine.flush"
    @@ fun () ->
    let one_source () =
      let s = Edgebuf.src l.buf 0 in
      let rec go i = i >= count || (Edgebuf.src l.buf i = s && go (i + 1)) in
      go 1
    in
    if count > t.config.max_edges_per_partition && not (one_source ())
    then begin
      let pieces =
        partition t l.buf ~lo:l.meta.lo ~hi:l.meta.hi
          ~cap:((count + 1) / 2) ~newest_first:false
      in
      Storage.remove_file ~path:l.meta.path;
      t.parts <-
        List.sort
          (fun a b -> compare a.lo b.lo)
          (pieces @ List.filter (fun p -> p.pid <> l.meta.pid) t.parts);
      Metrics.incr t.metrics.Metrics.repartitions;
      Obs.Trace.instant ~cat:"engine"
        ~args:[ ("split_pid", Obs.Trace.Int l.meta.pid);
                ("pieces", Obs.Trace.Int (List.length pieces)) ]
        "engine.repartition"
    end
    else if l.dirty then begin
      write_partition t l.meta l.buf;
      l.dirty <- false  (* back in sync with the file: residency-safe *)
    end

  (* ---------------- preprocessing ---------------- *)

  (* Close the seed edges under their unary and mirror consequences into
     one buffer, deduplicated by a key table, and partition it.  The walk
     takes the seed buffer newest first: a duplicated seed keeps its newest
     copy.  An int array maps each seed pool id to the closed buffer's, so
     each distinct encoding is interned once. *)
  let preprocess t =
    Obs.Trace.with_span ~cat:"engine" "engine.preprocess" @@ fun () ->
    let seeds = t.seeds in
    let m = Edgebuf.n seeds in
    let sb = Edgebuf.create ~capacity:(max 256 m) () in
    let keys = Keys.create m in
    let add ~src ~dst ~label id =
      ignore (append_unique keys sb ~src ~dst ~label ~enc_id:id : bool)
    in
    (* seed pool id -> [sb] pool id of the encoding, and of its reverse *)
    let fwd = Array.make (Edgebuf.pool_size seeds) (-1) in
    let bwd = Array.make (Edgebuf.pool_size seeds) (-1) in
    for i = m - 1 downto 0 do
      let e = Edgebuf.enc_id seeds i in
      if fwd.(e) < 0 then
        fwd.(e) <- Edgebuf.intern_bytes sb (Edgebuf.enc_bytes seeds e);
      let src = Edgebuf.src seeds i and dst = Edgebuf.dst seeds i in
      let code = Edgebuf.label seeds i in
      add ~src ~dst ~label:code fwd.(e);
      let label = L.of_int code in
      let unary = L.unary label in
      List.iter (fun l -> add ~src ~dst ~label:(L.to_int l) fwd.(e)) unary;
      List.iter
        (fun l ->
          match L.mirror l with
          | Some l' ->
              if bwd.(e) < 0 then
                bwd.(e) <-
                  Edgebuf.intern sb (Encoding.rev (Edgebuf.enc seeds e));
              add ~src:dst ~dst:src ~label:(L.to_int l') bwd.(e)
          | None -> ())
        (label :: unary)
    done;
    drop_seeds t;
    t.n_seed_edges <- Edgebuf.n sb;
    t.parts <-
      partition t sb ~lo:0 ~hi:(t.max_vertex + 1)
        ~cap:(max 1 (t.config.max_edges_per_partition / 2))
        ~newest_first:true

  (* ---------------- the edge-pair-centric computation ---------------- *)

  (* How many candidates the join decides between two budget polls. *)
  let poll_every = 2048

  (* The verdict on a candidate's path constraint: a hit in the encoding
     cache, or a decode and then a hit in the constraint cache, or a decode
     and one solver call whose result both caches keep.  So every lookup is
     one hit or one solve.  With feasibility off, every composition
     succeeds. *)
  let feasible t ~(bytes : string) (enc : Encoding.t) : bool =
    let m = t.metrics in
    let solve formula =
      let ok =
        Metrics.time m `Solve (fun () ->
            match Solver.check formula with
            | Solver.Sat | Solver.Unknown -> true
            | Solver.Unsat -> false)
      in
      Metrics.incr m.Metrics.constraints_solved;
      ok
    in
    let hit ok =
      Metrics.incr m.Metrics.cache_hits;
      ok
    in
    (not t.config.feasibility_enabled)
    ||
    (* a disabled cache is never consulted, so it must not count lookups:
       otherwise stats report a 0% hit rate for a cache that is off *)
    if not t.config.cache_enabled then
      solve (Metrics.time m `Decode (fun () -> t.decode enc))
    else begin
      Metrics.incr m.Metrics.cache_lookups;
      match Lru.find t.cache bytes with
      | Some ok -> hit ok
      | None ->
          let ((_, formula) as key) =
            Metrics.time m `Decode (fun () ->
                let f = t.decode enc in
                (Formula.hash f, f))
          in
          let ok =
            match Lru.find t.verdicts key with
            | Some ok -> hit ok
            | None ->
                let ok = solve formula in
                Lru.add t.verdicts key ok;
                ok
          in
          Lru.add t.cache bytes ok;
          ok
    end

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
              let slot =
                free_slot t l' ~src:d.src ~dst:d.dst ~label:dl ~bytes:db
              in
              if slot >= 0 then begin
                push l' slot ~src:d.src ~dst:d.dst ~label:dl ~bytes:db
                  ~enc:d.enc;
                Metrics.incr m.Metrics.edges_added
              end
          | None ->
              route
                { p_src = d.src; p_dst = d.dst; p_label = dl; p_bytes = db;
                  p_enc = d.enc })
        (consequences e)
    in
    (* A restored partition's first load dispatches the consequences of its
       delta again.  A crash between a pair's flushes and its routed
       appends can leave an edge on disk whose consequences were lost, and
       the join never re-dispatches them for an edge it finds present.
       Every recorded count predates the crash, so the delta holds every
       such edge; consequences that did land deduplicate. *)
    List.iter
      (fun l ->
        if l.meta.restored then begin
          l.meta.restored <- false;
          for i = l.indexed to Edgebuf.n l.buf - 1 do
            dispatch_consequences ~src:(Edgebuf.src l.buf i)
              ~dst:(Edgebuf.dst l.buf i) ~label:(Edgebuf.label l.buf i)
              ~enc:(Edgebuf.enc l.buf (Edgebuf.enc_id l.buf i))
          done
        end)
      loadeds;
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
     rediscovery of a known fact adds nothing, and leaves the file as it
     was. *)
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
        let buf, _ = read_partition t meta in
        let keys = Keys.create (Edgebuf.n buf) in
        ignore (Keys.build keys buf : bool);
        let added =
          List.fold_left
            (fun n p ->
              let enc_id =
                Edgebuf.intern_bytes ~decoded:p.p_enc buf p.p_bytes
              in
              if
                append_unique keys buf ~src:p.p_src ~dst:p.p_dst
                  ~label:p.p_label ~enc_id
              then n + 1
              else n)
            0
            (List.rev !(Hashtbl.find by_owner meta.pid))
        in
        if added > 0 then begin
          write_partition t meta buf;
          Metrics.add t.metrics.Metrics.edges_added added;
          (* the file just outgrew any resident copy *)
          t.resident <- List.remove_assoc meta.pid t.resident
        end)
      (List.rev !order)

  (* Process one scheduled pair of partitions.  [counts] are its
     partitions' record counts at the pair's previous local fixpoint
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
    let la = load_resident t pa in
    let lb = if pb.pid = pa.pid then la else load_resident t pb in
    let loadeds = if lb == la then [ la ] else [ la; lb ] in
    prepare la ~upto:ca la lb;
    if lb != la then prepare lb ~upto:cb la lb;
    let pending = ref [] in
    let route p = pending := p :: !pending in
    local_fixpoint t loadeds ~route;
    let counts' = (Edgebuf.n la.buf, Edgebuf.n lb.buf) in
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
  let checkpoint t (processed : (int * int, int * int) Hashtbl.t) =
    let parts =
      List.map
        (fun p ->
          { Manifest.pid = p.pid; lo = p.lo; hi = p.hi;
            file = Filename.basename p.path })
        t.parts
    in
    let frontier =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) processed []
      |> List.sort compare
    in
    let m =
      { Manifest.seed_digest = t.seed_digest; next_pid = t.next_pid;
        max_vertex = t.max_vertex; n_seed_edges = t.n_seed_edges; parts;
        processed = frontier }
    in
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("parts", Obs.Trace.Int (List.length parts)) ]
      "engine.checkpoint"
      (fun () ->
        Metrics.time t.metrics `Io (fun () ->
            with_retries t (fun () -> Manifest.save ~workdir:t.config.workdir m)));
    Faults.on_checkpoint ()

  (* Restore partition metadata and the scheduler frontier from the last
     checkpoint; false when there is none, it failed validation, or it
     closes another graph. *)
  let try_restore t (processed : (int * int, int * int) Hashtbl.t) : bool =
    match with_retries t (fun () -> Manifest.load ~workdir:t.config.workdir) with
    | None -> false
    | Some m when m.Manifest.seed_digest <> t.seed_digest ->
        (* a checkpoint of other seeds: resuming it would close the wrong
           graph *)
        false
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
                n_edges = 0; restored = true })
            m.Manifest.parts
          |> List.sort (fun a b -> compare a.lo b.lo);
        (* the files may be newer than the manifest (a crash between a
           rename and the next checkpoint), so the record counts come from
           the files *)
        List.iter
          (fun meta -> ignore (read_partition t meta : Edgebuf.t * bool))
          t.parts;
        t.next_pid <- m.Manifest.next_pid;
        t.max_vertex <- max t.max_vertex m.Manifest.max_vertex;
        t.n_seed_edges <- m.Manifest.n_seed_edges;
        drop_seeds t;  (* the partitions already hold the preprocessed seeds *)
        List.iter (fun (k, v) -> Hashtbl.replace processed k v)
          m.Manifest.processed;
        true

  (* Run to global fixpoint.  With [~resume:true], continue from the
     workdir's checkpoint manifest when one validates and names these
     seeds (fresh run otherwise): partitions and frontier are restored and
     only pairs with records their last fixpoint did not see are
     (re)processed — and those only past the recorded counts.  The
     closure is confluent — facts accumulate monotonically and deduplicate
     — so a resumed run converges to the same fixpoint as an uninterrupted
     one. *)
  let run ?(resume = false) t =
    if t.ran then invalid_arg "Engine.run: already ran";
    t.ran <- true;
    t.run_start <- Unix.gettimeofday ();
    t.seed_digest <- Edgebuf.digest t.seeds;
    (* every vertex a seed names: the last partition's bound *)
    for i = 0 to Edgebuf.n t.seeds - 1 do
      t.max_vertex <-
        max t.max_vertex (max (Edgebuf.src t.seeds i) (Edgebuf.dst t.seeds i))
    done;
    (* (pid_min, pid_max) -> (count_min, count_max): the partitions' record
       counts at the pair's last local fixpoint, stored in pid order *)
    let processed : (int * int, int * int) Hashtbl.t = Hashtbl.create 256 in
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
                  (* counts in (pa, pb) order; its own inverse *)
                  let orient (x, y) =
                    if pa.pid > pb.pid then (y, x) else (x, y)
                  in
                  let seen =
                    Option.map orient (Hashtbl.find_opt processed key)
                  in
                  (* the count clock: a pair needs work when either
                     partition holds records its last fixpoint did not see *)
                  let needs =
                    match seen with
                    | None -> true
                    | Some (ca, cb) -> pa.n_edges > ca || pb.n_edges > cb
                  in
                  if needs then begin
                    continue := true;
                    let counts = Option.value seen ~default:(0, 0) in
                    let counts' = process_pair t pa pb ~counts in
                    Hashtbl.replace processed key (orient counts');
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

  let edge_at buf i =
    { src = Edgebuf.src buf i; dst = Edgebuf.dst buf i;
      label = L.of_int (Edgebuf.label buf i);
      enc = Edgebuf.enc buf (Edgebuf.enc_id buf i) }

  (* A partition's records as the file holds them: the resident copy when
     it is in sync with the file — after [run], the last pair's partitions
     are — else the file, read. *)
  let records t (meta : pmeta) : Edgebuf.t =
    match List.assoc_opt meta.pid t.resident with
    | Some l when l.meta == meta -> l.buf
    | _ -> fst (read_partition t meta)

  (* Fold every edge.  Edges are folded newest-first per partition, matching
     the historical reverse-insertion-order iteration that report generation
     depends on. *)
  let fold_edges t f acc =
    List.fold_left
      (fun acc meta ->
        let buf = records t meta in
        let acc = ref acc in
        for i = Edgebuf.n buf - 1 downto 0 do
          acc := f !acc (edge_at buf i)
        done;
        !acc)
      acc t.parts

  (* Exact total edge count: the sum of the partitions' record counts,
     nothing read. *)
  let total_edges t = List.fold_left (fun n meta -> n + meta.n_edges) 0 t.parts

  (* Every edge with a result label, in [fold_edges]' order, as its int
     fields and the label's code ([L.to_int]); [enc ()] decodes the edge's
     encoding, so a caller pays the decode only for the edges it keeps. *)
  let iter_result_edges t
      (f : src:int -> dst:int -> label:int -> (unit -> Encoding.t) -> unit) =
    List.iter
      (fun meta ->
        let buf = records t meta in
        for i = Edgebuf.n buf - 1 downto 0 do
          let label = Edgebuf.label buf i in
          if L.is_result (L.of_int label) then
            f ~src:(Edgebuf.src buf i) ~dst:(Edgebuf.dst buf i) ~label
              (fun () -> Edgebuf.enc buf (Edgebuf.enc_id buf i))
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
