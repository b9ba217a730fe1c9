(* Wall-clock and counter instrumentation for the engine, built on the
   observability registry (Obs.Registry).  The timers split into the four
   components of the paper's Figure 9: I/O, constraint encoding/decoding,
   SMT solving, and (in-memory) edge-pair computation; the counters cover
   solving, caching, edge derivation, partitioning, and storage-fault
   recovery.

   Each engine owns one [t] (one registry): an engine runs in a single
   domain, so updates need no synchronization.  Aggregation across engines
   — and therefore across worker domains — goes through [merge], which the
   registry performs in canonical (sorted-name) order, so totals are
   identical at every worker count. *)

module R = Obs.Registry

type t = {
  reg : R.t;
  io_s : R.gauge;
  decode_s : R.gauge;
  solve_s : R.gauge;
  join_s : R.gauge;
  constraints_solved : R.counter;  (* actual solver invocations *)
  cache_lookups : R.counter;       (* lookups against an *enabled* cache *)
  cache_hits : R.counter;
  cache_evictions : R.counter;     (* LRU entries displaced when full *)
  edges_added : R.counter;         (* transitive edges that survived *)
  edges_considered : R.counter;    (* candidate pairs that matched grammar *)
  pairs_processed : R.counter;     (* partition-pair loads: "iterations" *)
  repartitions : R.counter;
  bytes_read : R.counter;
  bytes_written : R.counter;
  retries : R.counter;             (* storage ops retried after a fault *)
  corrupt_reads : R.counter;       (* reads recovered from a damaged tail *)
  stale_temps : R.counter;         (* orphaned *.tmp files swept on open *)
}

(* The buckets of the [smt.batch_size] histogram, which the engine does not
   record: the repository benchmark still reads it by these bounds, and
   finds it empty. *)
let batch_size_bounds =
  [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]

(* Build the handle record over an existing registry (find-or-create), so a
   registry marshalled across a process boundary can be re-adopted. *)
let of_registry reg =
  { reg;
    io_s = R.gauge reg "engine.io_s";
    decode_s = R.gauge reg "engine.decode_s";
    solve_s = R.gauge reg "engine.solve_s";
    join_s = R.gauge reg "engine.join_s";
    constraints_solved = R.counter reg "engine.constraints_solved";
    cache_lookups = R.counter reg "engine.cache_lookups";
    cache_hits = R.counter reg "engine.cache_hits";
    cache_evictions = R.counter reg "engine.cache_evictions";
    edges_added = R.counter reg "engine.edges_added";
    edges_considered = R.counter reg "engine.edges_considered";
    pairs_processed = R.counter reg "engine.pairs_processed";
    repartitions = R.counter reg "engine.repartitions";
    bytes_read = R.counter reg "engine.bytes_read";
    bytes_written = R.counter reg "engine.bytes_written";
    retries = R.counter reg "engine.retries";
    corrupt_reads = R.counter reg "engine.corrupt_reads";
    stale_temps = R.counter reg "engine.stale_temps" }

let create () = of_registry (R.create ())

let registry (m : t) = m.reg

(* re-exported registry primitives, so call sites read [Metrics.incr] *)
let incr = R.incr ?by:None
let add c n = R.incr ~by:n c
let count = R.value
let set_count = R.set
let seconds = R.gauge_value

let timer_of (m : t) = function
  | `Io -> m.io_s
  | `Decode -> m.decode_s
  | `Solve -> m.solve_s
  | `Join -> m.join_s

(* Time [f] into the chosen component.  The delta is recorded in a
   finalizer so that a raising [f] — a budget abort, an injected fault —
   still contributes its elapsed time instead of silently dropping it. *)
let time (m : t) (field : [ `Io | `Decode | `Solve | `Join ]) f =
  let cell = timer_of m field in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> R.gauge_add cell (Unix.gettimeofday () -. t0))
    f

(* [None] when no lookup was ever counted — the cache is disabled or was
   never consulted — so callers can render "off" instead of a fake 0%. *)
let hit_rate (m : t) : float option =
  let lookups = count m.cache_lookups in
  if lookups = 0 then None
  else Some (float_of_int (count m.cache_hits) /. float_of_int lookups)

(* The Figure 9 percentages.  The join timer runs around the whole pair
   computation, so subtract the nested decode/solve time from it. *)
let breakdown (m : t) : (string * float) list =
  let io = seconds m.io_s
  and decode = seconds m.decode_s
  and solve = seconds m.solve_s in
  let join = Float.max 0. (seconds m.join_s -. decode -. solve) in
  let total = io +. decode +. solve +. join in
  let pct x = if total = 0. then 0. else 100. *. x /. total in
  [ ("I/O", pct io);
    ("Constraint lookup", pct decode);
    ("SMT solving", pct solve);
    ("Edge computation", pct join) ]

let merge ~(into : t) (m : t) = R.merge ~into:into.reg m.reg

let pp ppf (m : t) =
  Format.fprintf ppf
    "io=%.2fs decode=%.2fs solve=%.2fs join=%.2fs solved=%d hits=%d/%d \
     evictions=%d edges+=%d considered=%d pairs=%d repart=%d bytes=%d/%d \
     retries=%d corrupt=%d stale_tmp=%d"
    (seconds m.io_s) (seconds m.decode_s) (seconds m.solve_s)
    (seconds m.join_s) (count m.constraints_solved) (count m.cache_hits)
    (count m.cache_lookups) (count m.cache_evictions) (count m.edges_added)
    (count m.edges_considered) (count m.pairs_processed)
    (count m.repartitions) (count m.bytes_read) (count m.bytes_written)
    (count m.retries) (count m.corrupt_reads) (count m.stale_temps)
