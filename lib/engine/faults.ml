(* Deterministic fault injection.

   A fault plan is a seeded description of which operations fail and how.
   The plan is installed process-wide; the storage primitives consult it at
   each operation, and the shard supervisor at each instance dispatch, so
   every layer above (engine retries, the pipeline's attempts, re-dispatch,
   checkpoint/resume) can be exercised against reproducible failures.  Three
   classes of injected event:

   - [Injected] simulates a recoverable operation failure (EIO, ENOSPC, a
     torn write): the retry machinery is expected to absorb it.
   - [Crash] simulates the process being killed at a crash point (around a
     rename, or at a checkpoint boundary): nothing may catch it except a
     test harness standing in for process supervision; recovery happens via
     [--resume] in a fresh run.
   - A killed worker: the shard worker process forked for the Nth
     instance dispatch of the run is SIGKILLed before it starts the
     instance, and the supervisor must re-dispatch it or degrade it.

   All decisions are pure functions of (seed, per-kind operation counter),
   so a plan replays identically across runs. *)

type kind =
  | Fail_read             (* raise before any bytes are read *)
  | Fail_write            (* raise before any bytes are written *)
  | Short_write           (* persist a truncated temp file, then raise *)
  | Crash_before_rename   (* kill between temp write and publish *)
  | Crash_after_rename    (* kill just after publish *)
  | Crash_checkpoint      (* kill at a checkpoint boundary *)
  | Kill_worker           (* SIGKILL the shard worker of a dispatch *)

type directive =
  | Nth of kind * int  (* fire on the Nth operation of the matching class *)
  | Rate of float      (* fail reads/writes with this seeded probability *)

type plan = {
  seed : int;
  directives : directive list;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_renames : int;
  mutable n_checkpoints : int;
  mutable n_injected : int;  (* Injected faults fired (crashes excluded) *)
}

exception Injected of string
exception Crash of string

let make ?(seed = 1) directives =
  { seed; directives; n_reads = 0; n_writes = 0; n_renames = 0;
    n_checkpoints = 0; n_injected = 0 }

(* ---------------- plan syntax ----------------

   Comma-separated [key=value] directives, e.g.
     "seed=42,rate=0.05"
     "fail-write=3,short-write=5,crash-checkpoint=2"
     "kill-worker=2"                                                        *)

let parse (spec : string) : plan =
  let seed = ref 1 and directives = ref [] in
  let fail fmt = Printf.ksprintf invalid_arg ("Faults.parse: " ^^ fmt) in
  String.split_on_char ',' spec
  |> List.iter (fun item ->
         let item = String.trim item in
         if item <> "" then
           match String.index_opt item '=' with
           | None -> fail "missing '=' in %S" item
           | Some i ->
               let key = String.sub item 0 i in
               let value = String.sub item (i + 1) (String.length item - i - 1) in
               let int_v () =
                 match int_of_string_opt value with
                 | Some n when n > 0 -> n
                 | _ -> fail "%s wants a positive integer, got %S" key value
               in
               (match key with
               | "seed" -> seed := int_v ()
               | "rate" -> (
                   match float_of_string_opt value with
                   | Some r when r >= 0. && r <= 1. ->
                       directives := Rate r :: !directives
                   | _ -> fail "rate wants a float in [0, 1], got %S" value)
               | "fail-read" -> directives := Nth (Fail_read, int_v ()) :: !directives
               | "fail-write" -> directives := Nth (Fail_write, int_v ()) :: !directives
               | "short-write" -> directives := Nth (Short_write, int_v ()) :: !directives
               | "crash-before-rename" ->
                   directives := Nth (Crash_before_rename, int_v ()) :: !directives
               | "crash-after-rename" ->
                   directives := Nth (Crash_after_rename, int_v ()) :: !directives
               | "crash-checkpoint" ->
                   directives := Nth (Crash_checkpoint, int_v ()) :: !directives
               | "kill-worker" ->
                   directives := Nth (Kill_worker, int_v ()) :: !directives
               | _ -> fail "unknown directive %S" key));
  make ~seed:!seed (List.rev !directives)

(* ---------------- the installed plan ----------------

   One plan at a time, process-wide.  The CLI or a test installs the run's
   plan; the instance scheduler swaps in each checking instance's derived
   plan while that instance runs, so an instance's fault stream depends
   only on its own operation history, and restores the run's plan after. *)

let active : plan option ref = ref None
let install p = active := Some p
let clear () = active := None

(* The installed plan, for capturing a spec to derive from. *)
let current () : plan option = !active

let injected_count () =
  match !active with Some p -> p.n_injected | None -> 0

(* ---------------- deterministic decisions ---------------- *)

(* splitmix-style avalanche of (seed, stream tag, counter); also used by the
   retry backoff for its seeded jitter *)
let mix3 a b c =
  let z = (a * 0x9E3779B1) + (b * 0x85EBCA6B) + (c * 0xC2B2AE35) in
  let z = (z lxor (z lsr 15)) * 0x2545F491 in
  let z = (z lxor (z lsr 13)) * 0x5EB2D8C1 in
  (z lxor (z lsr 16)) land 0x3FFFFFFF

(* Deterministic retry backoff: [base * 2^attempt], scaled by a seeded
   jitter in [1, 2) that depends only on the attempt, so a given attempt
   always sleeps the same amount.  Shared by the engine's op-level
   retries, the pipeline's instance restarts, and the shard supervisor's
   re-dispatches. *)
let backoff_delay_s ~base_ms ~attempt =
  let jitter =
    1. +. (float_of_int (mix3 0x6a09 0x7e7 attempt mod 1000) /. 1000.)
  in
  base_ms /. 1000. *. (2. ** float_of_int attempt) *. jitter

(* A fresh plan with [base]'s directives, zeroed counters, and a seed mixed
   with [salt]: the per-instance plans of the instance scheduler.  Keying
   the stream off a stable instance identity (not a worker slot or a
   dispatch order) is what makes a run's fault decisions — and therefore
   its reports and fault counters — byte-identical at every process
   count. *)
let derive (base : plan) ~salt = make ~seed:(mix3 base.seed 0xd3e salt) base.directives

(* Stable salt for [derive]: FNV-1a over the instance's name. *)
let salt_of_string (s : string) : int =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

(* ---------------- storage-op observation (tests) ----------------

   [observer], when set, is called on every storage read and write with the
   operation and path — plan or no plan installed.  [scope] is the tag the
   scheduler sets to the instance it is running, so an observer can
   attribute each operation; the isolation stress test uses the pair to
   prove no partition file is ever touched by two instances. *)

type op = Op_read | Op_write

let observer : (op -> string -> unit) option ref = ref None
let set_observer f = observer := f

let scope_tag : string option ref = ref None
let set_scope s = scope_tag := s
let scope () = !scope_tag

let observe op path =
  match !observer with None -> () | Some f -> f op path

let rate_of p =
  List.fold_left
    (fun acc d -> match d with Rate r -> Float.max acc r | Nth _ -> acc)
    0. p.directives

let rate_hit p ~stream ~count =
  let r = rate_of p in
  r > 0. && float_of_int (mix3 p.seed stream count mod 1_000_000) < r *. 1_000_000.

let nth_hit p kind count =
  List.exists
    (function Nth (k, n) -> k = kind && n = count | Rate _ -> false)
    p.directives

let inject p msg =
  p.n_injected <- p.n_injected + 1;
  Obs.Trace.instant ~cat:"faults"
    ~args:[ ("msg", Obs.Trace.Str msg); ("nth", Obs.Trace.Int p.n_injected) ]
    "fault.injected";
  raise (Injected msg)

(* ---------------- hooks called by the storage layer ---------------- *)

let on_read ~path =
  observe Op_read path;
  match !active with
  | None -> ()
  | Some p ->
      p.n_reads <- p.n_reads + 1;
      if nth_hit p Fail_read p.n_reads || rate_hit p ~stream:1 ~count:p.n_reads
      then
        inject p
          (Printf.sprintf "injected read fault #%d on %s" p.n_reads
             (Filename.basename path))

(* An injected write fault fails before any bytes are written; a torn one
   first has [tear] persist a truncated prefix of the temp file, as ENOSPC
   or a crash mid-write would.  Both count as one injected fault. *)
let on_write ~path ~tear =
  observe Op_write path;
  match !active with
  | None -> ()
  | Some p ->
      p.n_writes <- p.n_writes + 1;
      let name = Filename.basename path in
      let fail () =
        inject p (Printf.sprintf "injected write fault #%d on %s" p.n_writes name)
      in
      let torn () =
        tear ();
        inject p (Printf.sprintf "injected short write on %s" name)
      in
      if nth_hit p Fail_write p.n_writes then fail ()
      else if nth_hit p Short_write p.n_writes then torn ()
      else if rate_hit p ~stream:2 ~count:p.n_writes then
        if mix3 p.seed 3 p.n_writes land 1 = 0 then fail () else torn ()

let before_rename ~path =
  match !active with
  | None -> ()
  | Some p ->
      p.n_renames <- p.n_renames + 1;
      if nth_hit p Crash_before_rename p.n_renames then
        raise
          (Crash
             (Printf.sprintf "crash before rename #%d of %s" p.n_renames
                (Filename.basename path)))

let after_rename ~path =
  match !active with
  | None -> ()
  | Some p ->
      if nth_hit p Crash_after_rename p.n_renames then
        raise
          (Crash
             (Printf.sprintf "crash after rename #%d of %s" p.n_renames
                (Filename.basename path)))

let on_checkpoint () =
  match !active with
  | None -> ()
  | Some p ->
      p.n_checkpoints <- p.n_checkpoints + 1;
      if nth_hit p Crash_checkpoint p.n_checkpoints then
        raise (Crash (Printf.sprintf "crash at checkpoint #%d" p.n_checkpoints))

(* Consulted by the shard supervisor, in the coordinator, as it forks the
   worker of the run's [nth] instance dispatch. *)
let kills_worker ~nth =
  match !active with Some p -> nth_hit p Kill_worker nth | None -> false
