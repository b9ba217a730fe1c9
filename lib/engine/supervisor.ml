(* Supervised multi-process shard runtime (ISSUE 8).

   Every dispatch of a task runs in its own forked child, at most [procs]
   children at a time.  The child runs one attempt, writes one frame to its
   pipe — the result payload followed by its 4-byte checksum — and exits.
   The coordinator waits on the running children's pipes in one [select]
   loop; at a pipe's end of file it reaps that child alone and accepts the
   frame only when the child exited 0 and the checksum holds.  Any other
   ending (a signal, a nonzero exit, a missing, torn or damaged frame)
   loses the attempt: the task is re-dispatched after a seeded exponential
   backoff, restarting from whatever checkpoint state the task's own
   [run_task] persisted, and after [max_redispatch] re-dispatches it degrades
   to [Degraded] instead of stalling the run.  A fault plan's
   [kill-worker=N] directive SIGKILLs the child of the run's Nth dispatch
   before it runs (see [Faults.kills_worker]).

   A result is read only after its child has ended, so no attempt can
   report late or twice.  Results are delivered as an array in task order,
   so the caller's canonical-order merge is independent of which slot ran
   what and of any crash schedule.

   Fork discipline: every child is forked with stdio flushed, and closes
   the pipes of its running siblings.  OCaml 5 refuses to fork a process
   that has ever spawned a domain, and nothing in the program spawns one.
   Inside the child any exception must end the process with [Unix._exit]:
   its stack is a copy of the coordinator's, and an exception unwinding
   past the fork point would run the coordinator's handlers (and its
   buffered I/O) a second time. *)

type config = {
  procs : int;               (* children running at once *)
  max_redispatch : int;      (* re-dispatches per task before degrading *)
  retry_base_ms : float;     (* base delay of the re-dispatch backoff *)
}

type outcome =
  | Completed of { payload : string; slot : int; wall_s : float }
  | Degraded of string  (* deterministic reason, e.g. for a report *)

(* ---------------- the result frame ---------------- *)

(* [payload] followed by its 4-byte big-endian FNV-1a checksum. *)
let frame (payload : string) : string =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (Storage.checksum_string payload));
  payload ^ Bytes.unsafe_to_string b

(* The payload of a whole frame; [None] when it is shorter than its
   checksum or fails it, so damage never reaches the caller's [Marshal]. *)
let unframe (s : string) : string option =
  let len = String.length s - 4 in
  if len < 0 then None
  else
    let payload = String.sub s 0 len in
    let sum = Int32.to_int (String.get_int32_be s len) land 0xFFFFFFFF in
    if Storage.checksum_string payload = sum then Some payload else None

(* Everything written to [fd] until its last writer closed it.  The child
   writes only once its attempt is over, so once [select] reports the pipe
   readable this waits at most for the rest of the frame. *)
let read_all fd : string =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* ---------------- the coordinator ---------------- *)

type child = {
  slot : int;
  pid : int;
  fd : Unix.file_descr;  (* read end of the child's result pipe *)
  task : int;
  attempt : int;
  start : float;
}

(* How long one [select] waits before the loop polls [Interrupt] again. *)
let poll_s = 0.05

(* Wait for [pid] alone: never [Unix.wait], which could reap a child the
   caller forked itself.  [None] when it cannot be waited for. *)
let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> None

let run ?reg ~(config : config) ~(tasks : string array)
    ~(run_task : task:int -> attempt:int -> string) () : outcome array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let reg = match reg with Some r -> r | None -> Obs.Registry.create () in
    let c_spawns = Obs.Registry.counter reg "supervisor.spawns" in
    let c_kills = Obs.Registry.counter reg "supervisor.kills" in
    let c_redispatch = Obs.Registry.counter reg "supervisor.redispatches" in
    let c_degraded = Obs.Registry.counter reg "supervisor.degraded" in
    let results : outcome option array = Array.make n None in
    let n_done = ref 0 in
    (* (task, attempt, not_before); a free slot takes the lowest-numbered
       ready task, so the caller's largest-first order is preserved *)
    let pending = ref (List.init n (fun task -> (task, 0, 0.))) in
    let running : child option array =
      Array.make (max 1 (min config.procs n)) None
    in
    let n_dispatched = ref 0 in
    let dispatch slot (task, attempt) =
      incr n_dispatched;
      let self_kill = Faults.kills_worker ~nth:!n_dispatched in
      (* the child's heap is a snapshot of ours: flush anything buffered so
         the copy can't re-emit it *)
      flush stdout;
      flush stderr;
      let rd, wr = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          (try
             Unix.close rd;
             Array.iter (Option.iter (fun c -> Unix.close c.fd)) running;
             if self_kill then Unix.kill (Unix.getpid ()) Sys.sigkill;
             let f = frame (run_task ~task ~attempt) in
             ignore (Unix.write_substring wr f 0 (String.length f))
           with exn ->
             (* die loudly; the coordinator re-dispatches the task from its
                checkpoint manifest *)
             (try
                Printf.eprintf "grapple shard worker %d: %s\n%!" slot
                  (Printexc.to_string exn)
              with _ -> ());
             Unix._exit 2);
          Unix._exit 0
      | pid ->
          Unix.close wr;
          Obs.Registry.incr c_spawns;
          Obs.Trace.instant ~cat:"shard"
            ~args:[ ("slot", Obs.Trace.Int slot); ("pid", Obs.Trace.Int pid) ]
            "shard.spawn";
          running.(slot) <-
            Some { slot; pid; fd = rd; task; attempt;
                   start = Unix.gettimeofday () }
    in
    (* Give up on [task]: its [attempt]th dispatch was its last. *)
    let degrade task attempt =
      results.(task) <-
        Some
          (Degraded
             (Printf.sprintf
                "instance %s lost its worker process on %d consecutive \
                 dispatches"
                tasks.(task) (attempt + 1)));
      incr n_done;
      Obs.Registry.incr c_degraded
    in
    (* Re-queue a lost attempt after its backoff, or degrade the task. *)
    let lose (c : child) now =
      Obs.Registry.incr c_kills;
      Obs.Trace.instant ~cat:"shard"
        ~args:[ ("slot", Obs.Trace.Int c.slot); ("pid", Obs.Trace.Int c.pid) ]
        "shard.kill";
      if c.attempt >= config.max_redispatch then degrade c.task c.attempt
      else begin
        let delay =
          Faults.backoff_delay_s ~base_ms:config.retry_base_ms
            ~attempt:c.attempt
        in
        pending := (c.task, c.attempt + 1, now +. delay) :: !pending;
        Obs.Registry.incr c_redispatch;
        Obs.Trace.instant ~cat:"shard"
          ~args:[ ("task", Obs.Trace.Str tasks.(c.task));
                  ("attempt", Obs.Trace.Int (c.attempt + 1)) ]
          "shard.redispatch"
      end
    in
    (* [c]'s pipe is readable: take its frame, reap it, and judge both. *)
    let finish (c : child) =
      let s = read_all c.fd in
      running.(c.slot) <- None;
      Unix.close c.fd;
      let status = reap c.pid in
      let now = Unix.gettimeofday () in
      match (status, unframe s) with
      | Some (Unix.WEXITED 0), Some payload ->
          results.(c.task) <-
            Some
              (Completed { payload; slot = c.slot; wall_s = now -. c.start });
          incr n_done
      | _ -> lose c now
    in
    let kill_running () =
      Array.iter
        (Option.iter (fun c ->
             (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
             ignore (reap c.pid);
             try Unix.close c.fd with Unix.Unix_error _ -> ()))
        running
    in
    Fun.protect ~finally:kill_running (fun () ->
        while !n_done < n do
          if Interrupt.requested () then raise Interrupt.Interrupted;
          let now = Unix.gettimeofday () in
          Array.iteri
            (fun slot c ->
              if c = None then
                match
                  List.filter (fun (_, _, nb) -> nb <= now) !pending
                  |> List.sort compare
                with
                | (task, attempt, _) :: _ ->
                    pending :=
                      List.filter (fun (t, _, _) -> t <> task) !pending;
                    dispatch slot (task, attempt)
                | [] -> ())
            running;
          (* a free slot left means every pending task is backing off:
             wake when the first one is due *)
          let timeout =
            if Array.mem None running then
              List.fold_left
                (fun t (_, _, nb) -> Float.min t (nb -. now))
                poll_s !pending
            else poll_s
          in
          let fds =
            Array.to_list running
            |> List.filter_map (Option.map (fun c -> c.fd))
          in
          match Unix.select fds [] [] timeout with
          | readable, _, _ ->
              Array.iter
                (Option.iter (fun c ->
                     if List.mem c.fd readable then finish c))
                running
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done);
    Array.map Option.get results
  end
