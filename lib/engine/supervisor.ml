(* Supervised multi-process shard runtime (ISSUE 8).

   The coordinator forks [procs] worker processes and feeds them tasks over
   the [Shardproc] frame protocol, supervising each worker with heartbeats.
   A worker that dies (nonzero exit, signal, closed pipe) or goes silent
   for [max_missed_heartbeats] heartbeat periods is SIGKILLed and replaced,
   and its in-flight task is re-dispatched to a fresh attempt after a
   seeded exponential backoff — restarting from whatever checkpoint state
   the task's own [run] callback persisted.  After [max_redispatch]
   re-dispatches a task degrades to [Degraded] instead of stalling the run.
   A fault plan's [kill-worker=N] directive SIGKILLs the worker given the
   run's Nth assignment (see [Faults.kills_worker]).

   Result frames are deduplicated by (task, attempt): only the attempt the
   coordinator currently has outstanding may complete a task, so a worker
   presumed dead whose result races its SIGKILL can never double-report —
   the stale frame is counted and dropped.  Results are delivered as an
   array in task order, so the caller's canonical-order merge is
   independent of which worker ran what and of any crash schedule.

   Fork discipline: workers are forked from the coordinator's main domain
   with no spawned domains live, stdio flushed, and every other worker's
   pipe ends closed in the child.  SIGPIPE is ignored for the duration so a
   dead worker surfaces as [Closed]/EOF, never as a signal. *)

type config = {
  procs : int;               (* worker processes to keep alive *)
  heartbeat_ms : float;      (* worker heartbeat period *)
  max_missed_heartbeats : int;
      (* heartbeat periods of silence before a worker is presumed hung *)
  max_redispatch : int;      (* re-dispatches per task before degrading *)
  retry_seed : int;          (* seed of the re-dispatch backoff jitter *)
  retry_base_ms : float;     (* base delay of the re-dispatch backoff *)
}

let default_config =
  { procs = 2;
    heartbeat_ms = 100.;
    max_missed_heartbeats = 50;
    max_redispatch = 3;
    retry_seed = 0x6a09;
    retry_base_ms = 2. }

type outcome =
  | Completed of { payload : string; slot : int; wall_s : float }
  | Degraded of string  (* deterministic reason, e.g. for a report *)

type worker = {
  slot : int;
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  rd : Shardproc.reader;
  mutable last_frame : float;  (* arrival time of the last frame *)
  mutable assigned : (int * int * float) option;  (* task, attempt, start *)
}

let hb_bounds = [| 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 5000. |]

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
    let c_stale = Obs.Registry.counter reg "supervisor.stale_frames" in
    let h_hb =
      Obs.Registry.histogram ~bounds:hb_bounds reg "supervisor.heartbeat_ms"
    in
    let procs = max 1 (min config.procs n) in
    let hb_period_s = Float.max 0.001 (config.heartbeat_ms /. 1000.) in
    let silence_s = hb_period_s *. float_of_int (max 2 config.max_missed_heartbeats) in
    let results : outcome option array = Array.make n None in
    let n_done = ref 0 in
    (* (task, attempt, not_before); assignment picks the lowest-numbered
       ready task, so the caller's largest-first order is preserved *)
    let pending = ref (List.init n (fun task -> (task, 0, 0.))) in
    let workers : worker option array = Array.make procs None in
    let n_spawned = ref 0 in
    let spawn_cap = procs + ((config.max_redispatch + 1) * n) in
    let assign_seq = ref 0 in
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let restore_sigpipe () =
      match old_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ()
    in
    let spawn slot =
      (* the child's heap is a snapshot of ours: flush anything buffered so
         the copy can't re-emit it *)
      flush stdout;
      flush stderr;
      let wr_r, wr_w = Unix.pipe () in
      let fr_r, fr_w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
          (* child: drop the coordinator ends and every sibling's pipes *)
          (try Unix.close wr_w with Unix.Unix_error _ -> ());
          (try Unix.close fr_r with Unix.Unix_error _ -> ());
          Array.iter
            (function
              | Some (w : worker) ->
                  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
                  (try Unix.close w.from_w with Unix.Unix_error _ -> ())
              | None -> ())
            workers;
          Shardproc.worker_main ~slot ~hb_period_s ~in_fd:wr_r ~out_fd:fr_w
            ~run:run_task;
          Unix._exit 0
      | pid ->
          (try Unix.close wr_r with Unix.Unix_error _ -> ());
          (try Unix.close fr_w with Unix.Unix_error _ -> ());
          Unix.set_nonblock fr_r;
          incr n_spawned;
          Obs.Registry.incr c_spawns;
          Obs.Trace.instant ~cat:"shard"
            ~args:[ ("slot", Obs.Trace.Int slot); ("pid", Obs.Trace.Int pid) ]
            "shard.spawn";
          workers.(slot) <-
            Some
              { slot; pid; to_w = wr_w; from_w = fr_r;
                rd = Shardproc.reader (); last_frame = Unix.gettimeofday ();
                assigned = None }
    in
    let reap (w : worker) =
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
      (try Unix.close w.to_w with Unix.Unix_error _ -> ());
      (try Unix.close w.from_w with Unix.Unix_error _ -> ())
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
    (* Kill [w], re-queue its in-flight attempt (or degrade the task), and
       fork a replacement into the same slot when work remains. *)
    let handle_death (w : worker) now =
      workers.(w.slot) <- None;
      reap w;
      Obs.Registry.incr c_kills;
      Obs.Trace.instant ~cat:"shard"
        ~args:[ ("slot", Obs.Trace.Int w.slot); ("pid", Obs.Trace.Int w.pid) ]
        "shard.kill";
      (match w.assigned with
      | Some (task, attempt, _) when results.(task) = None ->
          if attempt >= config.max_redispatch then degrade task attempt
          else begin
            let delay =
              Faults.backoff_delay_s ~seed:config.retry_seed
                ~base_ms:config.retry_base_ms ~attempt
            in
            pending := (task, attempt + 1, now +. delay) :: !pending;
            Obs.Registry.incr c_redispatch;
            Obs.Trace.instant ~cat:"shard"
              ~args:[ ("task", Obs.Trace.Str tasks.(task));
                      ("attempt", Obs.Trace.Int (attempt + 1)) ]
              "shard.redispatch"
          end
      | _ -> ());
      if !n_done < n && !n_spawned < spawn_cap then spawn w.slot
    in
    let live () =
      Array.to_list workers |> List.filter_map (fun w -> w)
    in
    (* Hand the lowest-numbered ready pending task to [w]. *)
    let try_assign (w : worker) now =
      let ready =
        List.filter (fun (_, _, nb) -> nb <= now) !pending
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      match ready with
      | [] -> ()
      | (task, attempt, _) :: _ ->
          pending :=
            List.filter (fun (t, a, _) -> (t, a) <> (task, attempt)) !pending;
          incr assign_seq;
          let self_kill = Faults.kills_worker ~nth:!assign_seq in
          w.assigned <- Some (task, attempt, now);
          (try
             Shardproc.write_frame w.to_w
               (Shardproc.Assign { task; attempt; self_kill })
           with Shardproc.Closed | Unix.Unix_error _ -> handle_death w now)
    in
    let shutdown () =
      List.iter
        (fun (w : worker) ->
          (try Shardproc.write_frame w.to_w Shardproc.Shutdown
           with Shardproc.Closed | Unix.Unix_error _ -> ());
          workers.(w.slot) <- None;
          reap w)
        (live ())
    in
    Fun.protect
      ~finally:(fun () ->
        shutdown ();
        restore_sigpipe ())
      (fun () ->
        for slot = 0 to procs - 1 do
          spawn slot
        done;
        while !n_done < n do
          if Interrupt.requested () then raise Interrupt.Interrupted;
          let now = Unix.gettimeofday () in
          (* keep every idle worker busy *)
          List.iter
            (fun (w : worker) ->
              if w.assigned = None then try_assign w now)
            (live ());
          let fds = List.map (fun (w : worker) -> w.from_w) (live ()) in
          let readable =
            if fds = [] then []
            else
              match Unix.select fds [] [] (hb_period_s /. 2.) with
              | r, _, _ -> r
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          let now = Unix.gettimeofday () in
          List.iter
            (fun (w : worker) ->
              if List.memq w.from_w readable then begin
                let frames, eof = Shardproc.drain w.rd w.from_w in
                List.iter
                  (fun (f : Shardproc.to_coordinator) ->
                    match f with
                    | Shardproc.Hello _ -> w.last_frame <- now
                    | Shardproc.Heartbeat _ ->
                        Obs.Registry.observe h_hb
                          ((now -. w.last_frame) *. 1000.);
                        w.last_frame <- now
                    | Shardproc.Done { task; attempt; payload } -> (
                        w.last_frame <- now;
                        match w.assigned with
                        | Some (t, a, start)
                          when t = task && a = attempt
                               && results.(task) = None ->
                            results.(task) <-
                              Some
                                (Completed
                                   { payload; slot = w.slot;
                                     wall_s = now -. start });
                            incr n_done;
                            w.assigned <- None
                        | _ ->
                            (* a result from an attempt we no longer have
                               outstanding: never merged twice *)
                            Obs.Registry.incr c_stale))
                  frames;
                if eof then handle_death w now
              end)
            (live ());
          (* heartbeat supervision *)
          let now = Unix.gettimeofday () in
          List.iter
            (fun (w : worker) ->
              if now -. w.last_frame > silence_s then handle_death w now)
            (live ());
          (* every worker dead with work outstanding (spawn cap exhausted
             mid-loop): degrade what remains rather than spin forever *)
          if live () = [] && !n_done < n && !n_spawned >= spawn_cap then
            List.iter
              (fun (task, attempt, _) ->
                if results.(task) = None then degrade task attempt)
              !pending
        done);
    Array.map
      (function
        | Some o -> o
        | None -> Degraded "supervisor lost track of the task")
      results
  end
