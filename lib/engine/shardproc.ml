(* Frame protocol between the shard supervisor and its worker processes
   (ISSUE 8).

   Workers are forked from the coordinator and talk to it over a pair of
   pipes carrying length-prefixed marshalled frames:

     coordinator -> worker:   Assign | Shutdown
     worker -> coordinator:   Hello | Heartbeat | Done

   A frame is a 4-byte big-endian payload length, the [Marshal]ed value,
   and a 4-byte big-endian FNV-1a checksum of the payload.  Workers read
   blocking (they have nothing else to do); the coordinator reads
   nonblocking under [select] and reassembles partial frames in a
   per-worker buffer, so a slow or half-written frame never stalls
   supervision of the other workers.

   The checksum turns a corrupted pipe into a *detected* peer failure
   rather than a [Marshal] crash or a silently wrong value: a worker that
   reads a damaged frame exits like a closed pipe (the supervisor
   re-dispatches its task), and a coordinator that reads one declares the
   worker dead and re-dispatches.

   The worker's heartbeat runs on its own domain so a worker wedged in a
   long computation keeps heartbeating, while a worker that is truly hung
   (stopped, livelocked below OCaml) goes silent and gets killed.  Both
   writers on the worker side share one mutex so frames never interleave.

   Discipline inside the child: any exception must terminate the process
   with [Unix._exit] — the child's stack is a copy of the coordinator's,
   and an exception unwinding past the fork point would run the
   coordinator's handlers (and its buffered I/O) a second time. *)

type to_worker =
  | Assign of { task : int; attempt : int; self_kill : bool }
      (* [self_kill]: SIGKILL yourself instead of running the task — the
         deterministic process-kill injection point behind a fault plan's
         [kill-worker=N] *)
  | Shutdown

type to_coordinator =
  | Hello of int      (* worker slot, sent once at startup *)
  | Heartbeat of int  (* worker slot, sent every heartbeat period *)
  | Done of { task : int; attempt : int; payload : string }

(* The peer's end of the pipe is gone (EOF, EPIPE, closed fd) — or sent a
   frame that fails its checksum, which is treated the same way. *)
exception Closed

(* ---------------- frame encoding ---------------- *)

(* Frames never approach this; a length beyond it means the length field
   itself is damaged. *)
let max_frame_len = 1 lsl 30

let frame_bytes (v : 'a) : Bytes.t =
  let payload = Marshal.to_string v [] in
  let len = String.length payload in
  let b = Bytes.create (4 + len + 4) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.set_int32_be b (4 + len)
    (Int32.of_int (Storage.checksum_string payload));
  b

let really_write fd (b : Bytes.t) =
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n =
        try Unix.write fd b off (len - off) with
        | Unix.Unix_error (Unix.EINTR, _, _) -> 0
        | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> raise Closed
      in
      go (off + n)
    end
  in
  go 0

let write_frame ?mutex fd (v : 'a) : unit =
  let b = frame_bytes v in
  match mutex with
  | None -> really_write fd b
  | Some mu ->
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) (fun () ->
          really_write fd b)

(* ---------------- blocking reads (worker side) ---------------- *)

let really_read fd n : Bytes.t =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k =
        try Unix.read fd b off (n - off) with
        | Unix.Unix_error (Unix.EINTR, _, _) -> -1
        | Unix.Unix_error (Unix.EBADF, _, _) -> raise Closed
      in
      if k = 0 then raise Closed;
      go (off + max 0 k)
    end
  in
  go 0;
  b

let read_frame fd : 'a =
  let hdr = really_read fd 4 in
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_frame_len then raise Closed;
  let payload = really_read fd len in
  let sum = Int32.to_int (Bytes.get_int32_be (really_read fd 4) 0)
            land 0xFFFFFFFF
  in
  if Storage.fnv32 payload ~pos:0 ~len <> sum then raise Closed;
  Marshal.from_bytes payload 0

(* ---------------- buffered reads (coordinator side) ---------------- *)

type reader = { rbuf : Buffer.t }

let reader () = { rbuf = Buffer.create 4096 }

(* Pop every complete frame currently sitting in [r.rbuf].  Raises [Closed]
   on an impossible length field or a checksum mismatch: framing is lost
   (later byte boundaries mean nothing), so the peer is as good as dead. *)
let pop_frames (r : reader) : 'a list =
  let frames = ref [] in
  let continue = ref true in
  while !continue do
    let len = Buffer.length r.rbuf in
    if len < 4 then continue := false
    else begin
      let contents = Buffer.to_bytes r.rbuf in
      let flen = Int32.to_int (Bytes.get_int32_be contents 0) in
      if flen < 0 || flen > max_frame_len then raise Closed;
      if len < 4 + flen + 4 then continue := false
      else begin
        let sum = Int32.to_int (Bytes.get_int32_be contents (4 + flen))
                  land 0xFFFFFFFF
        in
        if Storage.fnv32 contents ~pos:4 ~len:flen <> sum then raise Closed;
        frames := Marshal.from_bytes (Bytes.sub contents 4 flen) 0 :: !frames;
        Buffer.clear r.rbuf;
        Buffer.add_subbytes r.rbuf contents (4 + flen + 4)
          (len - 4 - flen - 4)
      end
    end
  done;
  List.rev !frames

(* One nonblocking drain of [fd] into the reader; returns the complete
   frames that became available and whether the worker is gone — the pipe
   reached EOF, or a frame failed its checksum (framing is lost, so the
   stream is unusable from here on).  Any buffered partial frame is
   discarded with the dead worker. *)
let drain (r : reader) fd : 'a list * bool =
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  let more = ref true in
  while !more do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        eof := true;
        more := false
    | n -> Buffer.add_subbytes r.rbuf chunk 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        more := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
        eof := true;
        more := false
  done;
  match pop_frames r with
  | frames -> (frames, !eof)
  | exception Closed ->
      Buffer.clear r.rbuf;
      ([], true)

(* ---------------- the worker main loop ---------------- *)

(* Runs in the forked child; never returns.  [run] executes one task
   attempt and returns the marshalled result payload. *)
let worker_main ~slot ~hb_period_s ~(in_fd : Unix.file_descr)
    ~(out_fd : Unix.file_descr) ~(run : task:int -> attempt:int -> string) :
    unit =
  let wmu = Mutex.create () in
  let send (v : to_coordinator) = write_frame ~mutex:wmu out_fd v in
  (try send (Hello slot) with Closed | Unix.Unix_error _ -> Unix._exit 3);
  let stop = Atomic.make false in
  let (_ : unit Domain.t) =
    Domain.spawn (fun () ->
        try
          while not (Atomic.get stop) do
            Unix.sleepf hb_period_s;
            if not (Atomic.get stop) then send (Heartbeat slot)
          done
        with Closed | Unix.Unix_error _ -> ())
  in
  try
    let finished = ref false in
    while not !finished do
      match (read_frame in_fd : to_worker) with
      | Shutdown -> finished := true
      | Assign { task; attempt; self_kill } ->
          if self_kill then Unix.kill (Unix.getpid ()) Sys.sigkill;
          let payload = run ~task ~attempt in
          send (Done { task; attempt; payload })
    done;
    Atomic.set stop true;
    Unix._exit 0
  with
  | Closed -> Unix._exit 3
  | exn ->
      (* die loudly; the supervisor re-dispatches our instance from its
         checkpoint manifest *)
      (try
         Printf.eprintf "grapple shard worker %d: %s\n%!" slot
           (Printexc.to_string exn)
       with _ -> ());
      Unix._exit 2
