(* The one place tests make directories.  Every workdir lies under a root
   of its own for this test process, which that process removes at exit,
   so a run leaves its TMPDIR as it found it.  A forked test child or shard
   worker inherits the exit handler; the pid check keeps it from removing
   the root while the parent still works under it. *)

let owner = Unix.getpid ()

let root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "grapple-test-%d" owner)

let () =
  at_exit (fun () ->
      if Unix.getpid () = owner && Sys.file_exists root then
        try Engine.remove_tree root
        with Sys_error _ | Unix.Unix_error _ -> ())

(* A fresh, empty directory under the root. *)
let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Filename.concat root (string_of_int !n) in
    Engine.ensure_dir dir;
    dir
