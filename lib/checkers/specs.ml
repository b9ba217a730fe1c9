(* Library calls on resource classes that can raise in real systems code;
   used as the default may-throw table for the frontends. *)
let library_throwers =
  [ ("Socket", "connect", "IOException");
    ("Socket", "bind", "IOException");
    ("ServerSocketChannel", "bind", "IOException");
    ("SocketChannel", "connect", "IOException");
    ("FileWriter", "write", "IOException");
    ("FileOutputStream", "write", "IOException") ]
