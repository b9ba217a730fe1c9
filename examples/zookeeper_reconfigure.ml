(* The ZooKeeper 3.5.0 socket-channel leak of the paper's Figure 1, modeled
   in JIR.

   NIOServerCnxnFactory.reconfigure saves the old server socket channel in
   [oldSS], opens a new channel, and only closes [oldSS] several statements
   later.  The statements in between (bind, configureBlocking) can throw
   IOException; on that path control jumps to the catch block, the reference
   to [oldSS] is effectively lost, and the old channel stays open forever.

   The socket checker reports the leak because the FSM state of the old
   channel at a (normal) program exit reachable through the handler is not
   Closed.

   Run with:  dune exec examples/zookeeper_reconfigure.exe                 *)

let source = {|
class NIOServerCnxnFactory {
  void configure(int addr) {
    ServerSocketChannel ss = new ServerSocketChannel();
    ss.bind(addr);
    ss.configureBlocking(0);
    ss.close();
    return;
  }

  void reconfigure(int addr) {
    ServerSocketChannel oldSS = new ServerSocketChannel();
    oldSS.bind(addr);
    try {
      ServerSocketChannel ss = new ServerSocketChannel();
      ss.bind(addr);
      ss.configureBlocking(0);
      oldSS.close();
      ss.close();
    } catch (IOException e) {
      int logged = 1;
    }
    return;
  }
}

class Main {
  void main(int addr) {
    NIOServerCnxnFactory factory = new NIOServerCnxnFactory();
    factory.configure(addr);
    factory.reconfigure(addr);
    return;
  }
}
entry Main.main;
|}

let () =
  let program = Jir.Resolve.parse_exn ~file:"zookeeper.jir" source in
  let workdir = Filename.temp_dir "grapple-zookeeper" "" in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      (* bind/configureBlocking on channels may raise, as in the JDK *)
      Grapple.Pipeline.library_throwers =
        [ ("ServerSocketChannel", "bind", "IOException");
          ("ServerSocketChannel", "configureBlocking", "IOException") ];
      prefilter_properties = [ Checkers.fsm "socket" ] }
  in
  let prepared = Grapple.Pipeline.prepare ~config ~workdir program in
  let results, _schedule = Grapple.Pipeline.check_properties prepared in
  Grapple.Pipeline.cleanup prepared results;
  let reports =
    List.concat_map (fun r -> r.Grapple.Pipeline.reports) results
  in
  Printf.printf "%d warning(s):\n" (List.length reports);
  List.iter
    (fun r -> Printf.printf "  %s\n" (Grapple.Report.to_string r))
    reports;
  print_newline ();
  print_endline
    "The channel opened by configure() is always closed: no warning for it.";
  print_endline
    "The old channel in reconfigure() leaks when bind/configureBlocking on \
     the\nnew channel throws before `oldSS.close()` executes, exactly the \
     bug\nGrapple reported against ZooKeeper 3.5.0 (paper, Figure 1).  The \
     new\nchannel itself leaks on the same exception path (the handler \
     closes\nneither), which is the second warning."
