(* The HDFS slow-shutdown bug of the paper's Figure 8(b), modeled in JIR.

   DataNode shutdown interrupts the block-scanner thread and joins it.  The
   scanner is deep inside  DataBlockScanner.run -> BlockSender.sendBlock ->
   BlockSender.sendPacket -> DataTransferThrottler.throttle,  and the
   interrupt surfaces in throttle's wait().  No method on that call stack
   handles it, so the interrupt is lost, the while loop keeps iterating and
   the shutdown hangs — a "deep bug" in the paper's terms.

   The exception checker walks the clone tree: the InterruptedException
   thrown in throttle escapes every (transitive) caller up to the thread
   entry point, so it is reported; the comparison method [safeThrottle],
   whose caller installs a handler, is not.

   Run with:  dune exec examples/hdfs_shutdown.exe                        *)

let source = {|
class DataTransferThrottler {
  void throttle(int numOfBytes) throws InterruptedException {
    int period = 500;
    int curPeriodStart = 0;
    int now = numOfBytes;
    int it = 0;
    while (it < 2) {
      int curPeriodEnd = curPeriodStart + period;
      if (now < curPeriodEnd) {
        throw new InterruptedException();
      }
      it = it + 1;
    }
    return;
  }

  void safeThrottle(int numOfBytes) throws InterruptedException {
    if (numOfBytes > 4096) {
      throw new InterruptedException();
    }
    return;
  }
}

class BlockSender {
  void sendPacket(int len) throws InterruptedException {
    DataTransferThrottler throttler = new DataTransferThrottler();
    throttler.throttle(len);
    return;
  }

  void sendBlock(int len) throws InterruptedException {
    int packet = len;
    while (packet > 0) {
      BlockSender.sendPacket(packet);
      packet = packet - 4096;
    }
    return;
  }
}

class DataBlockScanner {
  void run(int blockLen) {
    BlockSender.sendBlock(blockLen);
    DataTransferThrottler t = new DataTransferThrottler();
    try {
      t.safeThrottle(blockLen);
    } catch (InterruptedException e) {
      int handled = 1;
    }
    return;
  }
}

class Main {
  void main(int blockLen) {
    DataBlockScanner.run(blockLen);
    return;
  }
}
entry Main.main;
|}

let () =
  let program = Jir.Resolve.parse_exn ~file:"hdfs.jir" source in
  let workdir = Filename.temp_dir "grapple-hdfs" "" in
  let prepared = Grapple.Pipeline.prepare ~workdir program in
  let reports = Checkers.Exception_checker.run prepared in
  Grapple.Pipeline.cleanup prepared [];
  Printf.printf "%d warning(s):\n" (List.length reports);
  List.iter (fun r -> Printf.printf "  %s\n" (Grapple.Report.to_string r)) reports;
  print_newline ();
  print_endline
    "The InterruptedException thrown in throttle() escapes sendPacket,\n\
     sendBlock, run and main without ever meeting a catch block: the\n\
     interrupt sent by shutdown() is silently dropped (HDFS, paper Fig. 8b).\n\
     safeThrottle() throws the same exception but its caller handles it,\n\
     so it is not reported."
