(* Writing a checker of your own: Grapple takes (1) a program graph, (2) a
   set of types of interest and (3) an FSM over the events on those types
   (paper §1.2).  This example checks a database-transaction discipline:

       Idle --begin--> Active --commit/rollback--> Idle
       query is only legal while Active;
       a transaction must not be left Active at end of life.

   The property is plain .gspec text, the same language as the shipped
   checkers (specs/*.gspec); [Spec.compile] turns it into an FSM.
   Everything below uses only the public API: the [Spec] compiler, the
   JIR parser, and [Grapple.Pipeline].

   Run with:  dune exec examples/custom_checker.exe                       *)

let transaction_spec =
  {|property transaction {
  track Transaction;
  initial Idle;
  accepting Idle;
  state Active;
  on Idle begin_ -> Active;
  on Active query -> Active;
  on Active commit -> Idle;
  on Active rollback -> Idle;
  # events out of protocol are errors, not no-ops
  on Idle query -> Error;
  on Idle commit -> Error;
}
|}

let transaction : Fsm.t =
  match Spec.compile ~file:"transaction.gspec" transaction_spec with
  | [ { Spec.c_kind = Spec.Typestate fsm; _ } ] -> fsm
  | _ -> failwith "transaction.gspec: expected one typestate property"

let source = {|
class OrderService {
  void placeOrder(int amount) {
    Transaction tx = new Transaction();
    tx.begin_(1);
    tx.query(amount);
    if (amount > 100) {
      tx.commit(1);
    } else {
      tx.rollback(1);
    }
    return;
  }

  void auditOrder(int amount) {
    Transaction tx = new Transaction();
    tx.begin_(1);
    tx.query(amount);
    if (amount > 0) {
      tx.commit(1);
    }
    return;
  }

  void refundOrder(int amount) {
    Transaction tx = new Transaction();
    tx.query(amount);
    tx.begin_(1);
    tx.rollback(1);
    return;
  }
}

class Main {
  void main(int amount) {
    OrderService svc = new OrderService();
    svc.placeOrder(amount);
    svc.auditOrder(amount);
    svc.refundOrder(amount);
    return;
  }
}
entry Main.main;
|}

let () =
  let program = Jir.Resolve.parse_exn ~file:"orders.jir" source in
  let workdir = Filename.temp_dir "grapple-custom" "" in
  let config =
    { (Grapple.Pipeline.default_config ~workdir) with
      Grapple.Pipeline.prefilter_properties = [ transaction ] }
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
    "placeOrder commits or rolls back on every path: no warning.\n\
     auditOrder leaves the transaction Active when amount <= 0: leak.\n\
     refundOrder queries before begin_: error state."
