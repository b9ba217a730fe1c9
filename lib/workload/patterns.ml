(* Code patterns the workload generator plants into synthetic subjects.
   Each pattern produces a statement snippet (plus any helper methods it
   needs) together with the ground-truth expectations it carries, so the
   benchmark harness can score reported warnings as true/false positives.

   The correct variants include *infeasible-path decoys*: code that is only
   safe because the unsafe path contradicts the branch conditions guarding
   it.  A path-insensitive checker reports these; Grapple must not.  They
   are what makes the precision columns of Table 2 meaningful. *)

open Jir.Builder

type exp_kind = [ `Leak | `Error | `Exn | `Lint of string ]
(* [`Lint name] expectations are matched against [Analysis.Lint] diagnostics
   rather than checker reports; the payload is the lint slug *)

type expectation = {
  exp_checker : string;             (* io | lock | socket | exception | lint *)
  exp_kind : exp_kind;
  exp_line : int;
  exp_note : string;
}

type piece = {
  stmts : Jir.Ast.stmt list;
  helpers : Jir.Ast.meth list;  (* added to the subject's Helpers class *)
  expected : expectation list;
}

type ctx = {
  rng : Rng.t;
  file : string;
  mutable line : int;
  mutable counter : int;
  helpers_class : string;
}

let create_ctx ~seed ~file ~helpers_class =
  { rng = Rng.create seed; file; line = 0; counter = 0; helpers_class }

let next_line ctx =
  ctx.line <- ctx.line + 1;
  { Jir.Ast.file = ctx.file; line = ctx.line }

let fresh ctx prefix =
  ctx.counter <- ctx.counter + 1;
  Printf.sprintf "%s%d" prefix ctx.counter

let no_expect stmts = { stmts; helpers = []; expected = [] }

let writer_t = Jir.Ast.Tobj "FileWriter"
let lock_t = Jir.Ast.Tobj "ReentrantLock"
let socket_t = Jir.Ast.Tobj "Socket"

(* ---------------- I/O resource patterns ---------------- *)

(* w = new FileWriter(); w.write(p); w.close();  -- correct *)
let io_ok ctx ~param =
  let w = fresh ctx "w" in
  no_expect
    [ decl ~at:(next_line ctx) writer_t w (new_ "FileWriter" []);
      call_stmt ~at:(next_line ctx) w "write" [ v param ];
      call_stmt ~at:(next_line ctx) w "close" [] ]

(* the close is skipped on a feasible branch -- leak *)
let io_leak_branch ctx ~param =
  let w = fresh ctx "w" in
  let alloc_at = next_line ctx in
  let stmts =
    [ decl ~at:alloc_at writer_t w (new_ "FileWriter" []);
      call_stmt ~at:(next_line ctx) w "write" [ v param ];
      if_ ~at:(next_line ctx)
        (v param >: i 10)
        [ call_stmt ~at:(next_line ctx) w "close" [] ]
        [] ]
  in
  { stmts;
    helpers = [];
    expected =
      [ { exp_checker = "io"; exp_kind = `Leak; exp_line = alloc_at.Jir.Ast.line;
          exp_note = "close skipped when param <= 10" } ] }

(* allocation and close are guarded by the same condition: the path that
   skips the close cannot allocate -- correct, and a decoy for
   path-insensitive checkers *)
let io_safe_infeasible ctx ~param =
  let w = fresh ctx "w" in
  let stmts =
    [ decl ~at:(next_line ctx) writer_t w null;
      if_ ~at:(next_line ctx)
        (v param >=: i 0)
        [ assign ~at:(next_line ctx) w (new_ "FileWriter" []);
          call_stmt ~at:(next_line ctx) w "write" [ i 1 ] ]
        [];
      if_ ~at:(next_line ctx)
        (v param >=: i 0)
        [ call_stmt ~at:(next_line ctx) w "close" [] ]
        [] ]
  in
  no_expect stmts

(* write after close on a feasible branch -- error state *)
let io_use_after_close ctx ~param =
  let w = fresh ctx "w" in
  let alloc_at = next_line ctx in
  let stmts =
    [ decl ~at:alloc_at writer_t w (new_ "FileWriter" []);
      if_ ~at:(next_line ctx)
        (v param >: i 3)
        [ call_stmt ~at:(next_line ctx) w "close" [] ]
        [];
      call_stmt ~at:(next_line ctx) w "write" [ v param ];
      call_stmt ~at:(next_line ctx) w "close" [] ]
  in
  { stmts;
    helpers = [];
    expected =
      [ { exp_checker = "io"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "write after close when param > 3" } ] }

(* the resource is created by a helper method and closed by the caller --
   correct, exercises parameter passing and value return *)
let io_ok_via_helper ctx ~param =
  let helper_name = fresh ctx "makeWriter" in
  let w = fresh ctx "w" in
  let hw = fresh ctx "hw" in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name ~params:[ (Jir.Ast.Tint, "n") ]
      ~ret:writer_t
      [ decl ~at:(next_line ctx) writer_t hw (new_ "FileWriter" []);
        call_stmt ~at:(next_line ctx) hw "write" [ v "n" ];
        return ~at:(next_line ctx) (Some (v hw)) ]
  in
  { stmts =
      [ decl ~at:(next_line ctx) writer_t w
          (scall_rhs ctx.helpers_class helper_name [ v param ]);
        call_stmt ~at:(next_line ctx) w "close" [] ];
    helpers = [ helper ];
    expected = [] }

(* created by a helper, never closed anywhere -- leak at the helper's
   allocation *)
let io_leak_via_helper ctx ~param =
  let helper_name = fresh ctx "openLog" in
  let w = fresh ctx "w" in
  let hw = fresh ctx "hw" in
  let alloc_at = next_line ctx in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name ~params:[ (Jir.Ast.Tint, "n") ]
      ~ret:writer_t
      [ decl ~at:alloc_at writer_t hw (new_ "FileWriter" []);
        return ~at:(next_line ctx) (Some (v hw)) ]
  in
  { stmts =
      [ decl ~at:(next_line ctx) writer_t w
          (scall_rhs ctx.helpers_class helper_name [ v param ]);
        call_stmt ~at:(next_line ctx) w "write" [ v param ] ];
    helpers = [ helper ];
    expected =
      [ { exp_checker = "io"; exp_kind = `Leak; exp_line = alloc_at.Jir.Ast.line;
          exp_note = "helper-created writer never closed" } ] }

(* resource stored into a container field and closed through the loaded
   alias -- correct, exercises store[f] alias load[f] *)
let io_field_alias_ok ctx ~param =
  let h = fresh ctx "holder" in
  let w = fresh ctx "w" in
  let u = fresh ctx "u" in
  no_expect
    [ decl ~at:(next_line ctx) (Jir.Ast.Tobj "Holder") h (new_ "Holder" []);
      decl ~at:(next_line ctx) writer_t w (new_ "FileWriter" []);
      store ~at:(next_line ctx) h "res" w;
      call_stmt ~at:(next_line ctx) w "write" [ v param ];
      decl ~at:(next_line ctx) writer_t u (load h "res");
      call_stmt ~at:(next_line ctx) u "close" [] ]

(* stored into a field and only written through the alias -- leak *)
let io_field_alias_leak ctx ~param =
  let h = fresh ctx "holder" in
  let w = fresh ctx "w" in
  let u = fresh ctx "u" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:(next_line ctx) (Jir.Ast.Tobj "Holder") h (new_ "Holder" []);
        decl ~at:alloc_at writer_t w (new_ "FileWriter" []);
        store ~at:(next_line ctx) h "res" w;
        decl ~at:(next_line ctx) writer_t u (load h "res");
        call_stmt ~at:(next_line ctx) u "write" [ v param ] ];
    helpers = [];
    expected =
      [ { exp_checker = "io"; exp_kind = `Leak; exp_line = alloc_at.Jir.Ast.line;
          exp_note = "field-stored writer never closed" } ] }

(* ---------------- lock patterns ---------------- *)

let lock_ok ctx ~param =
  let l = fresh ctx "lk" in
  no_expect
    [ decl ~at:(next_line ctx) lock_t l (new_ "ReentrantLock" []);
      call_stmt ~at:(next_line ctx) l "lock" [];
      call_stmt ~at:(next_line ctx) l "unlock" [];
      if_ ~at:(next_line ctx)
        (v param >: i 0)
        [ call_stmt ~at:(next_line ctx) l "lock" [];
          call_stmt ~at:(next_line ctx) l "unlock" [] ]
        [] ]

(* lock/unlock mis-ordered (the HDFS bug of §5.1) -- error state *)
let lock_misorder ctx ~param:_ =
  let l = fresh ctx "lk" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:alloc_at lock_t l (new_ "ReentrantLock" []);
        call_stmt ~at:(next_line ctx) l "unlock" [];
        call_stmt ~at:(next_line ctx) l "lock" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "lock"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "unlock before lock" } ] }

(* lock held on a feasible early-return-free path -- leak *)
let lock_leak_branch ctx ~param =
  let l = fresh ctx "lk" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:alloc_at lock_t l (new_ "ReentrantLock" []);
        call_stmt ~at:(next_line ctx) l "lock" [];
        if_ ~at:(next_line ctx)
          (v param <: i 100)
          [ call_stmt ~at:(next_line ctx) l "unlock" [] ]
          [] ];
    helpers = [];
    expected =
      [ { exp_checker = "lock"; exp_kind = `Leak;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "lock not released when param >= 100" } ] }

(* ---------------- socket patterns ---------------- *)

let socket_ok ctx ~param =
  let s = fresh ctx "srv" in
  no_expect
    [ decl ~at:(next_line ctx) (Jir.Ast.Tobj "ServerSocketChannel") s
        (new_ "ServerSocketChannel" []);
      call_stmt ~at:(next_line ctx) s "bind" [ v param ];
      call_stmt ~at:(next_line ctx) s "configureBlocking" [ i 0 ];
      call_stmt ~at:(next_line ctx) s "accept" [];
      call_stmt ~at:(next_line ctx) s "close" [] ]

(* the Figure 1 shape: the socket escapes through an exception raised
   between open and close, and the handler does not close it -- leak *)
let socket_leak_exn ctx ~param =
  let s = fresh ctx "sock" in
  let ev = fresh ctx "e" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:alloc_at socket_t s (new_ "Socket" []);
        try_ ~at:(next_line ctx)
          [ call_stmt ~at:(next_line ctx) s "connect" [ v param ];
            call_stmt ~at:(next_line ctx) s "close" [] ]
          [ catch "IOException" ev
              [ (* log only; the socket stays open *)
                decl ~at:(next_line ctx) Jir.Ast.Tint (fresh ctx "code")
                  (Jir.Builder.e (i 1)) ] ] ];
    helpers = [];
    expected =
      [ { exp_checker = "socket"; exp_kind = `Leak;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "socket left open on exception path" } ] }

(* same shape with a handler that closes -- correct *)
let socket_ok_exn ctx ~param =
  let s = fresh ctx "sock" in
  let ev = fresh ctx "e" in
  no_expect
    [ decl ~at:(next_line ctx) socket_t s (new_ "Socket" []);
      try_ ~at:(next_line ctx)
        [ call_stmt ~at:(next_line ctx) s "connect" [ v param ];
          call_stmt ~at:(next_line ctx) s "close" [] ]
        [ catch "IOException" ev
            [ call_stmt ~at:(next_line ctx) s "close" [] ] ] ]

(* the full Figure 1 dance: reconfigure saves the old channel, opens and
   configures a new one, and closes the old one only afterwards; the
   configuration calls may throw, and the handler closes neither channel,
   so both leak on the exception path -- two expectations *)
let socket_reconfigure_leak ctx ~param =
  let old_s = fresh ctx "oldSS" in
  let new_s = fresh ctx "ss" in
  let ev = fresh ctx "e" in
  let old_at = next_line ctx in
  let new_at = next_line ctx in
  { stmts =
      [ decl ~at:old_at (Jir.Ast.Tobj "ServerSocketChannel") old_s
          (new_ "ServerSocketChannel" []);
        call_stmt ~at:(next_line ctx) old_s "bind" [ v param ];
        try_ ~at:(next_line ctx)
          [ decl ~at:new_at (Jir.Ast.Tobj "ServerSocketChannel") new_s
              (new_ "ServerSocketChannel" []);
            call_stmt ~at:(next_line ctx) new_s "bind" [ v param +: i 1 ];
            call_stmt ~at:(next_line ctx) new_s "configureBlocking" [ i 0 ];
            call_stmt ~at:(next_line ctx) old_s "close" [];
            call_stmt ~at:(next_line ctx) new_s "close" [] ]
          [ catch "IOException" ev
              [ decl ~at:(next_line ctx) Jir.Ast.Tint (fresh ctx "logged")
                  (Jir.Builder.e (i 1)) ] ] ];
    helpers = [];
    expected =
      [ { exp_checker = "socket"; exp_kind = `Leak;
          exp_line = old_at.Jir.Ast.line;
          exp_note = "old channel not closed when reconfiguration throws" };
        { exp_checker = "socket"; exp_kind = `Leak;
          exp_line = new_at.Jir.Ast.line;
          exp_note = "new channel not closed when its own setup throws" } ] }

(* accept before bind on a feasible path -- error state *)
let socket_accept_unbound ctx ~param =
  let s = fresh ctx "srv" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:alloc_at (Jir.Ast.Tobj "ServerSocketChannel") s
          (new_ "ServerSocketChannel" []);
        if_ ~at:(next_line ctx)
          (v param >: i 0)
          [ call_stmt ~at:(next_line ctx) s "bind" [ v param ] ]
          [];
        call_stmt ~at:(next_line ctx) s "accept" [];
        call_stmt ~at:(next_line ctx) s "close" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "socket"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "accept on unbound channel when param <= 0" } ] }

(* ---------------- exception patterns ---------------- *)

(* a helper throws an application error that no caller handles -- bug *)
let exn_unhandled ctx ~param =
  let helper_name = fresh ctx "risky" in
  let throw_at = next_line ctx in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name ~params:[ (Jir.Ast.Tint, "n") ]
      ~throws:[ "AppError" ]
      [ if_ ~at:(next_line ctx)
          (v "n" >: i 0)
          [ throw ~at:throw_at "AppError" ]
          [];
        ret0 ~at:(next_line ctx) () ]
  in
  { stmts = [ sstmt ~at:(next_line ctx) ctx.helpers_class helper_name [ v param ] ];
    helpers = [ helper ];
    expected =
      [ { exp_checker = "exception"; exp_kind = `Exn;
          exp_line = throw_at.Jir.Ast.line;
          exp_note = "AppError escapes every caller" } ] }

(* same, but the caller installs a handler -- correct *)
let exn_handled ctx ~param =
  let helper_name = fresh ctx "guarded" in
  let ev = fresh ctx "e" in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name ~params:[ (Jir.Ast.Tint, "n") ]
      ~throws:[ "AppError" ]
      [ if_ ~at:(next_line ctx)
          (v "n" >: i 5)
          [ throw ~at:(next_line ctx) "AppError" ]
          [];
        ret0 ~at:(next_line ctx) () ]
  in
  { stmts =
      [ try_ ~at:(next_line ctx)
          [ sstmt ~at:(next_line ctx) ctx.helpers_class helper_name [ v param ] ]
          [ catch "AppError" ev [] ] ];
    helpers = [ helper ];
    expected = [] }

(* a throw that is structurally guarded by an impossible condition --
   correct for the exception checker (decoy for path-insensitive ones), but
   the guard *is* a dead branch, and the lint layer proves it: the ground
   truth records that so the lint scorer counts the diagnostic as a TP *)
let exn_infeasible ctx ~param =
  let x = fresh ctx "x" in
  let decl_at = next_line ctx in
  let if_at = next_line ctx in
  { stmts =
      [ decl ~at:decl_at Jir.Ast.Tint x (Jir.Builder.e (v param *: i 2));
        if_ ~at:if_at
          ((v x >: v param +: v param))
          [ throw ~at:(next_line ctx) "AppError" ]
          [] ];
    helpers = [];
    expected =
      [ { exp_checker = "lint"; exp_kind = `Lint "dead-branch";
          exp_line = if_at.Jir.Ast.line;
          exp_note = "x = 2p can never exceed p + p" } ] }

(* ---------------- null-dereference patterns (extension checker) ------- *)

(* the receiver may still be null on a feasible path -- null deref *)
let null_deref_branch ctx ~param =
  let w = fresh ctx "nw" in
  let null_at = next_line ctx in
  { stmts =
      [ decl ~at:null_at writer_t w null;
        if_ ~at:(next_line ctx)
          (v param >: i 0)
          [ assign ~at:(next_line ctx) w (new_ "FileWriter" []);
            call_stmt ~at:(next_line ctx) w "write" [ v param ] ]
          [];
        call_stmt ~at:(next_line ctx) w "close" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "null"; exp_kind = `Error;
          exp_line = null_at.Jir.Ast.line;
          exp_note = "close on null receiver when param <= 0" } ] }

(* every dereference is dominated by the same guard as the assignment --
   correct, and a decoy for path-insensitive null checkers *)
let null_safe_guarded ctx ~param =
  let w = fresh ctx "nw" in
  no_expect
    [ decl ~at:(next_line ctx) writer_t w null;
      if_ ~at:(next_line ctx)
        (v param >=: i 10)
        [ assign ~at:(next_line ctx) w (new_ "FileWriter" []) ]
        [];
      if_ ~at:(next_line ctx)
        (v param >=: i 10)
        [ call_stmt ~at:(next_line ctx) w "write" [ v param ];
          call_stmt ~at:(next_line ctx) w "close" [] ]
        [] ]

(* ---------------- lint-detectable patterns (Analysis.Lint) ------------ *)

(* the writer is used before its first assignment -- use-before-init; the
   later assignment and close keep the io checker quiet, so only the lint
   layer flags this *)
let lint_use_before_init ctx ~param =
  let w = fresh ctx "uw" in
  let decl_at = next_line ctx in
  let use_at = next_line ctx in
  { stmts =
      [ decl0 ~at:decl_at writer_t w;
        call_stmt ~at:use_at w "write" [ v param ];
        assign ~at:(next_line ctx) w (new_ "FileWriter" []);
        call_stmt ~at:(next_line ctx) w "close" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "lint"; exp_kind = `Lint "use-before-init";
          exp_line = use_at.Jir.Ast.line;
          exp_note = "write before the writer is ever assigned" } ] }

(* unconditional dereference of a definitely-null variable; the null
   checker reports it at the [= null] line, where the pseudo-allocation
   is *)
let lint_null_deref ctx ~param =
  let w = fresh ctx "dn" in
  let null_at = next_line ctx in
  let deref_at = next_line ctx in
  { stmts =
      [ decl ~at:null_at writer_t w null;
        call_stmt ~at:deref_at w "write" [ v param ] ];
    helpers = [];
    expected =
      [ { exp_checker = "null"; exp_kind = `Error;
          exp_line = null_at.Jir.Ast.line;
          exp_note = "receiver is null on every path" } ] }

(* a helper that returns null on every path, dereferenced by the caller.
   The null checker follows the pseudo-allocation through the return and
   reports it at the helper's [= null] line. *)
let interproc_null_via_return ctx ~param =
  let helper_name = fresh ctx "defaultWriter" in
  let w = fresh ctx "iw" in
  let r = fresh ctx "ir" in
  (* the return's line is drawn before the null's, and the generated
     subjects depend on that order *)
  let ret_at = next_line ctx in
  let null_at = next_line ctx in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name
      ~params:[ (Jir.Ast.Tint, "n") ] ~ret:writer_t
      [ decl ~at:null_at writer_t r null; return ~at:ret_at (Some (v r)) ]
  in
  let call_at = next_line ctx in
  let deref_at = next_line ctx in
  { stmts =
      [ decl ~at:call_at writer_t w
          (scall_rhs ctx.helpers_class helper_name [ v param ]);
        call_stmt ~at:deref_at w "write" [ v param ] ];
    helpers = [ helper ];
    expected =
      [ { exp_checker = "null"; exp_kind = `Error;
          exp_line = null_at.Jir.Ast.line;
          exp_note = "helper returns null on every path" } ] }

(* a branch on an arithmetically impossible condition with real code under
   it -- dead branch; needs the solver, not just constant folding *)
let lint_dead_branch ctx ~param =
  let z = fresh ctx "z" in
  let z_at = next_line ctx in
  let if_at = next_line ctx in
  { stmts =
      [ decl ~at:z_at Jir.Ast.Tint z (Jir.Builder.e (v param -: v param));
        if_ ~at:if_at
          (v z >: i 0)
          [ assign ~at:(next_line ctx) z (Jir.Builder.e (v z +: i 1)) ]
          [] ];
    helpers = [];
    expected =
      [ { exp_checker = "lint"; exp_kind = `Lint "dead-branch";
          exp_line = if_at.Jir.Ast.line;
          exp_note = "z = p - p is always 0, branch never taken" } ] }

(* ---------------- DSL-checker patterns (lib/spec builtins) ------------ *)

(* Ground truth for the four DSL-defined checkers.  The ok twins live
   inside the bug pieces (not in [correct_patterns]) so adding these
   checkers cannot perturb the rng stream of the existing profiles. *)

let lock_pair_t = Jir.Ast.Tobj "LockPair"
let user_input_t = Jir.Ast.Tobj "UserInput"

(* B acquired before A -- the product property's error; the ok twin takes
   the locks in order *)
let lock_order_inversion ctx ~param:_ =
  let q = fresh ctx "lp" in
  let r = fresh ctx "lp" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:(next_line ctx) lock_pair_t q (new_ "LockPair" []);
        call_stmt ~at:(next_line ctx) q "lockA" [];
        call_stmt ~at:(next_line ctx) q "lockB" [];
        call_stmt ~at:(next_line ctx) q "unlockA" [];
        decl ~at:alloc_at lock_pair_t r (new_ "LockPair" []);
        call_stmt ~at:(next_line ctx) r "lockB" [];
        call_stmt ~at:(next_line ctx) r "lockA" [];
        call_stmt ~at:(next_line ctx) r "unlockA" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "lock_order"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "B acquired before A" } ] }

(* the inversion happens only on a feasible branch; the other path is
   clean, so a path-sensitive checker reports exactly one warning *)
let lock_order_branch ctx ~param =
  let r = fresh ctx "lp" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:alloc_at lock_pair_t r (new_ "LockPair" []);
        if_ ~at:(next_line ctx)
          (v param >: i 2)
          [ call_stmt ~at:(next_line ctx) r "lockB" [] ]
          [];
        call_stmt ~at:(next_line ctx) r "lockA" [];
        call_stmt ~at:(next_line ctx) r "unlockA" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "lock_order"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "B first when param > 2" } ] }

(* tainted input reaches exec() unsanitized; the twin sanitizes first *)
let taint_exec ctx ~param:_ =
  let s = fresh ctx "in" in
  let u = fresh ctx "in" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:(next_line ctx) user_input_t s (new_ "UserInput" []);
        call_stmt ~at:(next_line ctx) s "sanitize" [];
        call_stmt ~at:(next_line ctx) s "exec" [];
        decl ~at:alloc_at user_input_t u (new_ "UserInput" []);
        call_stmt ~at:(next_line ctx) u "exec" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "taint"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "exec before sanitize" } ] }

(* send() is a sink only with mode flag 0 (the `when arg 0 == 0' guard);
   the twin sends with flag 1 and stays clean *)
let taint_send_flag ctx ~param:_ =
  let t = fresh ctx "in" in
  let u = fresh ctx "in" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:(next_line ctx) user_input_t t (new_ "UserInput" []);
        call_stmt ~at:(next_line ctx) t "send" [ i 1 ];
        decl ~at:alloc_at user_input_t u (new_ "UserInput" []);
        call_stmt ~at:(next_line ctx) u "send" [ i 0 ] ];
    helpers = [];
    expected =
      [ { exp_checker = "taint"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "send with mode 0 before sanitize" } ] }

(* a field store is a sink: the tainted object escapes into the heap *)
let taint_store ctx ~param:_ =
  let h = fresh ctx "holder" in
  let u = fresh ctx "in" in
  let alloc_at = next_line ctx in
  let store_at = next_line ctx in
  { stmts =
      [ decl ~at:(next_line ctx) (Jir.Ast.Tobj "Holder") h (new_ "Holder" []);
        decl ~at:alloc_at user_input_t u (new_ "UserInput" []);
        store ~at:store_at h "data" u ];
    helpers = [];
    expected =
      [ { exp_checker = "taint"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "stored to the heap before sanitize" };
        (* the stored field is also never loaded anywhere, so the
           points-to never-read lint fires at the store *)
        { exp_checker = "pointsto"; exp_kind = `Lint "pointsto-never-read";
          exp_line = store_at.Jir.Ast.line;
          exp_note = "field 'data' is stored but never loaded" } ] }

(* double close; the twin reads then closes once *)
let close_double ctx ~param =
  let ok = fresh ctx "fh" in
  let f = fresh ctx "fh" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:(next_line ctx) (Jir.Ast.Tobj "FileChannel") ok
          (new_ "FileChannel" []);
        call_stmt ~at:(next_line ctx) ok "read" [ v param ];
        call_stmt ~at:(next_line ctx) ok "close" [];
        decl ~at:alloc_at (Jir.Ast.Tobj "RandomAccessFile") f
          (new_ "RandomAccessFile" []);
        call_stmt ~at:(next_line ctx) f "read" [ v param ];
        call_stmt ~at:(next_line ctx) f "close" [];
        call_stmt ~at:(next_line ctx) f "close" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "close"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "closed twice" } ] }

(* seek after a branch-guarded close: use-after-close on the closing path,
   clean on the other *)
let close_use_after_branch ctx ~param =
  let g = fresh ctx "fh" in
  let alloc_at = next_line ctx in
  { stmts =
      [ decl ~at:alloc_at (Jir.Ast.Tobj "FileChannel") g
          (new_ "FileChannel" []);
        call_stmt ~at:(next_line ctx) g "write" [ v param ];
        if_ ~at:(next_line ctx)
          (v param >: i 5)
          [ call_stmt ~at:(next_line ctx) g "close" [] ]
          [];
        call_stmt ~at:(next_line ctx) g "seek" [ v param ];
        call_stmt ~at:(next_line ctx) g "close" [] ];
    helpers = [];
    expected =
      [ { exp_checker = "close"; exp_kind = `Error;
          exp_line = alloc_at.Jir.Ast.line;
          exp_note = "seek after close when param > 5" } ] }

(* a helper throws an exception its signature does not declare and no
   caller handles it: a true positive for both the plain and the
   handler-aware exception walk *)
let exc_twr_unhandled ctx ~param =
  let helper_name = fresh ctx "riskyU" in
  let throw_at = next_line ctx in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name ~params:[ (Jir.Ast.Tint, "n") ]
      [ if_ ~at:(next_line ctx)
          (v "n" >: i 0)
          [ throw ~at:throw_at "AppError" ]
          [];
        ret0 ~at:(next_line ctx) () ]
  in
  { stmts = [ sstmt ~at:(next_line ctx) ctx.helpers_class helper_name [ v param ] ];
    helpers = [ helper ];
    expected =
      [ { exp_checker = "exc_twr"; exp_kind = `Exn;
          exp_line = throw_at.Jir.Ast.line;
          exp_note = "undeclared AppError escapes every caller" } ] }

(* the try-with-resources idiom the paper's exception checker
   false-positives on: the throw is undeclared, so the CFET has no
   caller-side divergence, but the caller lexically wraps the call in a
   matching try/catch.  No expectation: the plain walk reports it (a false
   positive), the handler-aware walk must not *)
let exc_twr_handled_decoy ctx ~param =
  let helper_name = fresh ctx "riskyH" in
  let ev = fresh ctx "e" in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name ~params:[ (Jir.Ast.Tint, "n") ]
      [ if_ ~at:(next_line ctx)
          (v "n" >: i 3)
          [ throw ~at:(next_line ctx) "AppError" ]
          [];
        ret0 ~at:(next_line ctx) () ]
  in
  { stmts =
      [ try_ ~at:(next_line ctx)
          [ sstmt ~at:(next_line ctx) ctx.helpers_class helper_name [ v param ] ]
          [ catch "AppError" ev [] ] ];
    helpers = [ helper ];
    expected = [] }

(* ---------------- points-to lint patterns ---------------- *)

(* a lock is parked into a holder field nobody ever loads: dead heap
   traffic the whole-program points-to lint reports at the store *)
let pointsto_never_read ctx ~param:_ =
  let h = fresh ctx "holder" in
  let l = fresh ctx "lk" in
  let store_at = next_line ctx in
  { stmts =
      [ decl ~at:(next_line ctx) (Jir.Ast.Tobj "Holder") h (new_ "Holder" []);
        decl ~at:(next_line ctx) lock_t l (new_ "ReentrantLock" []);
        store ~at:store_at h "parked" l ];
    helpers = [];
    expected =
      [ { exp_checker = "pointsto";
          exp_kind = `Lint "pointsto-never-read";
          exp_line = store_at.Jir.Ast.line;
          exp_note = "field 'parked' is stored but never loaded" } ] }

(* user input parked in a holder field crosses a method boundary through
   the heap and reaches exec() in the callee: no single method sees both
   the source allocation and the sink, so only the whole-program
   points-to lint can connect them *)
let pointsto_confused_sink ctx ~param:_ =
  let helper_name = fresh ctx "drain" in
  let h = fresh ctx "holder" in
  let u = fresh ctx "in" in
  let hw = fresh ctx "w" in
  let load_at = next_line ctx in
  let sink_at = next_line ctx in
  let helper =
    meth ~cls:ctx.helpers_class ~name:helper_name
      ~params:[ (Jir.Ast.Tobj "Holder", "b") ]
      [ decl ~at:load_at user_input_t hw (load "b" "payload");
        call_stmt ~at:sink_at hw "exec" [];
        ret0 ~at:(next_line ctx) () ]
  in
  { stmts =
      [ decl ~at:(next_line ctx) (Jir.Ast.Tobj "Holder") h (new_ "Holder" []);
        decl ~at:(next_line ctx) user_input_t u (new_ "UserInput" []);
        store ~at:(next_line ctx) h "payload" u;
        sstmt ~at:(next_line ctx) ctx.helpers_class helper_name [ v h ] ];
    helpers = [ helper ];
    expected =
      [ { exp_checker = "pointsto";
          exp_kind = `Lint "pointsto-confused-sink";
          exp_line = sink_at.Jir.Ast.line;
          exp_note = "heap-borne UserInput reaches exec in the callee" } ] }

(* ---------------- filler ---------------- *)

(* plain integer computation with branches; no property involved *)
let filler ctx ~param =
  let a = fresh ctx "a" in
  let b = fresh ctx "b" in
  no_expect
    [ decl ~at:(next_line ctx) Jir.Ast.Tint a (Jir.Builder.e (v param +: i 7));
      decl ~at:(next_line ctx) Jir.Ast.Tint b (Jir.Builder.e (v a *: i 2));
      if_ ~at:(next_line ctx)
        (v b >: v a)
        [ assign ~at:(next_line ctx) a (Jir.Builder.e (v b -: i 1)) ]
        [ assign ~at:(next_line ctx) b (Jir.Builder.e (v a +: i 1)) ] ]

(* the pattern sets, grouped the way the generator plants them *)
let correct_patterns =
  [ io_ok; io_safe_infeasible; io_ok_via_helper; io_field_alias_ok; lock_ok;
    socket_ok; socket_ok_exn; exn_handled; exn_infeasible; null_safe_guarded;
    filler ]

let bug_patterns_for = function
  | "io" -> [ io_leak_branch; io_use_after_close; io_leak_via_helper;
              io_field_alias_leak ]
  | "lock" -> [ lock_misorder; lock_leak_branch ]
  | "socket" -> [ socket_leak_exn; socket_accept_unbound; socket_reconfigure_leak ]
  | "exception" -> [ exn_unhandled ]
  | "null" -> [ null_deref_branch ]
  | "lock_order" -> [ lock_order_inversion; lock_order_branch ]
  | "taint" -> [ taint_exec; taint_send_flag; taint_store ]
  | "close" -> [ close_double; close_use_after_branch ]
  | "exc_twr" -> [ exc_twr_unhandled ]
  | "exc_twr_decoy" -> [ exc_twr_handled_decoy ]
  | c -> invalid_arg ("Patterns.bug_patterns_for: " ^ c)

(* the bug patterns a profile plants from its own random stream, keyed by
   lint slug (Analysis.Lint names), or for the two null patterns by the
   pattern's name *)
let lint_patterns_for = function
  | "use-before-init" -> [ lint_use_before_init ]
  | "null-unconditional" -> [ lint_null_deref ]
  | "dead-branch" -> [ lint_dead_branch ]
  | "null-via-return" -> [ interproc_null_via_return ]
  | "pointsto-never-read" -> [ pointsto_never_read ]
  | "pointsto-confused-sink" -> [ pointsto_confused_sink ]
  | c -> invalid_arg ("Patterns.lint_patterns_for: " ^ c)
