(* A no-op that remains only because ledger/child.ml calls [set_cap 1]
   before it forks shard workers; the ledger's next revision drops that
   call and this module.  Nothing in the program spawns a domain a cap
   could limit: checking instances run side by side only in forked shard
   processes. *)

let set_cap (_ : int) = ()
