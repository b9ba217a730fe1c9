(* A no-op that remains only because ledger/child.ml calls [set_cap 1]
   before it forks shard workers; the ledger's next revision drops that
   call and this module.  Nothing in the tree spawns a domain a cap could
   limit: the instance scheduler sizes its worker pool from its own
   [workers] setting. *)

let set_cap (_ : int) = ()
