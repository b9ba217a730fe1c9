(* Generic forward dataflow solver over [Cfg.t].

   Same worklist discipline as [Baseline.Worklist] (FIFO queue, re-enqueue
   on change) but typed against a user-supplied lattice instead of graph
   edges.  Clients provide the lattice operations and a per-node transfer
   function; the solver returns the fixpoint in/out states indexed by CFG
   node id.

   [bottom] must be the identity of [join] and is the state of nodes the
   iteration never reaches, so must-analyses use their top element (the
   full universe) as [bottom].  Exceptional edges ([Cfg.Exc]) propagate the
   *in*-state of their source: the exception may preempt the statement's
   own effect. *)

module type DOMAIN = sig
  type t

  val bottom : t
  (** identity of [join]; the state of unvisited nodes *)

  val init : Cfg.t -> t
  (** boundary state at entry *)

  val equal : t -> t -> bool
  val join : t -> t -> t

  val transfer : Cfg.t -> int -> t -> t
  (** [transfer g node state] applies node [node]'s effect to [state] *)

  val exc : Cfg.t -> int -> t -> t
  (** [exc g node state] is the state flowing along an exceptional edge
      out of [node], given [node]'s in-state.  Intraprocedural clients use
      the identity (the exception preempts the statement's own effect);
      interprocedural clients apply the callee's partial effect, since the
      callee may have advanced tracked objects before throwing. *)
end

type 'a result = { input : 'a array; output : 'a array }

module Forward (D : DOMAIN) = struct
  let solve (g : Cfg.t) : D.t result =
    let n = Cfg.n_nodes g in
    let input = Array.make n D.bottom in
    let output = Array.make n D.bottom in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let push i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.add i queue
      end
    in
    for i = 0 to n - 1 do push i done;
    while not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      queued.(node) <- false;
      let in_state =
        List.fold_left
          (fun acc (p, kind) ->
            let contrib =
              match kind with
              | Cfg.Exc -> D.exc g p input.(p)
              | _ -> output.(p)
            in
            D.join acc contrib)
          (if node = g.Cfg.entry then D.init g else D.bottom)
          g.Cfg.preds.(node)
      in
      let out_state = D.transfer g node in_state in
      input.(node) <- in_state;
      if not (D.equal out_state output.(node)) then begin
        output.(node) <- out_state;
        List.iter (fun (s, _) -> push s) g.Cfg.succs.(node)
      end
    done;
    { input; output }
end
