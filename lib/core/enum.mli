(** The enumeration engine: one search for every model with a parameter
    quadruple, over the variables the quadruple implies.

    It picks a reads-from map ({!Reads_from.iter}), then a total order
    on the labeled operations, then a coherence order or a global
    write order, and asks {!Leaf} about each candidate at the stage it
    completes — so everything a stage fixes is computed once, and a
    stage that refutes skips every candidate below it.  The first
    accepted candidate's witness is returned.

    The labeled order grows one operation at a time, among the linear
    extensions of program order: an operation is appended only when
    {!Leaf.step} allows it, and a configuration (the placed set, each
    location's last labeled writer) whose subtree held no legal complete
    order is never entered again.  Ready operations are tried in
    increasing id order, so the legal complete orders arrive in the
    order a full enumeration would visit them, and the witness is the
    one it would return.

    Coherence and write orders grow the same way, one write at a time:
    a location's writes at a time, locations in id order, under a
    coherence order, and all writes under a global write order.  Ready
    writes (program-order predecessors placed) are tried in increasing
    id order, as {!Coherence.iter} and [Perm.iter_constrained] would,
    and under writer legality (store forwarding included) a write is
    placed only when {!Leaf.refutes} finds that the edges the prefix
    fixes close no cycle.  Value-legal models take no step, and no
    failed prefix is remembered (DESIGN, "Coherence and write orders
    by prefix").

    @raise View.Too_large when the history has [Sys.int_size] or more
    labeled operations under a quadruple with a labeled order (the
    placed set is one machine word). *)

type co_mode = Co_none | Co_per_loc | Co_global

val rf_needed : Model.params -> bool
(** Writer legality (store forwarding included) and the causal
    orderings commit to a reads-from map. *)

val sync_needed : Model.params -> bool
(** RC_sc and weak ordering commit to a labeled order. *)

val co_mode : Model.params -> co_mode
(** A global write order (TSO); a coherence order when views agree on
    one or writer legality needs one for from-read edges — except for
    session views, which may serialize writes oppositely; otherwise
    none. *)

val sync_walk :
  History.t ->
  Leaf.t ->
  rf:Reads_from.t option ->
  f:(int array -> bool) ->
  bool
(** [sync_walk h leaf ~rf ~f] hands [f] each complete labeled order of
    [h] that {!Leaf.step} allows throughout, in the order described
    above, until [f] accepts ([true]); [f]'s array is reused.  Apply it
    to [h] once per history: the program order on the labeled
    operations is computed then.  The failed-configuration memo lives
    for one call. *)

val witness : Model.params -> History.t -> Witness.t option

val model :
  key:string -> name:string -> description:string -> Model.params -> Model.t
(** The model a quadruple defines, with {!witness} as its [Enum]
    engine. *)
