(** The constraint-propagation witness engine.

    A drop-in alternative to the enumerator ({!Smem_core.Enum}) over
    the same candidates: legality is decided by a backtracking search
    over {e individual} variables — one writer per read, one position
    per write, one slot per labeled operation — with each decision
    propagated into incrementally maintained transitive closures
    ({!Smem_relation.Closure}) of the per-view ordering obligations.  A
    cycle closed during propagation refutes every completion of the
    current partial assignment at once; cycles found while deciding
    reads-from variables are additionally distilled into {!Nogood}s
    that keep pruning for the rest of the search.

    Verdicts are equivalent to the enumerator's by construction:
    propagation only prunes candidates the per-candidate check would
    reject, and every fully assigned candidate is validated by that
    same check, {!Smem_core.Leaf}, at the same stages.  Witnesses are
    built by it too, so certificates extracted from solver runs remain
    kernel-checkable.  The differential fuzz oracle
    ([Smem_fuzz.Oracle.engines]) tests the equivalence continuously. *)

val witness : Smem_core.Model.t -> Smem_core.History.t -> Smem_core.Witness.t option
(** The solver's witness search.  Hands object legality and store
    forwarding to the enumerator (the model's own witness function). *)

val check : Smem_core.Model.t -> Smem_core.History.t -> bool

val install : unit -> unit
(** Register {!witness} as the [Solve] engine
    ({!Smem_core.Model.register_solver}); after
    [Smem_core.Model.set_engine Solve], every
    {!Smem_core.Model.check}/[witness_of] call routes through it. *)
