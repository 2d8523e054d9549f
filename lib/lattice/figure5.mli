(** The containment lattice of the paper's Figure 5 as {e data}.

    {!Classify} recomputes the lattice empirically by exhaustive
    enumeration; this module states it, for two consumers that use it
    in opposite directions.  The differential fuzzer tests it as a
    metamorphic oracle: a history allowed by a stronger model must be
    allowed by every weaker one.  The serving layer infers from it:
    {!Smem_serve.Service} skips the search of a cell that a known
    verdict implies.  So every edge of {!hasse} is a theorem with a
    proof in DESIGN.md ("Figure 5 decides cells"); agreement on a
    corpus or on exhaustive scopes does not admit an edge (TSO ⊆
    causal-coh holds on every small scope and is false).

    One containment is conditional.  [SC ⊆ RC_sc] (and transitively
    [SC ⊆ RC_pc], [atomic ⊆ RC_sc], [atomic ⊆ RC_pc]) holds only for
    {e properly labeled} histories, where synchronization locations are
    disjoint from data locations; for arbitrary labelings an acquire
    may legally (under SC) read an ordinary write to a location that
    also carries labeled writes, which RC_sc forbids (EXPERIMENTS.md
    §3).  Such containments are marked [proper_labels_only] and hold
    only on histories satisfying {!properly_labeled}. *)

type containment = {
  stronger : string;  (** model key whose history set is contained *)
  weaker : string;  (** model key whose history set contains it *)
  proper_labels_only : bool;
      (** holds only on {!properly_labeled} histories *)
}

val model_keys : string list
(** The nineteen nodes, strongest first: the seven models of Figure 5 —
    [sc], [tso], [pc], [rc-sc], [rc-pc], [causal], [pram] — plus
    [atomic], [wo], [pc-g], the partition-consistency chain
    ([pc-part(blocks=2)], [pc-part(blocks=4)], [coh]), [causal-coh],
    the session-guarantee chain ([session(ryw,mr,mw,wfr)],
    [session(ryw,mr,mw)], [session(ryw,mr)]), [slow] and [local].
    Parameterized keys resolve through the {!Smem_core.Model_ref}
    grammar. *)

val hasse : containment list
(** The 23 proved edges: Figure 5's SC → TSO, SC → RC_sc (properly
    labeled), TSO → PC, TSO → Causal, RC_sc → RC_pc, PC → PRAM,
    Causal → PRAM; the extended families' SC → PC-G → pc-part(2) →
    pc-part(4) → coh, PC-G → PRAM, PC → coh, PRAM →
    session(ryw,mr,mw) → session(ryw,mr) and session(ryw,mr,mw,wfr) →
    session(ryw,mr,mw); and the projections atomic → SC, SC → WO,
    SC → causal-coh → {causal, PC-G}, PRAM → slow → local.  Not a
    transitive reduction: SC → PC-G also follows through causal-coh. *)

val containments : containment list
(** The transitive closure of {!hasse}: 82 pairs.  A closure pair is
    [proper_labels_only] iff every path establishing it crosses a
    conditional edge (4 pairs). *)

val properly_labeled : Smem_core.History.t -> bool
(** Synchronization discipline of the paper's §5: every location is
    accessed either only by labeled operations or only by ordinary
    ones.  Histories with no labeled operation qualify trivially. *)

val pairs :
  Smem_core.History.t -> (Smem_core.Model.t * Smem_core.Model.t) list
(** The containments applicable to a history — all unconditional pairs,
    plus the conditional ones when the history is properly labeled —
    resolved against {!Smem_core.Registry} (once, at start-up) as
    [(stronger, weaker)] model pairs. *)

val all_pairs : proper_labels:bool -> (Smem_core.Model.t * Smem_core.Model.t) list
(** Same resolution from an explicit flag instead of a history. *)
