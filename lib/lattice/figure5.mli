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

    Three edges are conditional, each guarded by exactly the condition
    its proof uses.  [SC ⊆ RC_sc] holds when no acquire reads a
    location that holds both labeled and ordinary writes
    ({!Acquires_unmixed}): there an acquire may legally (under SC) read
    an ordinary write, which RC forbids (EXPERIMENTS.md §3).  Causal
    memory and object causal memory contain each other when every
    location is a register ({!Registers_only}); on queues and counters
    they differ. *)

type guard =
  | Registers_only
      (** every location is a register ({!Smem_core.Sort.Register}) *)
  | Acquires_unmixed
      (** no acquire reads a location whose writes include both labeled
          and ordinary ones *)

type containment = {
  stronger : string;  (** model key whose history set is contained *)
  weaker : string;  (** model key whose history set contains it *)
  guards : guard list;
      (** holds on histories satisfying every listed guard; [[]] means
          unconditionally *)
}

val model_keys : string list
(** The twenty-one nodes, strongest first: the seven models of Figure 5
    — [sc], [tso], [pc], [rc-sc], [rc-pc], [causal], [pram] — plus
    [atomic], [tso-op], [wo], [pc-g], the partition-consistency chain
    ([pc-part(blocks=2)], [pc-part(blocks=4)], [coh]), [causal-coh],
    [causal-obj], the session-guarantee chain
    ([session(ryw,mr,mw,wfr)], [session(ryw,mr,mw)],
    [session(ryw,mr)]), [slow] and [local].  Every catalogue model is
    a node.  Parameterized keys resolve through the
    {!Smem_core.Model_ref} grammar. *)

val hasse : containment list
(** The 27 proved edges: Figure 5's SC → TSO, SC → RC_sc (guarded by
    {!Acquires_unmixed}), TSO → PC, TSO → Causal, RC_sc → RC_pc, PC →
    PRAM, Causal → PRAM; the extended families' SC → PC-G → pc-part(2)
    → pc-part(4) → coh, PC-G → PRAM, PC → coh, PRAM →
    session(ryw,mr,mw) → session(ryw,mr) and session(ryw,mr,mw,wfr) →
    session(ryw,mr,mw); the projections atomic → SC, SC → WO, SC →
    causal-coh → {causal, PC-G}, PRAM → slow → local; and TSO →
    tso-op, SC → session(ryw,mr,mw,wfr), and causal ↔ causal-obj (both
    guarded by {!Registers_only}).  Not a transitive reduction: SC → PC-G also
    follows through causal-coh. *)

val containments : containment list
(** The transitive closure of {!hasse}, self-pairs left out: 98 pairs.
    A pair's guards are the fewest under which some path of edges
    reaches it: 83 pairs are unconditional, 11 need
    {!Registers_only} and 4 {!Acquires_unmixed}. *)

val holds : guard -> Smem_core.History.t -> bool
(** Whether a history satisfies a guard. *)

val properly_labeled : Smem_core.History.t -> bool
(** Synchronization discipline of the paper's §5: every location is
    accessed either only by labeled operations or only by ordinary
    ones.  Histories with no labeled operation qualify trivially.  It
    implies {!Acquires_unmixed}; the fuzz oracle asserts the RC
    machines' soundness only on such histories. *)

val pairs :
  Smem_core.History.t -> (Smem_core.Model.t * Smem_core.Model.t) list
(** The containments applicable to a history: the transitive closure of
    the edges whose guards it satisfies, resolved against
    {!Smem_core.Registry} as [(stronger, weaker)] model pairs, in
    lexicographic order of the two positions in {!model_keys}.  The
    closure for each of the four guard combinations is computed and
    resolved once, at start-up. *)

(** {1 Inference over masks}

    The same containments as bit masks, for the serving layer's fill:
    a set of nodes is a word whose bit [i] is the node at position [i]
    of {!model_keys}, and a set of known verdicts is two such words,
    the nodes known to allow the history and those known to forbid
    it. *)

val position : string -> int option
(** The position of the node whose resolved model has this key, or
    [None] for a model that is not a node (a family instance outside
    the catalogue, which is never inferred). *)

type implications
(** The containments applicable to one guard combination, as two masks
    per node: the nodes stronger than it (contained in it) and the
    nodes weaker than it (containing it). *)

val implications : Smem_core.History.t -> implications
(** The masks of the history's guard combination; like {!pairs}, built
    once per combination at start-up. *)

val implied :
  implications -> allowed:int -> forbidden:int -> int -> bool option
(** [implied t ~allowed ~forbidden i] is the verdict that the known
    verdicts force on node [i] through a containment: [Some true] when
    a stronger node allows, [Some false] when a weaker node forbids,
    [None] otherwise.  When both apply (only verdicts that break a
    containment allow that), the answer is that of the first
    applicable pair of {!pairs}. *)

val contradicts : implications -> allowed:int -> forbidden:int -> bool
(** Whether the known verdicts break a containment: some node allows
    while a weaker node forbids. *)
