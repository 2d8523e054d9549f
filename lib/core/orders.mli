(** The ordering relations of §2 (parameter 3), computed over the
    operation identifiers of a history as {!Smem_relation.Rel.t}.

    - {!po}: total per-processor program order.
    - {!ppo}: the partial program order of non-blocking memories — a
      write followed (in program order) by a read of a {e different}
      location is unordered; all other program-order pairs, and
      everything reachable by chaining, stay ordered.
    - {!po_loc}: program order restricted to same-location pairs.
    - {!causal}: Lamport-style causality [(po ∪ wb)+] for a given
      reads-from map.
    - {!rwb}, {!rrb}, {!sem}: the remote writes-before, remote
      reads-before and semi-causality relations of processor
      consistency, for a given reads-from map and coherence order.

    The [*_within] variants compute the same relations on the
    {e subhistory} induced by a set of operations (used for the labeled
    subhistories of release consistency): program-order adjacency is
    taken within the subhistory and edges never leave it. *)

module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

val po : History.t -> Rel.t
val po_loc : History.t -> Rel.t
val ppo : History.t -> Rel.t

val po_of_proc : History.t -> int -> Rel.t
(** Program order restricted to one processor's own operations. *)

val ppo_of_proc : History.t -> int -> Rel.t
(** Partial program order restricted to one processor's own operations
    (the ordering clause of release consistency constrains only the
    view owner's operations). *)

val real_time : History.t -> Rel.t
(** Real-time precedence from operation intervals: [a] before [b] when
    [a]'s response strictly precedes [b]'s invocation.  Empty when the
    history carries no timing. *)

val causal : History.t -> rf:Reads_from.t -> Rel.t

val causal_with : History.t -> po:Rel.t -> rf:Reads_from.t -> Rel.t
(** {!causal} with the program order precomputed: enumeration loops
    call this with [po h] hoisted out of the per-candidate path. *)

val rwb : History.t -> rf:Reads_from.t -> Rel.t
(** [o1 →rwb o2]: [o1] is a write, [o2] a read whose writer [o'] has
    [o1 →ppo o']. *)

val rrb : History.t -> rf:Reads_from.t -> co:Coherence.t -> Rel.t
(** [o1 →rrb o2]: [o1] is a read whose writer is coherence-before some
    write [o'] to the same location (or is the initial write), and
    [o' →ppo o2]. *)

val sem : History.t -> rf:Reads_from.t -> co:Coherence.t -> Rel.t
(** Semi-causality: [(ppo ∪ rwb ∪ rrb)+]. *)

val sem_with :
  History.t -> ppo:Rel.t -> rf:Reads_from.t -> co:Coherence.t -> Rel.t
(** {!sem} with the partial program order precomputed (it is
    candidate-independent, so enumeration loops hoist it). *)

val ppo_within : History.t -> members:Bitset.t -> Rel.t
val sem_within :
  History.t -> members:Bitset.t -> rf:Reads_from.t -> co:Coherence.t -> Rel.t
(** Semi-causality of the subhistory induced by [members]; reads-from
    edges are considered only when both endpoints are members. *)

(** {1 The selective-synchronization and session orders} *)

val fences : History.t -> Rel.t
(** Weak ordering's two-way fences: every same-processor program-order
    pair with a labeled endpoint. *)

val release_brackets : History.t -> Rel.t
(** The static half of release consistency's §3.4 bracketing: each
    ordinary operation precedes every later release of its processor. *)

val acquire_brackets : History.t -> rf:Reads_from.t -> Rel.t
(** The reads-from half: an acquire's (non-initial) writer precedes
    every later ordinary operation of the acquiring processor. *)

val session :
  History.t ->
  ryw:bool ->
  mr:bool ->
  mw:bool ->
  wfr:Reads_from.t option ->
  Rel.t
(** The session guarantees' program-order projections, not closed:
    [ryw] each processor's write→read pairs, [mr] its read→read pairs,
    [mw] its write→write pairs.  With [~wfr:(Some rf)] also each read's
    writer before the reader's later writes (writes-follow-reads). *)

val chain : int -> int array -> Rel.t
(** [chain nops seq]: consecutive pairs of [seq].  Enough for a total
    order that every view holds in full (a global write order). *)

val total_order : int -> int array -> Rel.t
(** [total_order nops seq]: every (earlier, later) pair of [seq] — not
    just consecutive ones, so a view that omits an intermediate element
    (another processor's labeled read) still orders the rest. *)
