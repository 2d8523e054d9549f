(** Engine A: the acyclicity engine, the {!Leaf} back-end for
    writer-legal views.

    When the views commit to a reads-from map and a write
    serialization (a coherence order or a global write order, plus any
    labeled-operation order), checking a candidate witness reduces to a
    cycle check: build, per processor view, the digraph of all ordering
    obligations — the model's ordering relation, the serialization
    edges, reads-from edges, and the derived {e from-read} edges — and
    accept iff every view's digraph is acyclic.

    Soundness/completeness on a fixed candidate [(rf, co, extra)]: a
    legal view exists iff the digraph is acyclic, because any linear
    extension of an acyclic digraph containing [rf], [fr] and the
    coherence edges places each read immediately within the coherence
    window of its writer, which is exactly legality; conversely a legal
    view is itself a linear extension, so a cycle rules every view
    out. *)

module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

type view_spec = {
  proc : int;  (** processor this view belongs to; [-1] for a shared view *)
  ops : Bitset.t;  (** operations included in the view *)
  order : Rel.t;  (** the model's ordering requirement (global; restricted here) *)
}

val rf_edges : History.t -> rf:Reads_from.t -> Rel.t
(** [writer r → r] for every read with a non-initial writer. *)

val fr_edges : History.t -> rf:Reads_from.t -> co:Coherence.t -> Rel.t
(** From-read edges: each read precedes every write that is
    coherence-after its writer (every write to the location, when the
    read reads the initial value). *)

val check :
  ?rf_rel:Rel.t ->
  History.t ->
  rf:Reads_from.t ->
  co:Coherence.t ->
  extra:Rel.t ->
  views:view_spec list ->
  Witness.t option
(** Check every view's digraph for acyclicity; on success return a
    witness with a deterministic linear extension per view and the
    committed reads-from assignment attached (certificates embed it).

    [?rf_rel] lets a caller that enumerates coherence orders inside a
    reads-from loop pass the map's edges computed once per map instead
    of recomputing them for every coherence candidate; it is never
    mutated.  By default it is [rf_edges h ~rf]; store forwarding passes
    {!Orders.forwarding}'s edges instead, which drop the edge of a
    forwarded read. *)
