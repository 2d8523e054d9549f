(** The session-guarantee family (Terry et al. 1994, via Almeida's
    consistency framework): per-processor views of own operations plus
    all writes, value-legal, constrained only by the selected
    guarantees instead of full program order.

    - [ryw] (read-your-writes): each processor's own write→read
      program-order pairs;
    - [mr] (monotonic reads): its own read→read pairs;
    - [mw] (monotonic writes): {e every} processor's write→write pairs
      (writes appear in every view, so this binds all views);
    - [wfr] (writes-follow-reads): for each read with assigned writer
      [w], [w] precedes the reader's subsequent writes in every view.
      This guarantee quantifies over a reads-from map, so enabling it
      switches the family to writer-legality.

    All four guarantees together are strictly weaker than PRAM (which
    also keeps read→write order); none of them is comparable to the
    coherence side of the lattice. *)

type flags = { ryw : bool; mr : bool; mw : bool; wfr : bool }

val all_flags : flags
val no_flags : flags

val key_of : flags -> string
(** Canonical key: enabled guarantees in [ryw,mr,mw,wfr] order, e.g.
    ["session(ryw,mr)"]; ["session()"] when none. *)

val instantiate : flags -> Model.t

val exemplar_rm : Model.t
(** [session(ryw,mr)] — the catalogued exemplar. *)

val exemplar_all : Model.t
(** [session(ryw,mr,mw,wfr)] — the catalogued exemplar. *)
