(** Release consistency (Gharachorloo et al. [6]), §3.4 of the paper.

    Operations are split into {e ordinary} and {e labeled}
    (synchronization) accesses; a labeled read is an acquire, a labeled
    write a release.  Views contain the processor's operations plus all
    writes of others (labeled reads of other processors appear in no
    view but their owner's).  The requirements:

    - mutual consistency: coherence (shared per-location write order);
    - the view owner's operations respect its partial program order;
    - the labeled subhistory is sequentially consistent ([RC_sc]) or
      processor consistent ([RC_pc]) — an additional mutual-consistency
      requirement across views;
    - bracketing: an ordinary operation that program-order-follows an
      acquire follows, in every view, the write the acquire read; an
      ordinary operation that program-order-precedes a release precedes
      it in every view.

    Note: the paper's statement of the release condition says the
    ordinary operation "follows" the release; release semantics (and the
    paper's own motivating sentence, "RC ensures that an ordinary
    operation completes before the following release is performed")
    require "precedes", which is what we implement.  See DESIGN.md.

    Scope note: an acquire whose writer is an {e ordinary} write to a
    location that also has labeled writes is rejected (the labeled
    subhistory could not be legal); properly-labeled programs never do
    this. *)

val rc_sc : Model.t
val rc_pc : Model.t
