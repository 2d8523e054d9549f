(** Weak ordering (Dubois, Scheurich, Briggs [1]) — the paper's §3.4
    cites it as the other "selective synchronization" memory besides
    release consistency.

    Operations are ordinary or labeled (synchronizing).  Conditions, in
    framework terms:

    - the labeled operations admit one global serialization that every
      view respects (synchronizing accesses are strongly ordered; their
      values are still drawn from the one shared memory, so legality is
      judged per view against all writes, unlike the labeled-subhistory
      legality of release consistency);
    - an operation issued after a labeled operation of its processor
      follows it in every view, and a labeled operation follows every
      earlier operation of its processor in every view (accesses
      complete across the system before/after a synchronization point);
    - per-location program order is preserved (uniprocessor data
      dependences hold even between synchronization points);
    - views contain the processor's operations plus all writes of
      others, and are legal.

    Unlike release consistency, weak ordering does not distinguish
    acquires from releases: a synchronization access is a full, global
    two-way fence — but between synchronization points, ordinary
    operations of one processor are mutually unordered (RC's partial
    program order does order them), so WO and RC are incomparable.
    SC ⊆ WO, and WO forbids the labeled store-buffering and labeled
    IRIW histories just as RC_sc does — the test suite checks all of
    this. *)

val model : Model.t
