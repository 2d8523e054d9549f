(** An independent, operational decision procedure for TSO, following
    the implementation description quoted in §3.2: per-processor FIFO
    store buffers in front of a single-ported shared memory.  A history
    is accepted iff some interleaving of issue and buffer-flush steps
    replays it — reads returning the newest buffered value for their
    location, or the memory value when none is buffered.

    This module exists to cross-validate [tso]: the paper argues its
    view-based characterization captures the operational/axiomatic TSO.
    The two differ on store forwarding (EXPERIMENTS.md finding 1), so
    the test suite checks a containment, [tso] ⊆ [tso-op], not
    equality; the TSO store-buffer machine's histories are checked
    equal to this one's.  Figure 5 proves only SC ⊆ tso-op. *)

val check : History.t -> bool
val model : Model.t

val version : string
(** The definition's version.  The model has no parameter quadruple to
    fingerprint its stored verdicts with ({!Smem_serve.Store}), so this
    string stands in: change it with any change to {!check} that may
    change a verdict. *)
