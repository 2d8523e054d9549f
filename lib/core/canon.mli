(** History canonicalization and content digests.

    Every model in {!Registry} except the partition-consistency family
    is symmetric in processor identities, uses location identities
    only for equality, and uses values only for equality within a
    location — except the distinguished initial value [0], which every
    location implicitly holds (footnote 1 of the paper).  Real-time
    intervals, when present, are part of the behavior (the atomic
    model reads them) and are preserved verbatim.

    Consequently any combination of
    - a permutation of processors,
    - a renaming of locations, and
    - per-location value bijections that fix [0]
    maps a history to one with exactly the same verdict under every
    such model.  The partition models are the exception:
    [pc-part(blocks=k)] puts location id [l], numbered by first use,
    in block [l mod k], so a processor permutation can move a location
    to another block, and [pc-part(partition=...)] reads location
    names.  Two spellings of one test can share a digest and differ
    under them (ROADMAP item 1, not yet fixed).

    [canonicalize] picks a distinguished representative of that
    orbit, and [digest] is a stable content hash of it — the cache key
    used by {!Smem_cache}, so that e.g. the store-buffering litmus test
    written with locations [x, y] and the same test written with
    [a, b] hit the same cache entry.

    The representative has the least encoding over all processor
    orders.  The search places rows one at a time and branches only
    where rows tie, within a fixed bound on the rows it encodes; every
    history of at most six processors fits the bound.  A history whose
    ties overrun it follows the first tied row at each step: still
    idempotent, renaming-invariant and verdict-preserving (under the
    symmetric models), though two
    members of its orbit are then not {e guaranteed} one digest, which
    costs cache hits, never correctness. *)

val canonicalize : History.t -> History.t
(** The canonical representative.  Idempotent; preserves every
    model's verdict except the partition models' (see above); preserves
    timing intervals.  Locations are renamed to
    [l0, l1, ...] in first-use order and nonzero values to [1, 2, ...]
    in first-use order per location. *)

val encode : History.t -> string
(** Compact textual encoding of [canonicalize h].  Injective on
    canonical histories: [encode a = encode b] iff the canonical forms
    are identical. *)

val digest : History.t -> string
(** Hex MD5 of [encode h] — the stable content digest. *)

val equivalent : History.t -> History.t -> bool
(** [encode a = encode b].  Within the work bound this decides orbit
    equivalence exactly. *)
