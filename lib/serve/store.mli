(** Persistent on-disk verdict store (smem-store/2).

    An append-only log of [(canonical digest, model key, fingerprint,
    verdict)] records.  {!attach} replays an existing log into the
    cache (so a restarted daemon answers known histories without
    recomputing) and then subscribes to the cache's [on_store] hook,
    appending — and flushing — every verdict the cache stores after
    that: computed ones, and those Figure 5 implied.

    A verdict depends on the model's definition as well as on the
    history, so each record carries the {!fingerprint} of the
    definition it was decided under.  Replay loads only the records
    whose fingerprint is the running definition's: after a model is
    fixed, its cells restart cold and every other model's warm.  A log
    in another format (smem-store/1 had no fingerprints) is stale as a
    whole: replay loads none of it, and {!attach} starts it afresh.
    The fingerprint covers the record's own model only: a verdict
    Figure 5 implied from a model whose definition later changes keeps
    its record.

    Replay tolerates a truncated final line (crash mid-append) and
    skips comments and malformed records instead of failing; within
    one definition verdicts never change, so the log needs no
    compaction and duplicate records are harmless.

    Metrics: [store.appends], [store.replayed], [store.stale]. *)

type t

val attach : path:string -> Smem_cache.Cache.t -> t
(** Replay [path] (if it exists) into the cache with the hook
    disarmed, create the file (or restart a stale-format one) otherwise,
    then install the append hook.  The store becomes the cache's
    persistence sink until {!close}. *)

val fingerprint : string -> string option
(** [fingerprint key]: 16 hex digits of the MD5 of the model's rendered
    parameter quadruple ({!Smem_core.Model.params_strings}), or of
    {!Smem_core.Tso_operational.version} for tso-op; [None] when [key]
    does not resolve (its records never replay). *)

val replayed : t -> int
(** Records loaded into the cache at {!attach} time. *)

val stale : t -> int
(** Records {!attach} skipped: another definition's fingerprint, an
    unknown model, or a log in another format. *)

val appended : t -> int
(** Records appended since {!attach}. *)

val path : t -> string

val close : t -> unit
(** Flush and close the log.  Later cache stores are dropped silently
    (the hook stays installed but writes nowhere) — close on the way
    out, after the daemon has drained. *)
