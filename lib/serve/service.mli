(** The engine behind the typed API: executes {!Smem_api.Request}s.

    One service instance owns an optional verdict cache and a
    parallelism budget.  Membership questions (check/corpus cells, and
    the fuzzer's oracle queries via {!checker}) are answered through
    the cache when one is attached.  The cache holds one row per
    [Canon.digest history] — so a history resubmitted under any
    processor permutation or location/value renaming finds its row.
    The digest depends on the history alone, so a request takes it
    once per test, on the calling domain: a 20-model check
    canonicalizes once, a corpus request once per corpus test.

    Check and corpus requests decide each test's cells as one row, in
    containment order: one cache lookup reads the row; the missing
    cells are walked strongest first (registry order); a cell that a
    known cell implies through {!Smem_lattice.Figure5.pairs} — a
    stronger model allows, or a weaker one forbids — is not searched;
    the rest are; and the decided cells are stored back as one row.  An
    implied cell answers [cached: false] and counts in the response's
    [computed]; the [check.implied] metric counts implied cells apart.
    A row whose cached cells contradict a containment (a corrupted
    cache) is searched, not inferred from.  With [jobs > 1], rows fan
    out across tests, not across one test's cells.  {!checker} never
    infers: it searches every cell the cache lacks, because the fuzz
    oracle uses it to test Figure 5 itself.  Classification and
    distinction requests enumerate history spaces and are always
    computed fresh.

    When the {!Smem_obs.Trace} sink is armed, the service records the
    spans [litmus.parse] (inline test text), [registry.resolve] (model
    references), [canon.digest] (one per test) and [cache.lookup] (one
    per test's row, or one per {!checker} cell, around
    {!Smem_core.Model.check}'s own span on a miss).

    [jobs] bounds the worker domains {e one} request may use.  The
    {!Server} fans whole requests across a pool instead, so it builds
    its service with [jobs = 1] — nesting pools would multiply
    domains. *)

type t

val create :
  ?cache:Smem_cache.Cache.t -> ?jobs:int -> ?clock:(unit -> int) -> unit -> t
(** [jobs] defaults to [1].  [clock] supplies the nanosecond readings
    behind each response's [elapsed_ns] (default
    {!Smem_obs.Clock.now}); the simulation harness injects a virtual
    clock here so responses are byte-identical across runs. *)

val cache : t -> Smem_cache.Cache.t option

val checker :
  t -> Smem_core.History.t -> Smem_core.Model.t -> bool * bool
(** [checker t h] computes [h]'s canonical digest at once (nothing when
    [t] has no cache) and returns a function answering
    [(verdict, cached)] for any model: is [h] allowed by it, and was
    the answer served from the cache.  A cell the cache lacks is
    searched, never inferred.  Apply it once per history and query
    every model through the result; the result may be shared across
    domains. *)

val check_model :
  t -> Smem_core.Model.t -> Smem_core.History.t -> bool * bool
(** [check_model t m h = checker t h m]: one cell, one digest. *)

val handle : ?id:int -> t -> Smem_api.Request.t -> Smem_api.Response.t
(** Execute one request.  Never raises on bad input — unknown models or
    tests, unparseable litmus text and kernel-rejected certificates
    all come back as structured
    {!Smem_api.Response.Error} payloads. *)
