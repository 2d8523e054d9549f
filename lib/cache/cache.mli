(** Sharded, bounded verdict cache.

    Maps [(canonical history digest, model key)] to the model's boolean
    verdict.  Because {!Smem_core.Canon.digest} is invariant under
    processor permutation and location/value renaming, structurally
    distinct but equivalent histories share one entry.

    The table is split into shards, each guarded by its own mutex
    (OCaml 5 [Stdlib.Mutex] is domain-safe), so domains of a
    {!Smem_parallel.Pool} contend only when they touch the same shard.
    Sharding hashes the {e full} [(digest, model)] key — the ~14
    verdicts of one hot history spread across shards instead of
    serializing on one mutex.
    Each shard is bounded and evicts in insertion (FIFO) order once
    full — verdicts are tiny, so capacity is a count of entries, not
    bytes.

    Instances keep their own hit/miss/evict statistics; the process-wide
    totals are also registered in {!Smem_obs.Metrics} under
    [cache.hits], [cache.misses], [cache.evictions] and [cache.stores],
    so [--stats] output and perfbench see cache behavior without
    plumbing. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current resident entries across all shards *)
  capacity : int;
}

val create : ?shards:int -> capacity:int -> unit -> t
(** [create ~capacity ()] — a cache holding at most [capacity] verdicts
    (at least one per shard).  [shards] (default [8]) is rounded up to
    a power of two.
    @raise Invalid_argument if [capacity <= 0] or [shards <= 0]. *)

val find : t -> digest:string -> model:string -> bool option
(** Cached verdict, if present.  Counts a hit or a miss. *)

val add : ?notify:bool -> t -> digest:string -> model:string -> bool -> unit
(** Insert (last write wins), evicting the oldest entry of the shard if
    it is full.  The {!on_store} hook fires unless [notify] is [false]
    (replaying a persistent store back into the cache must not
    re-append every entry). *)

val on_store : t -> (digest:string -> model:string -> bool -> unit) -> unit
(** Install the persistence hook: called after every store (fresh or
    replacement) with the key and verdict, outside the shard lock.  The
    callback may run concurrently from several domains and must be
    thread-safe.  Last installation wins; {!Smem_serve.Store} is the
    intended (sole) subscriber. *)

val shard_index : t -> digest:string -> model:string -> int
(** Which shard a key lives in — exposed so tests can assert the
    distribution (one hot digest across many models must not collapse
    into one shard). *)

val find_or_add :
  t -> digest:string -> model:string -> (unit -> bool) -> bool * bool
(** [find_or_add t ~digest ~model compute] returns [(verdict, cached)]
    where [cached] says the verdict came from the cache.  [compute]
    runs outside the shard lock, so two domains may race to compute the
    same cell — both get the right answer and one insertion wins. *)

val stats : t -> stats
val clear : t -> unit
(** Drop every entry.  Statistics keep accumulating. *)

val pp_stats : Format.formatter -> stats -> unit
