(** Sharded, bounded verdict cache.

    Holds one {e row} per canonical history digest: the history's known
    verdicts, one per model key.  Because {!Smem_core.Canon.digest} is
    invariant under processor permutation and location/value renaming,
    structurally distinct but equivalent histories share one row.  A
    request reads a test's whole row with one lookup ({!find_row}) and
    writes back what it decided with one store ({!add_row});
    {!find}, {!add} and {!find_or_add} are per-cell accessors on the
    same rows.

    The rows are split into shards, each guarded by its own mutex
    (OCaml 5 [Stdlib.Mutex] is domain-safe), so domains of a
    {!Smem_parallel.Pool} contend only when they touch the same shard.
    The digest alone picks the shard: a row is read and written whole,
    and distinct histories spread over the shards.  Each shard is
    bounded and evicts whole rows in insertion (FIFO) order once full —
    capacity is a count of rows (histories), not of verdicts or bytes.

    Instances keep their own hit/miss/evict statistics, counted in
    verdicts: a hit or a miss per cell asked for, an eviction per
    verdict dropped.  The process-wide totals are also registered in
    {!Smem_obs.Metrics} under [cache.hits], [cache.misses],
    [cache.evictions] and [cache.stores], so [--stats] output and
    perfbench see cache behavior without plumbing. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** verdicts dropped with their evicted rows *)
  entries : int;  (** current resident verdicts across all rows *)
  capacity : int;  (** rows *)
}

val create : ?shards:int -> capacity:int -> unit -> t
(** [create ~capacity ()] — a cache holding at most [capacity] rows (at
    least one per shard).  [shards] (default [8]) is rounded up to a
    power of two.
    @raise Invalid_argument if [capacity <= 0] or [shards <= 0]. *)

val find_row : t -> digest:string -> models:string list -> (string * bool) list
(** [find_row t ~digest ~models] is every cached verdict of [digest]'s
    row, as [(model key, verdict)] pairs ([[]] when there is no row),
    under one shard lock.  [models] are the cells the caller asks
    about: each counts a hit if the row holds it and a miss if not. *)

val add_row :
  ?notify:bool -> t -> digest:string -> (string * bool) list -> unit
(** Merge [(model key, verdict)] cells into [digest]'s row (last write
    wins per model), creating the row — and evicting the shard's oldest
    row if the shard is full — when it is new.  The {!on_store} hook
    fires once per cell unless [notify] is [false] (replaying a
    persistent store back into the cache must not re-append every
    entry). *)

val find : t -> digest:string -> model:string -> bool option
(** One cached verdict, if present.  Counts a hit or a miss. *)

val add : ?notify:bool -> t -> digest:string -> model:string -> bool -> unit
(** [add_row] of one cell. *)

val on_store : t -> (digest:string -> model:string -> bool -> unit) -> unit
(** Install the persistence hook: called after every stored cell (fresh
    or replacement) with the key and verdict, outside the shard lock.
    The callback may run concurrently from several domains and must be
    thread-safe.  Last installation wins; {!Smem_serve.Store} is the
    intended (sole) subscriber. *)

val shard_index : t -> digest:string -> int
(** Which shard a digest's row lives in — exposed so tests can assert
    the distribution (distinct digests must spread over the shards). *)

val find_or_add :
  t -> digest:string -> model:string -> (unit -> bool) -> bool * bool
(** [find_or_add t ~digest ~model compute] returns [(verdict, cached)]
    where [cached] says the verdict came from the cache.  [compute]
    runs outside the shard lock, so two domains may race to compute the
    same cell — both get the right answer and one insertion wins. *)

val stats : t -> stats
val clear : t -> unit
(** Drop every row.  Statistics keep accumulating. *)

val pp_stats : Format.formatter -> stats -> unit
