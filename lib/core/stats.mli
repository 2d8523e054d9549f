(** Search-statistics counters for the witness searches.

    Every checker is an existential search over enumerated reads-from
    maps and coherence orders; these counters make the cost of that
    search observable ([smem ... --stats], perfbench) instead of
    asserted.  Counters are process-global atomics: they aggregate over
    every check since the last {!reset}, across all worker domains of
    a parallel request, and are safe to bump concurrently.

    The cells live in the {!Smem_obs.Metrics} registry (names
    ["search.checks"], ["search.rf_candidates"], … and
    ["fuzz.pass.<oracle>"], …), so the same values also appear in
    [--metrics] output; this module is the typed view the search code
    bumps through. *)

type snapshot = {
  checks : int;  (** {!Model.check} invocations *)
  rf_candidates : int;  (** complete reads-from maps enumerated *)
  co_candidates : int;  (** complete coherence orders enumerated *)
  pruned : int;
      (** rf writer candidates rejected before enumeration:
          value-incompatible writes, plus one per read whose candidate
          set is empty (which prunes the entire search) *)
  toposorts : int;  (** topological sorts run by the acyclicity engine *)
  sync_orders : int;
      (** complete labeled orders handed to {!Leaf.with_sync} (RC_sc,
          weak ordering) *)
  wall_ns : int;
      (** wall time spent inside {!Model.check}, in nanoseconds, summed
          across concurrent workers (so it can exceed elapsed time) *)
  solve_decisions : int;
      (** variable assignments tried by the propagation engine *)
  solve_propagations : int;
      (** closure edges inserted by the solver's propagators *)
  solve_conflicts : int;
      (** cycles detected during propagation, before any leaf check *)
  solve_nogoods : int;  (** nogoods learned from conflicts *)
  solve_nogood_hits : int;
      (** candidate assignments rejected by a learned nogood *)
  solve_leaves : int;
      (** fully assigned candidates validated by the exact per-model
          leaf check *)
}

val reset : unit -> unit
(** Zero every counter — and, because the cells live in the shared
    registry, every other {!Smem_obs.Metrics} metric with them (one
    coherent epoch for [--stats]/[--metrics] reporting). *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — componentwise subtraction. *)

val pp : Format.formatter -> snapshot -> unit

(** {1 Instrumentation points}

    Called by the enumeration and engine hot paths; cheap atomic
    increments. *)

val count_check : unit -> unit
val count_rf : unit -> unit
val count_co : unit -> unit
val add_pruned : int -> unit
val count_toposort : unit -> unit
val count_sync_order : unit -> unit
val add_wall_ns : int -> unit
val count_solve_decision : unit -> unit
val add_solve_propagations : int -> unit
val count_solve_conflict : unit -> unit
val count_solve_nogood : unit -> unit
val count_solve_nogood_hit : unit -> unit
val count_solve_leaf : unit -> unit

val time : (unit -> 'a) -> 'a
(** Run the thunk and add its duration to {!snapshot} [wall_ns] (also
    on exceptions).  Measured on the monotonic clock
    ({!Smem_obs.Clock}), so an NTP step mid-thunk cannot produce a
    negative or skewed reading. *)

(** {1 Differential-fuzzer counters}

    Pass/fail/shrink tallies keyed by oracle name — a machine/model
    soundness pairing such as ["sound:tso"] or a lattice containment
    arrow such as ["sc<=tso"].  Like the search counters they are
    process-global, domain-safe, and cleared by {!reset}. *)

type fuzz = { pass : int; fail : int; shrink_steps : int }

val count_fuzz_pass : string -> unit
val count_fuzz_fail : string -> unit

val add_fuzz_shrink : string -> int -> unit
(** Record [n] accepted shrinking steps for an oracle's counterexample. *)

val fuzz_snapshot : unit -> (string * fuzz) list
(** Every oracle bumped since the last {!reset}, sorted by key. *)

val pp_fuzz : Format.formatter -> (string * fuzz) list -> unit
