(** Partial-order-reduced exploration of Lang programs (DESIGN §12).

    Two reducers over the machine × threads product automaton share one
    conservative dependence relation built from {!Races.access}:

    - {!check_mutex_stats} checks mutual exclusion on cyclic programs
      with ample-singleton persistent sets, sleep sets, covering-based
      state memoization and the stack proviso.  It preserves the
      verdict of {!Explore.check_mutex}, not the reachable state set
      (exploration stops once every thread has finished).
    - {!fold_traces} enumerates the maximal executions of a loop-free
      program, one representative per Mazurkiewicz trace class up to
      the dependence relation.  The corpus generator uses it as a
      semantic history deduplicator; with [~reduced:false] it is the
      naive full-interleaving enumerator the differential tests compare
      against.

    Internal machine steps (buffer flushes, deliveries) form a
    pseudo-process that is never reduced or slept: every internal
    successor is always expanded, and its dependence with thread
    accesses is approximated via
    {!Smem_machine.Machine_sig.MACHINE.internal_locs} and
    {!Smem_machine.Machine_sig.MACHINE.write_depends_on_internal}. *)

type verdict = Safe of int | Violation of string list | State_limit

type stats = {
  states : int;  (** distinct states expanded *)
  transitions : int;  (** transitions executed (threads + internal) *)
  ample_hits : int;  (** states expanded through a singleton ample set *)
  full_expansions : int;  (** states where every enabled transition ran *)
  sleep_skips : int;  (** transitions pruned by sleep sets *)
  covering_skips : int;  (** revisits pruned by the covering rule *)
  proviso_fallbacks : int;  (** ample choices vetoed by the stack proviso *)
  env_deferrals : int;
      (** states where the whole delivery lattice was postponed because
          every thread's next access was independent of the pending
          internal work *)
  enter_prunes : int;
      (** states cut off because no thread can ever enter a critical
          section again, so no violation lies ahead *)
}

val pp_stats : Format.formatter -> stats -> unit

val digest_key : 'a -> Digest.t
(** MD5 of the [Marshal] image of an immutable value: a constant-size
    hash-table key for deep (machine × threads) states.  [Hashtbl.hash]
    only samples a bounded prefix of the structure, so large buffered
    machine states collide en masse and bucket scans turn quadratic;
    digesting the whole value keeps lookups O(1).  Only sound for keys
    compared structurally (no functions, no cycles). *)

val describe_action : int -> Exec.action -> string
(** [describe_action thread a]: one human-readable line of a violation
    trace, e.g. ["t0: store loc1 := 1 (labeled)"]. *)

val check_mutex_stats :
  ?max_states:int ->
  ?max_transitions:int ->
  ?fuel:int ->
  Smem_machine.Machine_sig.machine ->
  Ast.program ->
  verdict * stats
(** Reduced exhaustive check of mutual exclusion.  [Safe n] reports the
    number of distinct states the {e reduced} search expanded (a lower
    bound on the full product automaton); [Violation trace] is a
    concrete interleaving ending in two threads inside the critical
    section; [State_limit] means a state, transition or fuel budget was
    hit first. *)

val loop_free : Ast.program -> bool
(** No [While] loop anywhere ([For] is bounded and allowed): the
    program's state space is acyclic and {!fold_traces} accepts it. *)

val fold_traces :
  ?reduced:bool ->
  ?max_transitions:int ->
  ?fuel:int ->
  Smem_machine.Machine_sig.machine ->
  Ast.program ->
  init:'a ->
  f:('a -> Smem_core.History.t * Exec.Env.t array -> 'a) ->
  ('a, string) result
(** Fold [f] over the maximal executions of a loop-free program on the
    given machine.  Each execution yields the history of its
    memory operations (read-modify-writes recorded as the labeled
    writes they perform, critical-section markers omitted) and the
    final register environments.  With [reduced] (default), sleep-set
    DPOR explores one interleaving per trace class: the multiset of
    emitted pairs shrinks but their {e set} is exactly that of the
    naive enumeration ([~reduced:false]), which is how the qcheck
    differential suite exercises it.  [Error _] on programs with
    [While] loops, on local-fuel exhaustion, and when more than
    [max_transitions] transitions have been executed. *)
