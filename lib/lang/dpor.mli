(** Partial-order-reduced checking of mutual exclusion (DESIGN §12).

    {!check_mutex_stats} explores the machine × threads product
    automaton of a cyclic program with ample-singleton persistent sets,
    sleep sets, covering-based state memoization and the stack proviso,
    over one conservative dependence relation built from
    {!Races.access}.  It preserves the verdict of an unreduced
    enumeration, not the reachable state set (exploration stops once
    every thread has finished).

    Internal machine steps (buffer flushes, deliveries) form a
    pseudo-process that is never slept: a full expansion expands every
    internal successor, or defers them all when no thread's next access
    depends on the pending work.  Their dependence with thread accesses
    is approximated via
    {!Smem_machine.Machine_sig.MACHINE.internal_locs} and
    {!Smem_machine.Machine_sig.MACHINE.write_depends_on_internal}.
    Thread transitions go through {!Exec.perform}, like every other
    Lang explorer. *)

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
