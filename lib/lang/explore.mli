(** Running programs on machines: the mutual-exclusion check, deadlock
    freedom, the exhaustive outcomes of loop-free programs, and random
    schedules.

    Every explorer here, like {!Dpor} and {!Races}, steps threads with
    {!Exec.perform} and keys visited states with {!Exec.digest_key};
    each keeps its own choice of which thread fields the key includes.
    The mutual-exclusion verdict is the §5 question for the Bakery
    algorithm: can two threads be in their critical sections
    simultaneously? *)

type verdict = Dpor.verdict =
  | Safe of int  (** mutual exclusion holds; states explored *)
  | Violation of string list
      (** a schedule reaching two threads in the critical section, as a
          human-readable action trace *)
  | State_limit
      (** exploration hit the state bound — or a thread exhausted its
          local fuel — before finishing: the verdict is bounded, not
          exhaustive *)

val check_mutex :
  ?max_states:int ->
  ?max_transitions:int ->
  ?fuel:int ->
  Smem_machine.Machine_sig.machine ->
  Ast.program ->
  verdict
(** Exhaustive check, backed by the partial-order-reduced explorer
    ({!Dpor.check_mutex_stats}); the verdict matches an unreduced
    enumeration of every interleaving (the test suite's differential
    oracle), but [Safe] reports the (much smaller) reduced state
    count.  [max_states] defaults to 2_000_000, [max_transitions] to
    20_000_000; [fuel] bounds local computation per scheduling step
    (default 10_000).  A thread that runs out of local fuel (a
    memory-free loop deeper than [fuel]) stops that branch and degrades
    the verdict to {!State_limit} rather than raising. *)

val check_mutex_stats :
  ?max_states:int ->
  ?max_transitions:int ->
  ?fuel:int ->
  Smem_machine.Machine_sig.machine ->
  Ast.program ->
  verdict * Dpor.stats
(** {!check_mutex} plus the reduction counters ([smem mutex --stats]). *)

type liveness =
  | Deadlock_free of int
      (** from every reachable state some schedule completes all
          threads; states explored *)
  | Stuck of int
      (** number of reachable states from which no schedule terminates
          (spin loops whose exit condition can never become true) *)
  | Liveness_state_limit

val check_deadlock_freedom :
  ?max_states:int ->
  ?fuel:int ->
  Smem_machine.Machine_sig.machine ->
  Ast.program ->
  liveness
(** The paper's §5 recalls that the Bakery algorithm under SC "is free
    from deadlocks": here that is the graph property that every
    reachable state of the program × machine system can still reach the
    all-threads-finished state.  (Freedom from {e starvation} is a
    fairness property outside this explorer's scope.) *)

val fold_traces :
  ?max_transitions:int ->
  ?fuel:int ->
  Smem_machine.Machine_sig.machine ->
  Ast.program ->
  init:'a ->
  f:('a -> Smem_core.History.t * Exec.Env.t array -> 'a) ->
  ('a, string) result
(** Fold [f] over the outcomes of a loop-free program on the given
    machine: each distinct pair of the history an execution produces
    (read-modify-writes recorded as the labeled writes they perform,
    critical-section markers omitted, ids in thread-major order) and
    the final register environments, once each.  The walk is a
    depth-first search over (machine, threads, per-thread operations)
    states that expands each state once — threads in index order, then
    the machine's internal steps — so the order of the pairs is
    deterministic, and since a loop-free program's state graph is
    acyclic every outcome is reached.  [Error _] on programs with
    [While] loops, on local-fuel exhaustion, and when more than
    [max_transitions] (default 2_000_000) transitions have been
    executed. *)

val run_random :
  ?fuel:int ->
  ?max_steps:int ->
  Smem_machine.Machine_sig.machine ->
  Ast.program ->
  rand:Random.State.t ->
  Smem_core.History.t * bool
(** One random schedule to completion — or to [max_steps] scheduling
    steps (default 100_000), whichever comes first.  The cap matters
    on cyclic programs: a spin loop over a stale copy that no pending
    internal step will refresh makes the unbounded walk diverge (the
    truncated trace is still a valid history).  Returns the history of
    memory operations performed and whether mutual exclusion was
    violated during the run. *)
