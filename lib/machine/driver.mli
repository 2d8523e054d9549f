(** Driving machines with straight-line programs.

    A {!program} is the per-processor instruction skeleton of a history:
    writes carry their values, reads are holes filled by the machine.
    The driver can

    - replay a program under a random schedule and record the resulting
      history ({!run_random});
    - decide whether a {e specific} history (the program plus chosen
      read values) is reachable on a machine, by guided exhaustive
      search over schedules ({!reachable});
    - enumerate every read-value outcome a machine can produce
      ({!outcomes}).

    [reachable m (program_of_history h) h] is the operational
    counterpart of the axiomatic checkers: it asks whether machine [m]
    can exhibit history [h]. *)

type instr = {
  kind : Smem_core.Op.kind;
  loc : int;
  value : int;  (** meaningful for writes only *)
  labeled : bool;
}

type program = {
  nprocs : int;
  nlocs : int;
  loc_names : string array;
  code : instr list array;  (** per processor, in program order *)
}

val program_of_history : Smem_core.History.t -> program
(** Forget the read values of a history, keeping its instruction
    skeleton. *)

val run_random :
  Machine_sig.machine ->
  program ->
  rand:Random.State.t ->
  Smem_core.History.t
(** Execute under a uniformly random schedule (interleaving issue and
    internal steps); the returned history contains the values the
    machine's reads actually observed. *)

val reachable :
  Machine_sig.machine -> program -> Smem_core.History.t -> bool
(** Exhaustive (memoized) search over schedules, pruned so that each
    read must return the value the given history assigns it.  [true]
    iff some schedule replays the history exactly.  The history must
    have the program's shape. *)

val outcomes : Machine_sig.machine -> program -> int list list
(** All read-value outcomes the machine can produce for the program;
    each outcome lists the values of the program's reads in global
    operation order (processor 0's reads first).  Sorted, duplicates
    removed. *)
