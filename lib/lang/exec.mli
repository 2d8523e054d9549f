(** Thread execution: expression evaluation, deterministic small-step
    reduction of a thread up to its next {e visible} action (a
    shared-memory access, a critical-section marker, or termination),
    and the one transition every explorer takes to perform that action
    on a machine.  Local computation is collapsed because only memory
    operations interact with the machine — the standard reduction for
    exploring concurrent programs.

    Every Lang explorer ({!Dpor}, {!Explore}, {!Races}) runs on the
    thread record, {!perform} and {!history} below, so the
    program-to-machine dispatch and the trace-to-history assembly
    exist once. *)

module Env : sig
  (** Thread-local registers.  Unset registers read as [0].  The
      representation is canonical (sorted), so structural equality on
      environments is semantic equality — required by the explorer's
      memoization. *)

  type t

  val empty : t
  val get : t -> string -> int
  val set : t -> string -> int -> t
  val bindings : t -> (string * int) list
end

val eval : Env.t -> Ast.expr -> int
(** Booleans are [0]/[1]. *)

type action =
  | A_load of { reg : string; loc : int; labeled : bool }
  | A_store of { loc : int; value : int; labeled : bool }
  | A_tas of { reg : string; loc : int }
  | A_enter
  | A_exit

type status =
  | At_action of action * Env.t * Ast.stmt list
      (** The thread is about to perform [action]; the environment and
          continuation are the state {e after} local reduction but
          {e before} the action (for a load, bind the observed value to
          the action's register afterwards). *)
  | Finished of Env.t
  | Out_of_fuel

val step_to_action :
  Ast.layout -> env:Env.t -> cont:Ast.stmt list -> fuel:int -> status
(** Reduce local steps (assignments, branches, loop unfoldings) until a
    visible action or termination; [fuel] bounds local steps to guard
    against memory-free divergence. *)

(** {1 Threads on a machine} *)

type thread = {
  env : Env.t;
  cont : Ast.stmt list;
  in_cs : bool;  (** inside a critical section *)
  finished : bool;
}

val initial_threads : Ast.program -> thread array
(** Every thread at the start of its code, with empty registers. *)

type event = {
  kind : Smem_core.Op.kind;
  loc : int;
  value : int;
  labeled : bool;
}
(** A memory operation as a history records it. *)

val perform :
  (module Smem_machine.Machine_sig.MACHINE with type t = 'm) ->
  'm ->
  proc:int ->
  thread ->
  action ->
  Env.t ->
  Ast.stmt list ->
  'm * thread * event option
(** [perform (module M) m ~proc t action env cont] runs thread [proc]'s
    pending [action] on [m], where [action], [env] and [cont] are the
    payload of {!constructor:At_action}.  Returns the machine and the
    thread after it — a load or test-and-set binds its register,
    [A_enter]/[A_exit] set [in_cs] — and the memory operation performed
    ([None] for the critical-section markers).  A test-and-set is
    recorded as the labeled write of [1] it performs (the paper's
    footnote 4). *)

val history :
  Ast.layout -> nthreads:int -> (int * event) list -> Smem_core.History.t
(** The history of [(thread, event)] pairs, given in id order: ids
    follow the list, and each thread's program-order indices follow its
    own subsequence. *)

val digest_key : 'a -> Digest.t
(** MD5 of the [Marshal] image of an immutable value: a constant-size
    hash-table key for deep (machine × threads) states.  [Hashtbl.hash]
    only samples a bounded prefix of the structure, so large buffered
    machine states collide en masse and bucket scans turn quadratic;
    digesting the whole value keeps lookups O(1).  Only sound for keys
    compared structurally (no functions, no cycles). *)
