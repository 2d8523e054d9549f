(** The common interface of the operational memory simulators.

    A machine is a persistent (purely functional) transition system.
    Program-visible transitions are {!read} and {!write}; internal
    nondeterminism (buffer flushes, message deliveries) is exposed by
    {!internal}, which returns every one-step successor.  Interpreters
    and explorers interleave program steps with internal steps.

    States must be immutable values on which structural equality and
    [Hashtbl.hash] are meaningful (the exhaustive explorer memoizes on
    them). *)

module type MACHINE = sig
  type t

  val name : string
  (** Short identifier, e.g. ["tso"]; matches the key of the memory
      model this machine is meant to implement, so that soundness tests
      can pair them. *)

  val model_key : string
  (** Key of the {!Smem_core.Model} whose history set this machine's
      traces must fall within. *)

  val create : nprocs:int -> nlocs:int -> t

  val read : t -> proc:int -> loc:int -> labeled:bool -> int * t
  (** Issue a read; returns the value observed and the successor
      state.  Reads are deterministic given the state — all
      nondeterminism lives in {!internal}. *)

  val write : t -> proc:int -> loc:int -> value:int -> labeled:bool -> t
  (** Issue a write. *)

  val test_and_set : t -> proc:int -> loc:int -> int * t
  (** Atomically read the globally serialized value of the location and
      set it to [1], at the machine's serialization point (the paper's
      footnote 4 treats read-modify-write operations as writes included
      in all views; operationally they act on the "home" copy).
      Returns the value read. *)

  val internal : t -> t list
  (** All one-step internal successors; empty when quiescent (all
      buffers drained, all messages delivered). *)

  val internal_locs : t -> int list
  (** A conservative footprint of the pending internal work: every
      location that any internal step reachable from this state (by
      internal steps alone) may read or write.  Used by the DPOR
      explorer's independence relation — an access to a location
      outside this set commutes with every internal step.  Sorted,
      duplicate-free; empty iff {!internal} is, for every machine in the
      catalogue (buffered and queued updates are never dropped). *)

  val synchronous : bool
  (** [true] if the machine never generates internal steps: every write
      completes atomically and {!internal} is always empty (the SC
      machine).  Lets the DPOR explorer drop the pending-delivery side
      conditions entirely. *)

  val write_depends_on_internal : bool
  (** [true] if a write snapshots per-processor state that internal
      steps mutate — the causal machine stamps each write with the
      writer's applied-vector, so a delivery to the writer changes the
      dependency metadata of every later write it issues.  Such writes
      never commute with internal steps even at unrelated locations,
      and the DPOR explorer must treat every (write, internal) pair as
      dependent.  [false] for machines whose writes only append to
      channels or buffers. *)
end

type machine = (module MACHINE)
