(** A memory model, characterized — as in §4 of the paper — by the set
    of system execution histories it allows.  [witness] decides
    membership and, when the history is allowed, exhibits the processor
    views that demonstrate it.

    Every model is defined by its {e parameter quadruple} (§2 of the
    paper): the view population, the ordering requirement, and the
    mutual-consistency requirement, plus the legality discipline its
    views satisfy.  The quadruple is pure data: the enumerator ([Enum])
    and the solver decide membership from it, and the certificate
    checking kernel ({!Smem_cert.Kernel}) re-derives every obligation it
    names from a history alone, without calling the search engine.
    Varying it "identifies new memories" (§7): the composer ({!Build})
    and the named partitions of [pc-part] are quadruples too, and so is
    SPARC's TSO with store forwarding ([tso-op]). *)

type partition =
  | Modulo of int  (** location [l] (interned id) is in block [l mod k] *)
  | Named of string list list
      (** blocks of location names; each unlisted location gets a
          singleton block, numbered after the listed ones in id order *)

type population =
  | Shared_all  (** one view containing every operation (SC, atomic) *)
  | Own_plus_writes
      (** per-processor views of own operations plus all writes
          ([δp = w]: TSO, PC, RC, PRAM, causal, ...) *)
  | Per_proc_all
      (** one view per processor holding every operation ([δp = a]
          without a shared view: the composer's [--ops all]) *)
  | Per_location
      (** one shared view per location containing exactly the accesses
          to it (the coherence model) *)
  | Per_proc_block of partition
      (** the partition-consistency family (Cheng–Higham–Kawash): one
          view per processor {e per partition block}, holding the
          owner's operations on the block's locations plus every write
          to them; views whose population is empty are omitted.  One
          block recovers a PC-G-like model, singleton blocks recover
          coherence. *)
  | Own_plus_updates
      (** per-processor views of own operations plus every {e update} —
          all writes, and the reads that mutate object state (queue
          dequeues).  On register-only histories this coincides with
          {!Own_plus_writes}; it is the population of the
          object-causal family. *)

(** One base order of the ordering requirement (Almeida's vocabulary:
    a view's order is a union of base orders).  The constructors are
    declared in rendering order, with [Session], the one carrying
    arguments, last, so [compare] sorts a set into that order. *)
type ordering =
  | Program_order  (** po (SC, PRAM, PC-G, coherence) *)
  | Partial_program_order  (** ppo — reads bypass earlier writes (TSO) *)
  | Load_op_store_store
      (** SPARC's LoadOp and StoreStore: po minus every write→read
          pair, not chained through reads (SPARC TSO) *)
  | Own_program_order  (** the view owner's po only (local, slow) *)
  | Po_loc  (** every processor's per-location po (slow) *)
  | Real_time  (** interval precedence (atomic) *)
  | Causal_order  (** (po ∪ wb)+ for the committed reads-from map *)
  | Causal_plus_coherence  (** (causal ∪ co)+ (coherent causal) *)
  | Semi_causal  (** (ppo ∪ rwb ∪ rrb)+ (PC) *)
  | Own_ppo_bracketed
      (** owner's ppo plus the §3.4 bracketing edges (RC) *)
  | Sync_fences
      (** two-way fences around labeled accesses plus po_loc (WO) *)
  | Session of { ryw : bool; mr : bool; mw : bool; wfr : bool }
      (** the session-guarantee family (Terry et al., via Almeida's
          consistency framework): the selected program-order /
          writes-before projections, transitively closed.  [ryw]
          read-your-writes keeps each processor's own write→read
          program order; [mr] monotonic reads its own read→read order;
          [mw] monotonic writes every processor's write→write order in
          every view; [wfr] writes-follow-reads orders each read's
          writer before the reader's subsequent writes in every view
          (this one commits to a reads-from map, so it forces
          {!Writer_legal}). *)

type mutual =
  | No_mutual
  | Coherence_agreement
      (** all views order each location's writes identically *)
  | Global_write_order  (** all views order {e all} writes identically *)
  | Labeled_sc
      (** coherence plus one legal linear extension of po on labeled
          operations shared by all views (RC_sc) *)
  | Labeled_pc
      (** coherence plus the labeled subhistory's semi-causality
          (RC_pc) *)
  | Labeled_total
      (** one linear extension of po on labeled operations shared by
          all views, with no coherence requirement (weak ordering) *)

type legality =
  | Value_legal
      (** each read returns the value of the most recent write to its
          location in its view (or the initial 0) *)
  | Writer_legal
      (** each read returns exactly its assigned writer: the witness
          commits to a reads-from map *)
  | Object_legal
      (** each view is a legal sequential history of every object per
          its {!Sort}: registers return the most recent write, queues
          are FIFO, counters return the number of prior increments.
          Reads of rf-able sorts (registers, queues) still commit to a
          reads-from map — it seeds the causal order — while counter
          reads carry no reads-from edge. *)
  | Forwarding
      (** writer legality with SPARC's value axiom (store forwarding,
          {!Orders.forwarding}); needs a write serialization *)

type params = {
  population : population;
  ordering : ordering list;
      (** a set of bases, in declaration order: a view's order is the
          union of the bases' relations, each built from its own inputs
          (semi-causality from ppo, the causal order from po), with no
          closure across bases *)
  mutual : mutual;
  legality : legality;
}

type t = {
  key : string;  (** stable machine-readable identifier, e.g. ["tso"] *)
  name : string;  (** display name, e.g. ["Total Store Ordering"] *)
  description : string;
  params : params;  (** the parameter quadruple *)
  witness : History.t -> Witness.t option;
      (** the [Enum] engine ([Enum.witness], set by [Enum.model]) *)
}

(** {1 Parameter rendering}

    Stable human-and-machine-readable names for the parameter
    dimensions, used by the model catalogue ([smem models], the
    [models] API request) and the documentation. *)

val population_to_string : population -> string
val ordering_to_string : ordering -> string
val mutual_to_string : mutual -> string
val legality_to_string : legality -> string

val params_strings : params -> (string * string) list
(** The quadruple as [(dimension, value)] rows, in the fixed order
    population, ordering, mutual, legality; an ordering set renders as
    its bases' names joined by ['+'] (slow: [own-po+po-loc]). *)

val check : t -> History.t -> bool
(** [check m h] — is [h] in the set of histories allowed by [m]?
    Bumps the {!Stats} check counter and accumulates wall time.
    Routes through {!witness_of}, so it honours the selected engine. *)

(** {1 Engine selection}

    Two interchangeable witness searches exist over the same
    per-candidate check ([Leaf]): the enumerator of the candidates the
    quadruple implies ([Enum], the default), and the
    constraint-propagation engine in [Smem_solve] ([Solve]).  The mode
    is process-global and must be set before worker domains spawn; the
    solver registers itself via {!register_solver} (this library cannot
    depend on it). *)

type engine = Enum | Solve

val set_engine : engine -> unit
val engine : unit -> engine

val register_solver : (t -> History.t -> Witness.t option) -> unit
(** Install the [Solve] engine's witness function.  Called by
    [Smem_solve.Solve.install]. *)

val witness_of : t -> History.t -> Witness.t option
(** The model's witness through the selected engine: the registered
    solver when the mode is [Solve], its [witness] otherwise. *)
