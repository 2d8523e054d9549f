(** System execution histories.

    A history [H = {H_p | p ∈ P}] is a finite set of per-processor
    sequences of read and write operations (§2 of the paper).  This
    module provides a builder ({!read}, {!write}, {!make}), structural
    accessors, and the operation-set queries the checkers need.

    All locations implicitly hold the initial value [0] (footnote 1 of
    the paper); the pseudo-writer of that value is represented by the
    identifier {!init} in reads-from maps. *)

type t

(** {1 Construction} *)

type event
(** An operation before identifiers are assigned: building block for
    {!make}. *)

val read : ?labeled:bool -> ?at:int * int -> string -> int -> event
(** [read loc v] — a read of [loc] returning [v].  [~labeled:true]
    makes it an acquire.  [~at:(s, f)] records the real-time interval
    during which the operation was pending (invocation [s], response
    [f]), used by the atomic-memory model; most models ignore it.
    @raise Invalid_argument if [s > f]. *)

val write : ?labeled:bool -> ?at:int * int -> string -> int -> event
(** [write loc v] — a write of [v] to [loc].  [~labeled:true] makes it
    a release.  [~at] as in {!read}. *)

val make : event list list -> t
(** [make rows] builds a history with one processor per row.  Locations
    are interned in first-appearance order.
    @raise Invalid_argument on an empty processor list. *)

val of_ops : nprocs:int -> loc_names:string array -> Op.t list -> t
(** Rebuild a history from explicit operations (used by the machine
    simulators, which record traces with identifiers already assigned).
    Operations must have dense ids [0 .. n-1], procs in range, and
    per-processor indices dense in program order.
    @raise Invalid_argument otherwise. *)

(** {1 Accessors} *)

val init : int
(** Identifier standing for the implicit initial write of value [0]
    (it is [-1], never a real operation id). *)

val nops : t -> int
val nprocs : t -> int
val nlocs : t -> int

val op : t -> int -> Op.t
(** Operation by identifier. *)

val ops : t -> Op.t array
(** All operations, indexed by id.  Treat as read-only. *)

val interval : t -> int -> (int * int) option
(** The real-time interval of an operation, when the history carries
    timing information (histories built by {!of_ops} never do). *)

val has_timing : t -> bool

val loc_name : t -> int -> string
val loc_of_name : t -> string -> int option

val proc_ops : t -> int -> int array
(** Identifiers of a processor's operations in program order. *)

val reads : t -> int list
(** Identifiers of all read operations, ascending.  This list, the
    three below and the tables behind {!prev_write} and
    {!prev_write_to} are built together the first time one of them is
    asked for; later calls return the same values. *)

val writes : t -> int list
(** Identifiers of all write operations, ascending. *)

val writes_to : t -> int -> int list
(** Identifiers of the writes to a location, ascending. *)

val labeled : t -> int list
(** Identifiers of labeled operations, ascending. *)

val prev_write : t -> int -> int
(** [prev_write h id]: the latest write of [id]'s processor before it in
    program order, or [-1]. *)

val prev_write_to : t -> int -> int
(** [prev_write_to h id]: the same, among the writes to [id]'s
    location. *)

val has_labeled : t -> bool

(** {1 Operation-set parameters (§2, parameter 1)} *)

val all_ops_set : t -> Smem_relation.Bitset.t
(** The universe: every operation. *)

val view_ops_writes : t -> int -> Smem_relation.Bitset.t
(** [δ_p = w]: processor [p]'s own operations plus the write operations
    of other processors — the standard view population of TSO, PC, RC,
    PRAM and causal memory. *)

val block_views :
  t ->
  block_of:(int -> int) ->
  blocks:int ->
  (int * Smem_relation.Bitset.t) list
(** The partition-consistency population: for each processor [p] and
    block [b] in turn, [p]'s own operations on the locations [l] with
    [block_of l = b] plus every write to them, as [(p, operations)];
    empty views are omitted. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Paper-style layout: one line per processor. *)

val pp_ops : t -> Format.formatter -> int list -> unit
(** Print a sequence of operation ids as a view. *)
