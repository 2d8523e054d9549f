(** Sequential-specification sorts of locations.

    The object-consistency family (Mostéfaoui–Perrin–Raynal) extends
    the framework from read/write registers to arbitrary
    sequential-spec objects.  Rather than widen {!Op.t} — which would
    ripple through every engine, the canonicalizer, the wire codec and
    the certificate format — an object's sort is carried in its
    location {e name}: ["q:tail"] is a FIFO queue, ["c:hits"] a
    counter, anything else a register.  Object operations are ordinary
    reads and writes on the tagged location:

    - queue: [enq q v] is a write of [v] (values must be nonzero),
      [deq q v] a read returning [v], with [deq q 0] meaning "the queue
      was empty";
    - counter: [inc c] is a write (its stored value is ignored),
      [rdc c n] a read returning the number of increments before it.

    Every existing model treats the tagged locations as plain
    registers; only {!Model.Object_legal} legality interprets them. *)

type t = Register | Queue | Counter

val of_loc_name : string -> t
(** Classify a location by its name prefix: ["q:"] queue, ["c:"]
    counter, anything else a register. *)

val of_loc : History.t -> int -> t
(** Classify an interned location of a history. *)

val prefix : t -> string
(** The name prefix declaring the sort ([""] for registers). *)

(** {1 Sequential replay}

    The incremental object-state machine shared by the witness search
    ({!View.exists} with [By_object]) and the certificate kernel: both replay a candidate
    view one operation at a time and ask whether the next operation is
    a legal transition. *)

type state
(** Immutable per-location object state (so backtracking searches can
    keep prior states without undo bookkeeping). *)

val initial : t -> state
(** Empty queue, zero counter, register holding [0]. *)

val step : t -> state -> Op.t -> state option
(** [step sort st op] is the state after [op], or [None] when [op] is
    not a legal transition: a register read of a value other than the
    current one, a dequeue that does not return the head (or returns
    [0] while the queue is nonempty, or nonzero while it is empty), a
    counter read that is not the current count. *)
