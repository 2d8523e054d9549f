(** Coherence orders: per-location total orders on writes.

    Coherence is the paper's canonical mutual-consistency requirement
    (§2, parameter 2): all writes to a given location appear in the same
    order in every processor view.  The checkers existentially quantify
    over coherence orders, pruned by each processor's program order on
    its own writes to the location (any coherence order violating it
    would make every view cyclic, since views also respect at least
    that much of program order).  The enumerator grows them one write
    at a time and builds each complete one with {!of_write_order};
    {!iter} enumerates them whole, for [Diagnose] and as the tests'
    reference. *)

type t

val position : t -> int -> int
(** [position co w] is [w]'s rank in the coherence order of its
    location (0-based).  [w] must be a write. *)

val precedes : t -> int -> int -> bool
(** [precedes co w1 w2] — both writes, same location, [w1] strictly
    before [w2]. *)

val to_rel : t -> Smem_relation.Rel.t
(** All [(w1, w2)] pairs with [w1] coherence-before [w2]. *)

val successors_from : t -> int -> int list
(** [successors_from co w] — the writes strictly after [w] in its
    location's coherence order. *)

val of_write_order : History.t -> int array -> t
(** [of_write_order h ws] builds the coherence order induced by a total
    order [ws] on {e all} writes of the history: TSO's global write
    serialization, or each location's order laid end to end. *)

val default_respect : History.t -> int -> int -> bool
(** [default_respect h w1 w2]: [w1] is program-order-before [w2] on the
    same processor — the pruning of {!iter} and of global write orders
    (every view respects at least that much of program order). *)

val iter : History.t -> f:(t -> bool) -> bool
(** Enumerate coherence orders as the product of per-location
    permutations constrained by {!default_respect}.  Early-exit
    protocol: returns [true] as soon as [f] accepts. *)

val pp : History.t -> Format.formatter -> t -> unit
