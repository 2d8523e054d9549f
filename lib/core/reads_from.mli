(** Reads-from maps: the "writes-before" witness of the framework.

    The paper's writes-before order [o1 →wb o2] relates a write to a
    read that returns the value it wrote.  When several writes store the
    same value this assignment is ambiguous, so the checkers
    existentially quantify over {e reads-from maps}: total assignments
    of each read to a candidate writer (a same-location, same-value
    write, or the implicit initial write when the value read is [0]). *)

type t
(** A total assignment from reads to writers.  Writers are operation
    identifiers, or {!History.init} for the initial value. *)

val writer : t -> int -> int
(** [writer rf r] is the id of the write that read [r] reads from, or
    {!History.init}.  [r] must be a read of the underlying history. *)

val reads_from_init : t -> int -> bool

val candidates : History.t -> int -> int list
(** [candidates h r] lists the possible writers for read [r]: every
    write (by any processor, including [r]'s own) to the same location
    with the same value, plus {!History.init} when the value is [0].
    The read itself is never a candidate. *)

val make : History.t -> writer:(int -> int) -> t
(** [make h ~writer] builds the assignment mapping each read [r] of [h]
    to [writer r] (an op id or {!History.init}).  Used by the
    constraint-propagation engine, which decides writers one at a time
    instead of enumerating whole maps. *)

val iter : ?skip:(int -> bool) -> History.t -> f:(t -> bool) -> bool
(** Enumerate every reads-from map of the history (the cartesian
    product of per-read candidates), calling [f] on each.  Returns
    [true] — stopping early — as soon as [f] accepts, [false] when no
    map is accepted (including when some read has no candidate, i.e.
    the history reads a value nobody wrote).  Reads for which [skip]
    holds are not enumerated: every map sends them to {!History.init}
    (counter reads return a count, not a written value). *)

val pairs : History.t -> t -> (int * int) list
(** [(read, writer)] for every read, ascending by read id; the form
    embedded in witnesses and certificates. *)

val wb : History.t -> t -> Smem_relation.Rel.t
(** The writes-before edges [{(writer r, r)}], omitting initial
    writes. *)

val pp : History.t -> Format.formatter -> t -> unit
