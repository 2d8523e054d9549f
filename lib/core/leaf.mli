(** The per-candidate check of a model given by its parameter quadruple
    ({!Model.params}), composed dimension by dimension — the same
    reading of the quadruple the certificate kernel makes:

    - the {e population} gives each view's operations;
    - the {e ordering}, plus the edges of the {e mutual-consistency}
      choices, gives each view's order;
    - the {e legality} picks the back-end: {!Engine.check} for
      writer-legal views that agree on a coherence order (under store
      forwarding, with {!Orders.forwarding}'s edges in place of the
      reads-from edges), {!View.exists} otherwise (by value, by
      writer, or replaying object sorts).

    The check is staged so that a search pays for each part once per
    choice it depends on: {!prepare} once per history (po, ppo, po-loc,
    fences, view populations, static per-view orders), {!with_rf} once
    per reads-from map, {!step} once per labeled operation appended to
    a labeled order and {!with_sync} once per complete one, and
    {!check} per coherence choice.  Each stage may refute outright.
    The enumerator ({!Enum}) and the constraint solver
    ([Smem_solve.Solve]) share it, so both accept exactly the same
    candidates and build the same witnesses. *)

type t
(** A partially fixed candidate: the history, the quadruple, and the
    choices made so far. *)

type co =
  | No_co  (** the quadruple implies no write order *)
  | Co of Coherence.t  (** a per-location coherence order *)
  | Write_order of int array
      (** a global order on all writes (not retained: copy-free) *)

val prepare : Model.params -> History.t -> t
(** Everything that depends on the history alone.
    @raise Invalid_argument for a per-owner ordering over a shared
    population (no quadruple in the catalogue has one). *)

val views : t -> Engine.view_spec list
(** The views: owner, operations, and the order required before any
    choice (an under-approximation of every candidate's order). *)

val static : t -> Smem_relation.Rel.t
(** The part of that order shared by every view. *)

val acquire_ok : History.t -> int -> int -> bool
(** [acquire_ok h r w]: read [r] may take its value from [w] under
    release consistency — unless [r] is an acquire, [w] is the initial
    value or a labeled write, or the location carries no labeled
    write. *)

val with_rf : t -> Reads_from.t -> t option
(** Commit a reads-from map: hoists its edges and the orders built from
    it (causal, session writes-follow-reads, the acquire brackets).
    [None] when the map alone refutes the candidate: a reflexive causal
    or session order, an acquire failing {!acquire_ok}, or a read of
    another of its own processor's writes than forwarding allows
    ({!Orders.forwarding}). *)

val sync_start : t -> int array
(** The state of an empty labeled prefix for {!step}: each location's
    last labeled writer, all {!History.init}. *)

val step : t -> rf:Reads_from.t option -> int array -> int -> bool
(** [step t ~rf last id]: may labeled operation [id] be appended to a
    labeled prefix whose last labeled writer per location is [last]
    (under the reads-from map, if the quadruple commits to one)?  A
    write always may, and becomes its location's last labeled writer
    in [last].  A read may when:
    - RC_sc (with a map): it returns the latest labeled write before
      it, or the initial value — unless its writer is ordinary;
    - weak ordering: its location's writes are all labeled (and hold a
      register under object legality), and it returns the last labeled
      write's value, or 0 if there is none.  Exact, because every view
      holding the read holds every write and respects the labeled
      order (DESIGN, "Labeled orders by prefix");
    - otherwise always.

    The verdict and the update depend on [last], [rf] and [id] alone,
    so a search may append, recurse and restore [last] itself. *)

val with_sync : t -> int array -> t option
(** Commit a total order on the labeled operations (copied): [None]
    unless {!step} allows each of its operations in turn, from
    {!sync_start} — the fold of the step over the order.  Counted as
    [search.sync_orders]. *)

val check : t -> co -> Witness.t option
(** The last stage: the full candidate's verdict, with its witness.
    @raise Invalid_argument under {!Model.Forwarding} with {!No_co}
    (no quadruple in the catalogue has one). *)
