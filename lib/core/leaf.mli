(** The per-candidate check of a model given by its parameter quadruple
    ({!Model.params}), composed dimension by dimension — the same
    reading of the quadruple the certificate kernel makes:

    - the {e population} gives each view's operations;
    - the {e ordering}, plus the edges of the {e mutual-consistency}
      choices, gives each view's order;
    - the {e legality} picks the back-end: {!Engine.check} for
      writer-legal views that agree on a coherence order, {!View.exists}
      otherwise (by value, by writer, or replaying object sorts).

    The check is staged so that a search pays for each part once per
    choice it depends on: {!prepare} once per history (po, ppo, po-loc,
    fences, view populations, static per-view orders), {!with_rf} once
    per reads-from map, {!with_sync} once per labeled order, and
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
    or session order, or an acquire failing {!acquire_ok}. *)

val labeled_legal : t -> rf:Reads_from.t option -> int array -> bool
(** Legality of a (prefix of a) labeled order under the reads-from map
    (if the quadruple commits to one): for RC_sc, each labeled read
    returns the latest labeled write before it (or the initial value);
    trivially true otherwise. *)

val with_sync : t -> int array -> t option
(** Commit a total order on the labeled operations (copied):
    [None] unless {!labeled_legal}. *)

val check : t -> co -> Witness.t option
(** The last stage: the full candidate's verdict, with its witness. *)
