(** A store of learned nogoods: sets of (read, writer) reads-from
    assignments that are jointly infeasible.

    Nogoods are extracted from conflict cycles during the rf phase of
    the constraint search.  Every edge of such a cycle is either static
    program-order structure or induced by one of the named assignments,
    so a learned nogood stays valid for the rest of the search. *)

type t

val create : unit -> t

val learn : t -> (int * int) list -> bool
(** Record a nogood; returns [true] when it was new (duplicates are
    dropped).  The empty list is ignored. *)

val blocks : t -> assigned:(int -> int -> bool) -> int * int -> bool
(** [blocks t ~assigned (r, w)] — would assigning writer [w] to read
    [r] complete some stored nogood, given that [assigned r' w'] tells
    whether the pair [(r', w')] is currently assigned? *)
