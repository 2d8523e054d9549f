(** Fixed-capacity sets of small integers backed by a packed [int] array.

    A [Bitset.t] holds elements drawn from [0 .. capacity - 1].  All
    operations besides {!copy}, {!union}, {!inter} and {!diff} mutate the
    set in place; the latter allocate a fresh set.  Capacity is fixed at
    creation time and operations over two sets require equal capacities. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [0 .. capacity - 1].
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : t -> int
(** Number of distinct elements the set can hold. *)

val mem : t -> int -> bool
(** [mem s i] tests membership.  [i] must be within capacity. *)

val add : t -> int -> unit
(** [add s i] inserts [i]. *)

val remove : t -> int -> unit
(** [remove s i] deletes [i]; no-op when absent. *)

val clear : t -> unit
(** Remove every element. *)

val is_empty : t -> bool

val cardinal : t -> int
(** Number of elements currently in the set. *)

val copy : t -> t

val union : t -> t -> t
(** [union a b] is a fresh set; [a] and [b] are unchanged. *)

val inter : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is the set of elements of [a] not in [b]. *)

val union_into : into:t -> t -> unit
(** [union_into ~into s] adds every element of [s] to [into]. *)

val subset : t -> t -> bool
(** [subset a b] is [true] when every element of [a] is in [b]. *)

val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order, visiting set bits only. *)

val word : t -> int -> int
(** [word s k] is the packed word whose bit [i] is element
    [k * Sys.int_size + i]; {!Rel}'s rows pack elements the same way. *)

val lowest : int -> int
(** [lowest w] is the index of the lowest set bit of the nonzero word
    [w]. *)

val iter_word : (int -> unit) -> int -> int -> unit
(** [iter_word f base w] applies [f (base + i)] to each set bit [i] of
    the word [w], in increasing order. *)

val next : t -> int -> int
(** [next s i] is the smallest member [>= i], or [-1] when there is
    none.  The watched-index primitive: callers that remember where the
    previous scan stopped resume from it instead of rescanning the
    whole set (constraint propagation in [Smem_solve] iterates
    successor rows this way). *)

val iter_from : (int -> unit) -> t -> int -> unit
(** [iter_from f s i] applies [f] to every member [>= i] in increasing
    order, via {!next}. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list capacity xs] builds a set containing [xs]. *)

val pp : Format.formatter -> t -> unit
