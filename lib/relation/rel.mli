(** Dense binary relations over the universe [0 .. size - 1].

    One flat array of machine words of O(size^2 / word_size) space, not
    a block per row: each element's successor row is [w] words ([w = 1]
    up to [Sys.int_size] elements).  The set operations,
    restriction and closure loop over words, and every iterator visits
    set bits only, in increasing order.  The workhorse of the ordering
    relations (program order, causal order, semi-causality, ...), whose
    universes are the operations of one history: small and dense. *)

type t

val create : int -> t
(** [create size] is the empty relation over [0 .. size - 1]. *)

val size : t -> int

val mem : t -> int -> int -> bool
(** [mem r a b] is [true] iff [(a, b)] is in [r]. *)

val add : t -> int -> int -> unit

val remove : t -> int -> int -> unit

val copy : t -> t

val of_pairs : int -> (int * int) list -> t

val pairs : t -> (int * int) list
(** All pairs in lexicographic order. *)

val cardinal : t -> int
(** Number of pairs. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val subrel : t -> t -> bool
(** [subrel a b] holds when every pair of [a] is a pair of [b]. *)

val union : t -> t -> t
(** Fresh relation; arguments unchanged. *)

val union_into : into:t -> t -> unit

val inter : t -> t -> t

val diff : t -> t -> t

val compose : t -> t -> t
(** [compose r s] relates [a] to [c] when [r] relates [a] to some [b]
    and [s] relates [b] to [c]. *)

val transpose : t -> t

val iter_successors : (int -> unit) -> t -> int -> unit
(** [iter_successors f r a] applies [f] to each successor of [a], in
    increasing order. *)

val iter_pairs : (int -> int -> unit) -> t -> unit

val restrict : t -> Bitset.t -> t
(** [restrict r keep] removes every pair having an endpoint outside
    [keep]; the universe size is unchanged. *)

val transitive_closure : t -> t
(** Warshall's algorithm on bitset rows. *)

val is_transitive : t -> bool

val add_row : t -> int -> Bitset.t -> unit
(** [add_row r a s] adds a pair from [a] to each element of [s], in
    place.
    @raise Invalid_argument unless [s]'s capacity is [r]'s size. *)

val reaches_within : t -> t -> Bitset.t -> Bitset.t -> int -> bool
(** [reaches_within r1 r2 keep s b]: over the pairs of [r1] and [r2]
    with both ends in [keep], is [b] an element of [s] in [keep], or
    reachable from one?  Allocates nothing when the size is at most
    [Sys.int_size].
    @raise Invalid_argument on a size or capacity mismatch. *)

val irreflexive : t -> bool

val acyclic : t -> bool
(** [acyclic r] is [true] when [r] has no directed cycle (equivalently,
    the transitive closure of [r] is irreflexive). *)

val acyclic_within : t -> t -> Bitset.t -> bool
(** [acyclic_within r1 r2 keep]: [acyclic] of the union of [r1] and
    [r2] restricted to [keep], without building it when the size is at
    most [Sys.int_size].
    @raise Invalid_argument on a size or capacity mismatch. *)

val topological_sort : t -> int list option
(** A linear extension of [r] over the whole universe, or [None] when
    [r] is cyclic.  Ties are broken by smallest element first, making
    the output deterministic. *)

val find_cycle : t -> int list option
(** Some directed cycle [v0; v1; ...; vk] with an edge from each element
    to the next and from [vk] back to [v0], or [None] if acyclic. *)

val strongly_connected_components : t -> int array * int
(** Tarjan's algorithm: returns [(component, count)] where
    [component.(v)] is the id of [v]'s strongly connected component,
    numbered in reverse topological order ([0] has no edges into later
    components). *)

val pp : Format.formatter -> t -> unit
