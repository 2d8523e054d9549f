(** Dense binary relations over the universe [0 .. size - 1].

    A relation is represented as one successor {!Bitset.t} per element,
    giving O(size^2 / word_size) space and fast closure/union kernels.
    This is the workhorse representation for the ordering relations of
    the memory-model framework (program order, causal order,
    semi-causality, ...), whose universes are operation identifiers of a
    single execution history and therefore small and dense. *)

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

val successors : t -> int -> Bitset.t
(** The successor set of an element.  The returned set is the internal
    row: treat it as read-only. *)

val iter_pairs : (int -> int -> unit) -> t -> unit

val restrict : t -> Bitset.t -> t
(** [restrict r keep] removes every pair having an endpoint outside
    [keep]; the universe size is unchanged. *)

val transitive_closure : t -> t
(** Warshall's algorithm on bitset rows. *)

val is_transitive : t -> bool

val irreflexive : t -> bool

val acyclic : t -> bool
(** [acyclic r] is [true] when [r] has no directed cycle (equivalently,
    the transitive closure of [r] is irreflexive). *)

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
