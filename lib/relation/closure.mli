(** Incrementally maintained transitive closure.

    The constraint-propagation engine ({!Smem_solve}) decides one rf or
    co variable at a time and needs, after every decision, constant-time
    answers to "does [u] already reach [v]?" over the growing view
    graphs — that is what detects cycles (conflicts) and filters
    candidate domains.  This structure keeps, for every node, the bitset
    of its strict descendants and ancestors, updated on edge insertion
    by the insertions-only Italiano scheme: O(n²/w) per edge that
    actually adds reachability, O(1) when the edge was already implied.

    Deletion is not supported; backtracking search undoes insertions by
    {!snapshot}/{!restore}, a plain row copy. *)

type t

type snapshot

val create : int -> t
(** [create n] — the empty (edge-free) closure over nodes [0 .. n-1]. *)

val of_rel : Rel.t -> t
(** Closure of an existing relation (self-loops are dropped: the
    structure tracks {e strict} reachability; cycle detection is the
    caller asking {!reaches}[ t v u] before inserting [(u, v)]). *)

val size : t -> int

val reaches : t -> int -> int -> bool
(** [reaches t u v] — is there a nonempty path from [u] to [v]? *)

val add : t -> int -> int -> unit
(** [add t u v] inserts edge [(u, v)] and restores closure.  Inserting
    an edge with [reaches t v u] true creates a cycle the structure
    cannot represent — callers must test first. *)

val snapshot : t -> snapshot
(** Capture the current reachability state (a deep row copy). *)

val restore : t -> snapshot -> unit
(** Rewind to a captured state, discarding every insertion since. *)
