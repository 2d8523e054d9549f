(** Engine B: direct construction of legal views by memoized search,
    the {!Leaf} back-end for every view that is not writer-legal under
    a coherence choice.

    Once the shared choices are fixed (or when there are none: PRAM,
    causal memory, local and slow memory) each view is independent, so
    the checker searches directly for a legal sequence of the view's
    operations that respects a required partial order.
    The search appends one operation at a time, maintaining the memory
    contents implied by the prefix; a read is appendable only if it is
    legal at that point.  Failed (placed-set, memory) states are
    memoized, making the search a reachability problem over a product
    automaton rather than a walk of all interleavings.

    Histories must have at most [Sys.int_size - 1] operations (the
    placed set is encoded as one machine word); litmus-scale histories
    are far below that bound.  Larger histories raise the typed
    {!Too_large} — callers that face untrusted input (the serving
    daemon) catch it and answer with a structured error instead of
    dying. *)

module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

type legality =
  | By_value
      (** A read is legal when the most recent write to its location in
          the prefix (or the initial value [0]) has the read's value. *)
  | By_writer of Reads_from.t
      (** A read is legal when the most recent write to its location is
          exactly the read's assigned writer ({!History.init} meaning
          "no write yet"). *)
  | By_object
      (** Each location replays its {!Sort}'s sequential specification:
          registers return the most recent write, queues are FIFO,
          counters return the number of prior increments. *)

exception Too_large of { nops : int; limit : int }
(** Raised by {!exists} when the history exceeds the word-encoded
    search's capacity ([nops >= Sys.int_size]).  A typed exception
    rather than [Invalid_argument]: the serving daemon maps it to a
    [too-large] response code instead of crashing the worker. *)

val exists :
  History.t ->
  ops:Bitset.t ->
  order:Rel.t ->
  legality:legality ->
  int list option
(** [exists h ~ops ~order ~legality] searches for a legal sequence of
    [ops] that is a linear extension of [order] restricted to [ops].
    Returns the sequence found, or [None]. *)
