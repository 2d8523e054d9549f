(** The independent certificate-checking kernel.

    [verify] re-derives every obligation named by the certified model's
    parameter triple ({!Smem_core.Model.params}) from the embedded
    history alone — view populations, the ordering requirement
    (po/ppo/causal/semi-causal/fences/brackets recomputed from scratch),
    mutual consistency (the coherence order is {e derived} from the
    views and checked for agreement), and view legality (a replay of
    each view against a location store; under store forwarding a read
    first sees its processor's latest earlier write to its location
    that the view has not placed yet).  None of the search engine's
    code (Engine, View, Orders, Reads_from, Coherence, Diagnose) is
    reused: relations are hand-rolled boolean matrices, so an engine bug
    cannot co-sign its own verdicts.

    Trust boundary: the kernel trusts {!Smem_core.History}/{!Smem_core.Op}
    structural accessors, the registry's parameter triples, and the
    standard library — nothing else. *)

open Smem_core

type accepted =
  | Complete  (** every obligation was independently re-checked *)
  | Unverified_cap of { nops : int; max_search_ops : int }
      (** a forbidden certificate whose history exceeds
          [max_search_ops]: the frontier summary was re-computed and
          matched, but the refutation was {e not} re-run by independent
          enumeration.  Surfaced as an explicit status (and the
          [cert.kernel_unverified_cap] metric) so a capped acceptance
          can never silently masquerade as a full one; re-verify with a
          larger [?max_search_ops] to upgrade it to {!Complete}. *)

val default_max_search_ops : int
(** 8: forbidden certificates on histories up to this many operations
    are re-refuted exhaustively. *)

val verify : ?max_search_ops:int -> Cert.t -> (accepted, string) result
(** Check a certificate.  [Error reason] on any mismatch: malformed or
    forged evidence, a view violating the model's ordering requirement,
    an illegal view serialization, disagreeing coherence orders, a
    frontier summary that does not match the history, or a forbidden
    claim refuted by independent enumeration. *)

val search : Model.params -> History.t -> bool
(** Independent witness search directly from a parameter triple:
    enumerate reads-from maps, labeled orders and coherence orders, and
    backtrack over view placements.  Exponential — intended for
    histories of at most ~{!default_max_search_ops} operations.
    @raise Invalid_argument on an inconsistent parameter triple. *)
