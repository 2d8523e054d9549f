(** The differential oracles, and violation reports.

    Two families of assertion, both consequences of the paper's
    theorems:

    - {e soundness} — a history produced by an operational machine must
      be allowed by the axiomatic model characterizing it (§3: each
      machine implements its memory);
    - {e lattice} — a history allowed by a stronger model must be
      allowed by every weaker one (§4, Figure 5), the metamorphic
      check applied pairwise through {!Smem_lattice.Figure5}.

    A violation carries the original history, a shrunk minimal
    counterexample (still violating, see {!Shrink}), and a replayable
    litmus rendering whose [expect] lines restate the broken claim —
    [smem check] on the printed file reproduces the failure as a
    verdict mismatch.

    Every oracle evaluation bumps the {!Smem_core.Stats} fuzz counters
    under the key named here: [sound:<machine>] for soundness,
    [<stronger><=<weaker>] for containments. *)

type kind =
  | Unsound of { machine : string; model : string }
      (** the machine produced a history its model rejects *)
  | Containment of { stronger : string; weaker : string }
      (** a history allowed by [stronger] but rejected by [weaker] *)
  | Engine_mismatch of { model : string; enum : bool; solve : bool }
      (** the enumerator and the constraint-propagation engine
          ([Smem_solve]) disagree on the verdict ([true] = allowed) *)

type violation = {
  kind : kind;
  case : int;  (** generator case index, for replay *)
  original : Smem_core.History.t;
  shrunk : Smem_core.History.t;
  shrink_steps : int;
  test : Smem_litmus.Test.t;  (** replayable litmus form of [shrunk] *)
  certificate : Smem_cert.Cert.t;
      (** kernel-checkable evidence for the shrunk repro: the model's
          forbidden certificate for an unsoundness, the stronger model's
          allowed certificate for a broken containment. *)
}

val soundness :
  ?service:Smem_serve.Service.t ->
  case:int ->
  Smem_machine.Machine_sig.machine ->
  Smem_core.History.t ->
  violation option
(** Check one machine-produced history against the machine's model.
    [?service] routes every model query (including shrink keep
    predicates) through a caching {!Smem_serve.Service}, so
    canonically equivalent histories across the campaign are checked
    once; without it, {!Smem_core.Model.check} is called directly.
    On failure the counterexample is shrunk under the conjunction
    "still machine-reachable (guided replay) and still
    model-rejected", so the minimal history is a genuine machine trace.

    For the RC machines the check is skipped (no counter bumped) on
    histories that are not properly labeled: the paper leaves an
    acquire of an ordinary write on a mixed location undefined, the
    models complete it by rejection (EXPERIMENTS.md §3), and the
    machines can produce such traces — the characterization is only
    claimed under the §5 labeling discipline. *)

val lattice :
  ?service:Smem_serve.Service.t ->
  ?pairs:(Smem_core.Model.t * Smem_core.Model.t) list ->
  case:int ->
  Smem_core.History.t ->
  violation list
(** Check every containment pair applicable to the history
    ({!Smem_lattice.Figure5.pairs} by default; [?pairs] overrides it —
    how the tests inject a deliberately flipped containment and assert
    the oracle catches it).  Model verdicts are memoized per call, so
    each model checks the history at most once; through [?service],
    the history and each shrink candidate are digested once, not once
    per model queried. *)

val engines : case:int -> Smem_core.History.t -> violation list
(** Differential-test the two witness engines: for every model with a
    parameter triple ({!Smem_core.Registry.certifiable}), the
    enumerator and [Smem_solve.Solve.witness] must agree on
    whether the history is allowed.  Queries both engines directly
    (no service cache — a cached verdict would mask a disagreement);
    mismatches are shrunk under "the engines still disagree" and carry
    the enumerator's certificate so the kernel can arbitrate.  Bumps
    the fuzz counters under [solve==enum:<model>]. *)

val pp_violation : Format.formatter -> violation -> unit
(** Kind, case, original and shrunk histories, and the litmus text. *)
