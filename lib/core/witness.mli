(** Witnesses: the per-processor views demonstrating that a history is
    allowed by a model.  A witness is what the paper exhibits when
    arguing an execution is possible (e.g. the [S_{p+w}] sequences given
    for Figures 1–4).

    Beyond the views themselves a witness may carry the existential
    companions the checker committed to — the reads-from assignment and,
    for the selective-synchronization memories, the total order on
    labeled operations.  Certificates ({!Smem_cert}) embed these so an
    independent kernel can re-validate the verdict without re-running
    the search. *)

type t = {
  views : (int * int list) list;
      (** (processor, operation ids in view order), one entry per view;
          a single entry with processor [-1] denotes the shared view of
          sequential consistency (the coherence model uses one [-1]
          entry per location). *)
  rf : (int * int) list;
      (** the reads-from assignment the checker committed to:
          [(read, writer)] per read, writer {!History.init} for the
          initial value.  Empty for models whose view legality is
          by value and whose ordering needs no reads-from map. *)
  sync : int list option;
      (** the total order on labeled operations (RC_sc, weak ordering);
          it cannot be recovered from the views because other
          processors' labeled reads appear in no view. *)
  notes : unit -> string list;
      (** human-readable facts about the witness, rendered on demand:
          a check that keeps only the verdict ({!Model.check}) never
          formats them, and {!pp} and certificates render them each
          time they ask.  A plain function rather than a [Lazy.t], so
          two domains may render the same witness at once. *)
}

val shared :
  ?rf:(int * int) list -> int list -> notes:(unit -> string list) -> t
(** A single shared view (sequential consistency). *)

val per_proc :
  ?rf:(int * int) list ->
  ?sync:int list ->
  (int * int list) list ->
  notes:(unit -> string list) ->
  t

val pp : History.t -> Format.formatter -> t -> unit
(** The views, the labeled order and the notes, one per line. *)
