(** Coherent causal memory — the "new memory" sketched in the paper's
    concluding remarks (§7): causal memory augmented with coherence as a
    mutual-consistency requirement.  Views respect the causal order
    {e and} a per-location write serialization shared by all
    processors. *)

val model : Model.t
