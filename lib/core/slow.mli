(** Slow memory (Hutto and Ahamad): per-processor views of own
    operations plus all writes, required to respect only the view
    owner's program order and each processor's per-location write
    order.  Weaker than PRAM; included as a lattice extension (§7 of the
    paper invites identifying further memories in the framework). *)

val model : Model.t
