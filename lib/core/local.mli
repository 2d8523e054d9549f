(** Local consistency: the weakest memory expressible with [δ_p = w] in
    the framework — each processor's view respects only that
    processor's own program order; other processors' writes may appear
    in any order whatsoever.  A floor for the lattice. *)

val model : Model.t
