(** Processor consistency in Goodman's sense [9], as formalized by
    Ahamad et al. [2]: PRAM plus coherence.  §3.3 of the paper notes
    that this definition and the DASH definition are distinct and
    incomparable; we provide both so the lattice module can verify
    that. *)

val model : Model.t
