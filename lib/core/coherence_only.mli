(** Coherence (cache consistency): every location is sequentially
    consistent in isolation.  This is the mutual-consistency requirement
    of PC and RC taken alone (§2, parameter 2), and a useful baseline in
    the lattice. *)

val model : Model.t
