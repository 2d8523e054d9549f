(** Total Store Ordering (Sindhu, Frailong, Cekleov [17]), §3.2 of the
    paper.

    Views contain the processor's operations plus all writes of other
    processors ([δ_p = w]); mutual consistency is a single global total
    order on {e all} writes shared by every view; the ordering
    requirement is the partial program order [ppo] (a read may bypass a
    program-order-earlier write to a different location). *)

val model : Model.t
