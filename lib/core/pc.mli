(** Processor consistency as defined by Gharachorloo et al. for DASH,
    §3.3 of the paper.

    Views contain the processor's operations plus all writes of others
    ([δ_p = w]); mutual consistency is {e coherence} (a per-location
    total write order shared by all views); the ordering requirement is
    the {e semi-causality} relation [→sem = (ppo ∪ rwb ∪ rrb)+]. *)

val model : Model.t
