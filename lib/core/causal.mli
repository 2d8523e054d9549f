(** Causal memory (Ahamad, Burns, Hutto, Neiger [3]), §3.5 of the
    paper.

    Like PRAM, views contain own operations plus all writes and there is
    no mutual-consistency requirement, but views must respect the causal
    order [→co = (→po ∪ →wb)+] for some writes-before assignment.  The
    checker existentially quantifies over reads-from maps: for each, the
    induced causal order must be a partial order and every processor
    must admit a legal view respecting it. *)

val model : Model.t
