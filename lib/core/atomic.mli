(** Atomic memory (Misra [16], Herlihy–Wing linearizability [10]) —
    the memory the paper's §6 notes is {e stronger than} sequential
    consistency.

    Histories may carry real-time intervals per operation
    ({!History.read}'s [?at]); atomic memory is sequential consistency
    plus respect for real-time precedence: the single shared view must
    also order [a] before [b] whenever [a]'s response precedes [b]'s
    invocation.  On histories without timing information the model
    coincides with SC exactly (a property the test suite checks). *)

val model : Model.t
