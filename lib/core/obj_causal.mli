(** Causal consistency over sequential-specification objects
    (Mostéfaoui–Perrin–Raynal): queues and counters as well as
    registers, the sort of each location declared by its name
    ({!Sort}).

    Views are per-processor and contain the owner's operations plus
    every {e update} — all writes and all queue dequeues (a dequeue
    mutates the queue, so its return value must be consistent in every
    view, unlike a pure register or counter read).  Each view must be
    a linear extension of the causal order (program order plus
    writes-before, transitively) that replays as a legal sequential
    history of every object.  On register-only histories this model
    coincides extensionally with causal memory. *)

val model : Model.t
