(** Pipelined RAM (Lipton and Sandberg [15]), §3.5 of the paper.

    Views contain the processor's operations plus all writes of others;
    there is {e no} mutual-consistency requirement; the ordering
    requirement is program order.  Operationally: replicated memory with
    reliable, per-sender FIFO update broadcast. *)

val model : Model.t
