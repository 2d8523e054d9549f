(** Sequential consistency (Lamport [13]).

    The strongest model of the paper: a single legal sequence containing
    {e all} operations of {e all} processors, respecting full program
    order, serves as every processor's view ([δ_p = a], mutual
    consistency is total agreement, ordering is [po]). *)

val model : Model.t
