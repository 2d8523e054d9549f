(** Composing memory models from the paper's three parameters.

    §2 characterizes a memory by (1) the set of operations in each
    processor's view, (2) the mutual-consistency requirement across
    views, and (3) the ordering each view must respect — and §7 points
    out that varying the parameters {e identifies new memories}.  This
    module is that claim as a function: pick a value for each parameter
    and get a {!Model.t} with the same decision machinery as the
    built-in models.

    Every unlabeled built-in model is reproducible by composition (a
    property the test suite checks):

    - SC        = [make ~operations:`All_ops ~mutual:`Total_agreement ~orderings:[`Po]]
    - TSO       = [make ~operations:`Writes_of_others ~mutual:`Global_write_order ~orderings:[`Ppo]]
    - PC        = [make ~operations:`Writes_of_others ~mutual:`Coherence ~orderings:[`Semi_causal]]
    - PC-G      = [make ~operations:`Writes_of_others ~mutual:`Coherence ~orderings:[`Po]]
    - Causal    = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[`Causal]]
    - PRAM      = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[`Po]]
    - Slow      = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[`Own_po; `Po_loc]]
    - Local     = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[`Own_po]] *)

type operations =
  [ `All_ops  (** [δ_p = a]: every operation of every processor *)
  | `Writes_of_others  (** [δ_p = w]: own operations plus others' writes *) ]

type mutual =
  [ `No_agreement
  | `Coherence  (** shared per-location write order *)
  | `Global_write_order  (** shared total order on all writes (TSO) *)
  | `Total_agreement
    (** one shared view of all operations; requires [`All_ops] *) ]

type ordering =
  [ `Po  (** program order of every processor *)
  | `Ppo  (** partial program order (reads bypass earlier writes) *)
  | `Po_loc  (** per-location program order *)
  | `Own_po  (** the view owner's program order only *)
  | `Causal  (** [(po ∪ wb)+] for the enumerated reads-from map *)
  | `Semi_causal  (** PC's [(ppo ∪ rwb ∪ rrb)+]; requires a coherence witness *) ]

val make :
  key:string ->
  name:string ->
  ?description:string ->
  operations:operations ->
  mutual:mutual ->
  orderings:ordering list ->
  unit ->
  Model.t
(** Compose a model.  The view ordering requirement is the union of
    [orderings].
    @raise Invalid_argument when [`Total_agreement] is combined with
    [`Writes_of_others] or [`Own_po] (its one shared view has no
    owner), or [`Semi_causal] with [`No_agreement] (the remote
    reads-before order needs a coherence witness). *)

val parse_operations : string -> (operations, string) result
val parse_mutual : string -> (mutual, string) result
val parse_ordering : string -> (ordering, string) result
(** Parsers for the CLI spellings ([all]/[writes]; [none]/[coherence]/
    [global-writes]/[total]; [po]/[ppo]/[po-loc]/[own-po]/[causal]/
    [semi-causal]). *)
