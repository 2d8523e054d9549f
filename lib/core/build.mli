(** Composing memory models from the paper's three parameters.

    §2 characterizes a memory by (1) the set of operations in each
    processor's view, (2) the mutual-consistency requirement across
    views, and (3) the ordering each view must respect — and §7 points
    out that varying the parameters {e identifies new memories}.  This
    module is that claim as a function: pick a value for each parameter
    and get the {!Model.params} quadruple they name, decided by the
    same enumerator and solver as the built-in models.

    The mapping onto the quadruple:
    - [`All_ops] with [`Total_agreement] is {!Model.Shared_all};
      [`All_ops] otherwise {!Model.Per_proc_all};
      [`Writes_of_others] {!Model.Own_plus_writes};
    - [`No_agreement] is {!Model.No_mutual} with value legality;
      [`Coherence], [`Global_write_order] and [`Total_agreement] are
      {!Model.Coherence_agreement}, {!Model.Global_write_order} and
      {!Model.No_mutual}, each with writer legality;
    - the orderings are a set of base orders (duplicates and
      declaration order do not matter).

    So every unlabeled built-in model but PC-G (whose views are legal
    by value) {e is} a composition (a unit test checks the quadruples):

    - SC        = [make ~operations:`All_ops ~mutual:`Total_agreement ~orderings:[Program_order]]
    - TSO       = [make ~operations:`Writes_of_others ~mutual:`Global_write_order ~orderings:[Partial_program_order]]
    - PC        = [make ~operations:`Writes_of_others ~mutual:`Coherence ~orderings:[Semi_causal]]
    - Causal    = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[Causal_order]]
    - PRAM      = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[Program_order]]
    - Slow      = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[Own_program_order; Po_loc]]
    - Local     = [make ~operations:`Writes_of_others ~mutual:`No_agreement ~orderings:[Own_program_order]] *)

type operations =
  [ `All_ops  (** [δ_p = a]: every operation of every processor *)
  | `Writes_of_others  (** [δ_p = w]: own operations plus others' writes *) ]

type mutual =
  [ `No_agreement
  | `Coherence  (** shared per-location write order *)
  | `Global_write_order  (** shared total order on all writes (TSO) *)
  | `Total_agreement
    (** one shared view of all operations; requires [`All_ops] *) ]

val composable : Model.ordering list
(** The base orders a composition may use: po, ppo, po-loc, own-po,
    causal, semi-causal. *)

val make :
  key:string ->
  name:string ->
  ?description:string ->
  operations:operations ->
  mutual:mutual ->
  orderings:Model.ordering list ->
  unit ->
  Model.t
(** The model of the quadruple the three parameters name; the default
    description spells the parameters as given.
    @raise Invalid_argument when [`Total_agreement] is combined with
    [`Writes_of_others] or [Own_program_order] (its one shared view has
    no owner), or [Semi_causal] with [`No_agreement] (the remote
    reads-before order needs a coherence witness). *)

val operations_to_string : operations -> string
val mutual_to_string : mutual -> string
(** The CLI spellings. *)

val parse_operations : string -> (operations, string) result
val parse_mutual : string -> (mutual, string) result

val parse_ordering : string -> (Model.ordering, string) result
(** The inverse of {!Model.ordering_to_string} on {!composable}. *)
