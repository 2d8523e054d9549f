(** Partition consistency (Cheng–Higham–Kawash): a family of models
    parameterized by a partition of the locations.  Each processor
    keeps one view {e per partition block}, holding its own operations
    on the block's locations plus every write to them; views respect
    program order and all views agree on a per-location write
    serialization.

    With every location in one block the family is PC-G minus PC-G's
    (redundant) global acyclicity pre-check — i.e. extensionally PC-G;
    with singleton blocks it is extensionally coherence.  Intermediate
    partitions are genuinely new models: consistency is enforced
    within a block but not across blocks.

    Both parameterizations are {!Model.Per_proc_block} quadruples, so
    every instance runs on both engines and certifies:
    - [blocks=k]: location [l] (interned id) belongs to block
      [l mod k] ({!Model.Modulo});
    - [partition=a.b|c]: an explicit partition by location name
      (['.'] separates locations, ['|'] blocks); unlisted locations
      get singleton blocks of their own ({!Model.Named}). *)

val instantiate : blocks:int -> Model.t
(** The [blocks=k] instance, [k >= 1].  Key: ["pc-part(blocks=k)"]. *)

val instantiate_named : partition:string list list -> Model.t
(** The explicit-partition instance; each inner list is one block of
    location names. *)

val exemplar_2 : Model.t
(** [pc-part(blocks=2)] — the catalogued exemplar. *)

val exemplar_4 : Model.t
(** [pc-part(blocks=4)] — the catalogued exemplar. *)
