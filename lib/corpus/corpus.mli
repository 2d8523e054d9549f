(** Generated litmus corpora: the standard test load.

    The generator walks programs — the library's mutual-exclusion
    algorithms, the message-passing / store-buffering / seqlock
    shapes, and seeded {!Smem_lang.Programs.random} programs — across
    every machine in the catalogue, extracts candidate histories from
    their executions, canonicalizes each with {!Smem_core.Canon} and
    deduplicates on the content digest.  Loop-free programs contribute
    every outcome, enumerated with {!Smem_lang.Explore.fold_traces};
    cyclic programs contribute seeded random schedules, from which
    down-closed prefixes are carved so that even the Bakery algorithm's
    long runs yield checkable small tests.

    Everything is deterministic in the seed: the same [seed] and
    [count] produce a byte-identical artifact, which is the property
    the corpus tests pin down. *)

val version : string
(** ["smem-corpus/1"] — the artifact format tag carried in the header
    line. *)

val generate :
  ?seed:int ->
  ?count:int ->
  ?max_ops:int ->
  ?expect:Smem_core.Model.t list ->
  unit ->
  Smem_litmus.Test.t list
(** [generate ~seed ~count ()] builds [count] (default [1000])
    deduplicated litmus tests, named [c00000, c00001, ...] in
    generation order.  Histories keep at most [max_ops] (default [12])
    operations — larger executions contribute their prefixes instead —
    so every test stays cheap to check.  Each model in [expect]
    (default none) stamps its computed verdict on every test as an
    [expect] line.  Deterministic in [seed] (default [42]). *)

val to_string : seed:int -> Smem_litmus.Test.t list -> string
(** The versioned artifact: a [# smem-corpus/1 seed=S count=N] header
    line followed by the tests in the litmus syntax of
    {!Smem_litmus.Print} — the whole file parses back with
    {!Smem_litmus.Parse.tests_of_string} (the header is a comment). *)

val parse : string -> (Smem_litmus.Test.t list, string) result
(** Read an artifact back, insisting on the {!version} header. *)

val load : string -> (Smem_litmus.Test.t list, string) result
(** [parse] of a file's contents. *)
