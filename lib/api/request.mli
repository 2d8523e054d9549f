(** Typed requests — everything a client can ask the toolkit to do.

    These are the checking workloads of the CLI and the serving
    daemon, plus the catalogue introspection request, as pure data: no
    callbacks, no engine values, only names and inline sources, so a
    request can cross a process boundary intact ({!Wire}).  Model
    references are registry keys or {!Smem_core.Model_ref} grammar
    instances (e.g. [session(ryw,mr)]); an empty [models] list means
    "every registered model".  {!Smem_serve.Service} executes
    requests. *)

type test_source =
  | Named of string  (** a built-in corpus test, by name *)
  | Inline of string  (** full litmus text (see {!Smem_litmus.Parse}) *)

type scope = {
  procs : int list;  (** operations per processor *)
  nlocs : int;
  max_value : int;
  labeled : bool;
}
(** An enumeration scope — mirrors {!Smem_lattice.Enumerate.config},
    which the api layer cannot name (it sits below the lattice
    library). *)

type t =
  | Check of { test : test_source; models : string list }
      (** verdict of each model on one test *)
  | Corpus of { models : string list }
      (** the full built-in corpus × models verdict matrix *)
  | Classify of { models : string list; scopes : scope list }
      (** containment relations over enumerated scopes ([scopes = []]
          means the standard Figure-5 sweep) *)
  | Distinguish of { a : string; b : string; scopes : scope list }
      (** search for histories separating two models *)
  | Certify of {
      test : test_source;
      model : string;
      format : [ `Sexp | `Json ];
    }  (** a kernel-checkable verdict certificate for one cell *)
  | Models
      (** the model catalogue: every registered model with its
          parameter quadruple, and every parameterized family with its
          argument domains *)

val kind : t -> string
(** Wire tag: [check], [corpus], [classify], [distinguish],
    [certify], [models]. *)

val kinds : string list
(** Every wire tag {!kind} returns. *)

val pp : Format.formatter -> t -> unit
