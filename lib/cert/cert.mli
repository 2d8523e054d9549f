(** Verdict certificates.

    A certificate is a self-contained, serializable record of a model's
    verdict on a history, carrying enough evidence for an independent
    kernel ({!Kernel}) to re-validate the verdict without re-running the
    search engine:

    - an {e allowed} certificate embeds the witness — the per-processor
      view sequences, the reads-from assignment the checker committed
      to, and (for the selective-synchronization memories) the total
      order on labeled operations;
    - a {e forbidden} certificate embeds the search-frontier summary
      (the analytically computed candidate-space size); on small
      histories the kernel additionally re-refutes by independent
      enumeration.

    Operations inside a certificate are numbered proc-major: row by row
    in history order, [0 ..].  {!certify} remaps machine-recorded ids to
    this canonical numbering, and {!history} reconstructs a history whose
    ids match it. *)

open Smem_core

type row_op = {
  kind : Op.kind;
  loc : string;
  value : int;
  labeled : bool;
  at : (int * int) option;  (** real-time interval, when recorded *)
}

type verdict = Smem_api.Verdict.status = Allowed | Forbidden
(** Alias of {!Smem_api.Verdict.status} — one verdict type across the
    toolkit; the constructors are re-exported so existing code keeps
    compiling. *)

type evidence =
  | Witness of {
      views : (int * int list) list;
      rf : (int * int) list;
      sync : int list option;
      notes : string list;
    }
  | Frontier of { rf_maps : int; co_orders : int }

type t = {
  version : int;
  model : string;  (** registry key of the judging model *)
  test : string option;  (** test name, when the history came from one *)
  rows : row_op list list;
  verdict : verdict;
  evidence : evidence;
}

val version : int
(** Current format version (1). *)

val certify : Model.t -> ?name:string -> History.t -> t option
(** Run the model's checker and package the verdict with its evidence.
    [None] when the model declares no parameter triple (it cannot be
    certified — e.g. the operational TSO replay). *)

val history : t -> History.t
(** Rebuild the judged history; operation ids match the certificate's
    proc-major numbering.
    @raise Invalid_argument on structurally impossible rows. *)

type format = [ `Sexp | `Json ]

val to_string : ?format:format -> t -> string
(** Serialize; default [`Sexp]. *)

val parse : string -> (t, string) result
(** Parse either format, auto-detected by the first non-blank character
    ([{] means JSON). *)

val to_sexp : t -> Sexp.t
val of_sexp : Sexp.t -> (t, string) result
val to_json : t -> Smem_obs.Json.t
val of_json : Smem_obs.Json.t -> (t, string) result
val pp : Format.formatter -> t -> unit
