(** Structured responses — what every request answers with.

    A response pairs a payload (verdicts, a classification, separating
    witnesses, a serialized certificate, or a structured error) with
    serving statistics: how many verdict cells were answered from the
    cache vs. computed fresh, and the wall time spent.  Like requests,
    responses are pure data and cross process boundaries via
    {!Wire}. *)

type error_code =
  | Bad_request  (** malformed or unparseable request *)
  | Unknown_model
  | Unknown_test
  | Rejected
      (** the independent kernel rejected the certificate the engine
          emitted — the engine and the kernel disagree *)
  | Too_large
      (** the history exceeds a hard capacity bound of the view search
          ({!Smem_core.View.Too_large}); the request is answered with
          this code instead of crashing the worker *)
  | Internal
      (** executing the request raised — a worker crashed mid-batch or
          a checker hit a bug.  The serving loop answers the affected
          requests with this code, in position, and keeps running. *)

type family_info = {
  family : string;  (** grammar name, e.g. ["pc-part"] *)
  doc : string;
  params : (string * string) list;
      (** parameter name → human-readable domain *)
}
(** One parameterized family of the catalogue — mirrors
    {!Smem_core.Registry.family_info} without the instantiation
    closure, so it can cross the wire. *)

type model_info = {
  key : string;
  name : string;
  description : string;
  params : (string * string) list;
      (** the parameter quadruple as [(dimension, value)] rows
          ({!Smem_core.Model.params_strings}) *)
}
(** One catalogued model. *)

type payload =
  | Verdicts of Verdict.t list  (** [Check] / [Corpus] *)
  | Classification of {
      total : int;  (** histories enumerated *)
      allowed : (string * int) list;  (** histories allowed, per model *)
      relations : (string * string * string) list;
          (** (a, b, [equal|stronger|weaker|incomparable]) for every
              ordered model pair a ≠ b *)
      hasse : (string * string) list;
          (** transitive-reduction edges, stronger → weaker *)
    }  (** [Classify] *)
  | Distinction of {
      relation : string;
          (** [equal], [a-stronger], [b-stronger] or [incomparable] *)
      witnesses : (string * string) list;
          (** (role, replayable litmus text) *)
    }  (** [Distinguish] *)
  | Certificate of { format : string; body : string }  (** [Certify] *)
  | Catalogue of { models : model_info list; families : family_info list }
      (** [Models] — the source of truth for what the server can
          check; docs/API.md's model table is generated from it *)
  | Error of { code : error_code; message : string }

type t = {
  id : int option;  (** echo of the request id, when it carried one *)
  kind : string;  (** the request kind answered, or [error] *)
  cached : int;  (** verdict cells answered from the cache *)
  computed : int;  (** verdict cells computed by the engine *)
  elapsed_ns : int;
  payload : payload;
}

val ok : t -> bool
(** [false] exactly on an [Error] payload. *)

val error : ?id:int -> code:error_code -> string -> t

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

val pp : Format.formatter -> t -> unit
(** Human-readable rendering (one-line summary; verdict payloads list
    one verdict per line). *)
