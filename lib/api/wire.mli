(** The [smem-api/2] JSON wire schema, with [smem-api/1] compatibility.

    One JSON object per line (newline-delimited JSON) in each
    direction; see docs/API.md for the full field-by-field
    specification.  The printer/parser pair round-trips in both
    protocol versions: [request_of_json (request_to_json ~proto ~id r)
    = Ok (id, proto, r)], and likewise for responses.

    Version 2 adds an explicit [version] field, structured model
    references ([{"family": ..., "args": [...]}], normalized through
    {!Smem_core.Model_ref} — the one place the reference grammar
    lives), and the [models] catalogue request.  Version 1 lines — the
    schema field saying ["smem-api/1"], or absent entirely — are still
    accepted, and {!proto} tells the server which version the client
    spoke so it can answer in kind: a v1 request gets a byte-identical
    v1 response.

    Requests carry an optional client-chosen [id], echoed verbatim in
    the response so a client can pipeline requests and match answers;
    without one, the server numbers requests by arrival order. *)

type proto = V1 | V2
(** The protocol version of one parsed line. *)

val version : int
(** [2] — the current protocol version. *)

val schema : string
(** ["smem-api/2"] — the value of the [schema] field emitted on every
    current-version request and response. *)

val schema_v1 : string
(** ["smem-api/1"] — the legacy schema, still accepted on input. *)

val schema_of : proto -> string
val version_of : proto -> int

val request_to_json : ?proto:proto -> ?id:int -> Request.t -> Smem_obs.Json.t
(** Serialize a request; [proto] defaults to {!V2}. *)

val request_of_json :
  Smem_obs.Json.t -> (int option * proto * Request.t, string) result
(** Parse a request in either protocol version, reporting which one
    the line spoke.  Structured and string model references are both
    accepted in both versions; structured references are normalized to
    canonical grammar strings, and one with a part that breaks the
    grammar's name rule is an [Error]. *)

val response_to_json : ?proto:proto -> Response.t -> Smem_obs.Json.t
(** Serialize a response; [proto] defaults to {!V2}.  With [~proto:V1]
    the output is byte-identical to what an smem-api/1 server
    produced. *)

val response_of_json : Smem_obs.Json.t -> (Response.t, string) result

val request_line : ?proto:proto -> ?id:int -> Request.t -> string
(** The request as one newline-terminated JSON line. *)

val response_line : ?proto:proto -> Response.t -> string

val decode_request_line :
  string ->
  (int option * proto * Request.t, Response.error_code * string) result
(** Parse a request line, with the code a failure is answered with:
    [unknown-model] when a structured model reference's part breaks
    {!Smem_core.Model_ref.valid_name} once trimmed (the message names
    the field), [bad-request] otherwise. *)

val parse_request_line :
  string -> (int option * proto * Request.t, string) result
(** {!decode_request_line} without the code. *)

val parse_response_line : string -> (Response.t, string) result
