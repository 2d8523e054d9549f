(** A litmus test: a named history with per-model expected verdicts.

    Verdicts name model keys from {!Smem_core.Registry}; a test need
    not state an expectation for every model — unstated models are
    simply not checked against ground truth. *)

type verdict = Smem_api.Verdict.status = Allowed | Forbidden
(** Alias of {!Smem_api.Verdict.status}: the constructors are shared,
    so existing pattern matches keep compiling while the unified API
    layer speaks one verdict type. *)

type t = {
  name : string;
  doc : string;
  history : Smem_core.History.t;
  expectations : (string * verdict) list;  (** model key -> verdict *)
}

val make :
  name:string ->
  ?doc:string ->
  expect:(string * verdict) list ->
  Smem_core.History.event list list ->
  t
(** Build a test from per-processor event rows (see
    {!Smem_core.History.make}). *)

val of_history :
  name:string ->
  ?doc:string ->
  expect:(string * verdict) list ->
  Smem_core.History.t ->
  t
(** Wrap an existing history as a test — how the fuzzer renders a
    shrunk counterexample as a replayable litmus file. *)

val expected : t -> string -> verdict option
