(** The toolkit's verdict vocabulary: {e is this behavior observable?}

    A verdict judges a subject (a litmus test) by an authority (a model
    key): [status] says whether the model admits the history
    ([Allowed]) or rules it out ([Forbidden]), [None] when a bounded
    search could not decide.  The service ({!Smem_serve.Service})
    answers every check and corpus cell with one, and the wire
    ({!Wire}) carries it in this shape.  [question], [states] and
    [notes] are wire fields for other questions; membership verdicts
    leave them at their defaults. *)

type status = Allowed | Forbidden

type t = {
  subject : string;  (** test, history, or program being judged *)
  authority : string;
      (** who judged: a model key ([sc]) or [machine:<name>] *)
  question : string;
      (** what was asked: [membership], [reachability],
          [mutual-exclusion], [deadlock-freedom], ... *)
  status : status option;  (** [None]: bounded search, undecided *)
  expected : status option;  (** stated expectation, when any *)
  cached : bool;  (** answered from the verdict cache, not recomputed *)
  states : int option;  (** states explored, for operational verdicts *)
  notes : string list;
}

val v :
  ?question:string ->
  ?expected:status ->
  ?cached:bool ->
  ?states:int ->
  ?notes:string list ->
  subject:string ->
  authority:string ->
  status option ->
  t
(** Build a verdict.  [question] defaults to ["membership"]. *)

val status_of_bool : bool -> status
(** [true] is [Allowed]. *)

val bool_of_status : status -> bool

val agrees : t -> bool
(** [true] when there is no stated expectation or the decided status
    matches it; an undecided verdict never agrees with a stated
    expectation. *)

val pp_status : Format.formatter -> status -> unit
(** [allowed] / [forbidden]. *)

val pp : Format.formatter -> t -> unit
(** One line: subject, authority, status, and a [MISMATCH] marker when
    the verdict disagrees with its stated expectation. *)

val pp_matrix : Format.formatter -> t list -> unit
(** A subject × authority status table, marking disagreements with the
    stated expectations with [!].  Row and column order follow first
    appearance in the list; a cell with no verdict prints [-], an
    undecided one [?]. *)

val to_json : t -> Smem_obs.Json.t
val of_json : Smem_obs.Json.t -> (t, string) result
