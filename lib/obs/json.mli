(** Minimal JSON, hand-rolled (integers only — nothing in the toolkit
    carries floats).  The single machine-facing serialization shared by
    verdict certificates, Chrome trace files ({!Trace}) and the
    [smem-api] wire codec. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
val of_string : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)
