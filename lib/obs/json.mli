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
(** One line: the value, then a newline.  Strings escape the double
    quote, the backslash, newline, carriage return, tab and the other
    control characters ([\u00XX]); any other byte is written as is. *)

val of_string : string -> (t, string) result
(** Decode one value, surrounded by nothing but whitespace.  String
    escapes are RFC 8259's: [\uXXXX] decodes to UTF-8, a surrogate pair
    to one code point; a lone surrogate, a non-hex digit or an unknown
    escape is an error.  A number is an optional sign and decimal
    digits within [int]'s range.  [Error] names the fault and its byte
    offset. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)
