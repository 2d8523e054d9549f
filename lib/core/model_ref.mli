(** Structured model references — the one place the
    [family(key=value,...)] grammar is parsed and printed.

    A reference names either a catalogued model by key (a nullary
    reference, e.g. ["tso"]) or an instance of a parameterized family
    (e.g. ["pc-part(blocks=2)"], ["session(ryw,mr)"]).  Bare argument
    names are flags: ["session(ryw)"] is ["session(ryw=true)"].
    Whitespace around tokens is tolerated; printing is canonical
    (no spaces, arguments in the order given). *)

type t = {
  family : string;
  args : (string * string) list;
      (** argument name → value; [""] for a bare flag *)
}

val parse : string -> (t, string) result
(** Parse a reference.  Accepted names (family, keys, values) are
    nonempty runs of letters, digits, ['_'], ['-'], ['.'], [':'] and
    ['|'].  [Error] carries a human-readable reason. *)

val valid_name : string -> bool
(** The name rule {!parse} applies to a family, an argument name and an
    argument value: a nonempty run of letters, digits, ['_'], ['-'],
    ['.'], [':'] and ['|']. *)

val to_string : t -> string
(** Canonical form: [family] when there are no arguments, otherwise
    [family(k=v,...)] with bare flags printed without [=]. *)

val nullary : string -> t

val flag : t -> string -> (bool, string) result
(** Interpret an argument as a boolean flag: absent is [false]; bare,
    ["true"] or ["1"] is [true]; ["false"] or ["0"] is [false]. *)

val int_arg : t -> string -> (int option, string) result
(** Interpret an argument as an integer; [Ok None] when absent. *)

val unknown_args : t -> known:string list -> string list
(** Argument names not in [known] (for did-you-mean reporting). *)
