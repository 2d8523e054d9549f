type test_source = Named of string | Inline of string

type scope = {
  procs : int list;
  nlocs : int;
  max_value : int;
  labeled : bool;
}

type t =
  | Check of { test : test_source; models : string list }
  | Corpus of { models : string list }
  | Classify of { models : string list; scopes : scope list }
  | Distinguish of { a : string; b : string; scopes : scope list }
  | Certify of {
      test : test_source;
      model : string;
      format : [ `Sexp | `Json ];
    }
  | Models

let kind = function
  | Check _ -> "check"
  | Corpus _ -> "corpus"
  | Classify _ -> "classify"
  | Distinguish _ -> "distinguish"
  | Certify _ -> "certify"
  | Models -> "models"

let kinds = [ "check"; "corpus"; "classify"; "distinguish"; "certify"; "models" ]

let pp_source ppf = function
  | Named n -> Format.fprintf ppf "%s" n
  | Inline _ -> Format.pp_print_string ppf "<inline>"

let pp ppf t =
  match t with
  | Check { test; models } ->
      Format.fprintf ppf "check %a [%s]" pp_source test
        (String.concat "," models)
  | Corpus { models } ->
      Format.fprintf ppf "corpus [%s]" (String.concat "," models)
  | Classify { models; scopes } ->
      Format.fprintf ppf "classify [%s] (%d scope(s))"
        (String.concat "," models)
        (List.length scopes)
  | Distinguish { a; b; scopes } ->
      Format.fprintf ppf "distinguish %s %s (%d scope(s))" a b
        (List.length scopes)
  | Certify { test; model; format } ->
      Format.fprintf ppf "certify %a under %s as %s" pp_source test model
        (match format with `Sexp -> "sexp" | `Json -> "json")
  | Models -> Format.pp_print_string ppf "models"
