type error_code =
  | Bad_request
  | Unknown_model
  | Unknown_test
  | Rejected
  | Too_large
  | Internal

type family_info = {
  family : string;
  doc : string;
  params : (string * string) list;
}

type model_info = {
  key : string;
  name : string;
  description : string;
  params : (string * string) list;
}

type payload =
  | Verdicts of Verdict.t list
  | Classification of {
      total : int;
      allowed : (string * int) list;
      relations : (string * string * string) list;
      hasse : (string * string) list;
    }
  | Distinction of {
      relation : string;
      witnesses : (string * string) list;
    }
  | Certificate of { format : string; body : string }
  | Catalogue of { models : model_info list; families : family_info list }
  | Error of { code : error_code; message : string }

type t = {
  id : int option;
  kind : string;
  cached : int;
  computed : int;
  elapsed_ns : int;
  payload : payload;
}

let ok t = match t.payload with Error _ -> false | _ -> true

let error ?id ~code message =
  {
    id;
    kind = "error";
    cached = 0;
    computed = 0;
    elapsed_ns = 0;
    payload = Error { code; message };
  }

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_model -> "unknown-model"
  | Unknown_test -> "unknown-test"
  | Rejected -> "rejected"
  | Too_large -> "too-large"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Some Bad_request
  | "unknown-model" -> Some Unknown_model
  | "unknown-test" -> Some Unknown_test
  | "rejected" -> Some Rejected
  | "too-large" -> Some Too_large
  | "internal" -> Some Internal
  | _ -> None

let pp ppf t =
  match t.payload with
  | Verdicts vs ->
      Format.fprintf ppf "@[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Verdict.pp)
        vs
  | Classification { total; relations; _ } ->
      Format.fprintf ppf "classification over %d histories, %d relation(s)"
        total (List.length relations)
  | Distinction { relation; witnesses } ->
      Format.fprintf ppf "distinction: %s (%d witness(es))" relation
        (List.length witnesses)
  | Certificate { format; body } ->
      Format.fprintf ppf "certificate (%s, %d bytes)" format
        (String.length body)
  | Catalogue { models; families } ->
      Format.fprintf ppf "catalogue: %d model(s), %d family(ies)"
        (List.length models) (List.length families)
  | Error { code; message } ->
      Format.fprintf ppf "error %s: %s" (error_code_to_string code) message
