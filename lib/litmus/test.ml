type verdict = Smem_api.Verdict.status = Allowed | Forbidden

type t = {
  name : string;
  doc : string;
  history : Smem_core.History.t;
  expectations : (string * verdict) list;
}

let make ~name ?(doc = "") ~expect rows =
  { name; doc; history = Smem_core.History.make rows; expectations = expect }

let of_history ~name ?(doc = "") ~expect history =
  { name; doc; history; expectations = expect }

let expected t key = List.assoc_opt key t.expectations
