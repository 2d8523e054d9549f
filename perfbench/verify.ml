(* Output checking, done after the timed phase so it never overlaps a
   timed interval.

   check-cold and warm-renamed are checked cell by cell against
   verdicts from the other engine (solve); certify-solve's certificates
   are re-parsed, re-verified by the kernel, and their claimed verdicts
   checked against the enumeration engine. *)

module Model = Smem_core.Model
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Wire = Smem_api.Wire
module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel

(* The reference verdicts, per item and model, from the engine the
   workload does not time.  Models without a parameter triple have only
   their own enumeration, so for them this re-computes rather than
   cross-checks. *)
let reference workload (load : Load.t) =
  let saved = Model.engine () in
  Model.set_engine
    (match workload with
    | Load.Certify_solve -> Model.Enum
    | Load.Check_cold | Load.Warm_renamed -> Model.Solve);
  let r =
    Array.map
      (fun (it : Load.item) ->
        let h = it.Load.test.Smem_litmus.Test.history in
        List.map (fun m -> Model.check m h) it.Load.models)
      load.Load.items
  in
  Model.set_engine saved;
  r

(* Flip the first reference cell: the self-test proving a wrong verdict
   is caught. *)
let corrupt reference =
  match reference.(0) with
  | v :: rest -> reference.(0) <- not v :: rest
  | [] -> ()

let ( let* ) = Result.bind
let check cond msg = if cond then Ok () else Error msg

let verdicts workload (it : Load.item) expected (r : Response.t) vs =
  let want_cached = workload = Load.Warm_renamed in
  let n = List.length it.Load.models in
  let* () = check (List.length vs = n) "wrong number of verdict cells" in
  let* () =
    check
      (r.Response.cached = (if want_cached then n else 0))
      (Printf.sprintf "%d of %d cells cached" r.Response.cached n)
  in
  List.fold_left2
    (fun acc (m, want) (v : Verdict.t) ->
      let* () = acc in
      let key = m.Model.key in
      let* () = check (v.Verdict.authority = key) ("cell out of order at " ^ key) in
      let* () =
        check (v.Verdict.cached = want_cached)
          (key
          ^
          if want_cached then ": expected a cache hit"
          else ": unexpected cache hit")
      in
      check
        (v.Verdict.status = Some (Verdict.status_of_bool want))
        (key ^ ": verdict differs from the reference engine"))
    (Ok ())
    (List.combine it.Load.models expected)
    vs

let certificate (it : Load.item) expected body =
  let m = List.hd it.Load.models and want = List.hd expected in
  let* cert = Cert.parse body in
  let* () = check (cert.Cert.model = m.Model.key) "certificate names another model" in
  let* () =
    match Kernel.verify cert with
    | Ok Kernel.Complete -> Ok ()
    | Ok (Kernel.Unverified_cap _) -> Error "kernel: unverified (search cap)"
    | Error e -> Error ("kernel rejected: " ^ e)
  in
  check
    (cert.Cert.verdict = Verdict.status_of_bool want)
    (m.Model.key ^ ": certified verdict differs from the enumeration engine")

let response workload it expected line =
  let* r = Wire.parse_response_line line in
  match (workload, r.Response.payload) with
  | _, Response.Error { code; message } ->
      Error (Response.error_code_to_string code ^ ": " ^ message)
  | (Load.Check_cold | Load.Warm_renamed), Response.Verdicts vs ->
      verdicts workload it expected r vs
  | Load.Certify_solve, Response.Certificate { format; body } ->
      let* () = check (format = "json") "certificate in the wrong format" in
      certificate it expected body
  | _ -> Error "unexpected payload kind"

(* Failed requests over the whole timed phase: a request fails unless
   its response equals the first pass's (elapsed time aside) and that
   response checks out.  Returns the count and the first few reasons. *)
let failures workload (load : Load.t) reference (timed : Serving.timed) =
  let passes = List.length timed.Serving.times in
  let failed = ref timed.Serving.attempted and reasons = ref [] in
  let note i e =
    if List.length !reasons < 5 then
      reasons :=
        Printf.sprintf "request %d (%s): %s" (i + 1)
          load.Load.items.(i).Load.test.Smem_litmus.Test.name e
        :: !reasons
  in
  Array.iteri
    (fun i line ->
      match response workload load.Load.items.(i) reference.(i) line with
      | Ok () ->
          failed := !failed - timed.Serving.same.(i);
          if timed.Serving.same.(i) < passes then
            note i
              (Printf.sprintf "%d of %d passes answered differently"
                 (passes - timed.Serving.same.(i)) passes)
      | Error e -> note i e)
    timed.Serving.first;
  (!failed, List.rev !reasons)
