module H = Smem_core.History
module Model = Smem_core.Model
module Stats = Smem_core.Stats
module Machines = Smem_machine.Machines
module Driver = Smem_machine.Driver
module Test = Smem_litmus.Test
module Figure5 = Smem_lattice.Figure5
module Cert = Smem_cert.Cert

type kind =
  | Unsound of { machine : string; model : string }
  | Containment of { stronger : string; weaker : string }
  | Engine_mismatch of { model : string; enum : bool; solve : bool }

type violation = {
  kind : kind;
  case : int;
  original : H.t;
  shrunk : H.t;
  shrink_steps : int;
  test : Test.t;
  certificate : Cert.t option;
}

(* Route verdict queries through a caching {!Smem_serve.Service} when
   one is supplied: campaign-wide, structurally equivalent histories
   (and every shrink candidate) then cost one digest instead of one
   search. *)
let query ?service model h =
  match service with
  | Some s -> Smem_serve.Service.check_history s model h
  | None -> Model.check model h

let sound_key machine = "sound:" ^ machine
let pair_key s w = s ^ "<=" ^ w
let engine_key model = "solve==enum:" ^ model

(* The release-consistency models complete a case the paper leaves
   undefined — an acquire reading an ordinary write on a location that
   also carries labeled writes — by rejecting it (EXPERIMENTS.md §3),
   while the RC machines can operationally produce exactly such traces.
   The characterization is only claimed for properly labeled histories
   (all §5 considers), so RC soundness is asserted only there. *)
let proper_labels_only_models = [ "rc-sc"; "rc-pc" ]

let soundness ?service ~case machine h =
  let model = Machines.model machine in
  let machine_name = Machines.name machine in
  let key = sound_key machine_name in
  if
    List.mem model.Model.key proper_labels_only_models
    && not (Figure5.properly_labeled h)
  then None
  else if query ?service model h then begin
    Stats.count_fuzz_pass key;
    None
  end
  else begin
    Stats.count_fuzz_fail key;
    (* Shrink under "still a machine trace and still rejected": guided
       replay keeps the minimized history producible by the machine. *)
    let keep h' =
      (not (query ?service model h'))
      && Driver.reachable machine (Driver.program_of_history h') h'
    in
    let shrunk, steps = Shrink.shrink ~keep h in
    Stats.add_fuzz_shrink key steps;
    let test =
      Test.of_history
        ~name:(Printf.sprintf "fuzz-unsound-%s-case%d" machine_name case)
        ~doc:
          (Printf.sprintf
             "machine %s produced this history; model %s must allow it"
             machine_name model.Model.key)
        ~expect:[ (model.Model.key, Test.Allowed) ]
        shrunk
    in
    (* A forbidden certificate for the shrunk repro: the claim being
       violated is exactly "the model rejects this machine trace", and
       the kernel can re-refute it independently. *)
    let certificate = Cert.certify model ~name:test.Test.name shrunk in
    Some
      {
        kind = Unsound { machine = machine_name; model = model.Model.key };
        case;
        original = h;
        shrunk;
        shrink_steps = steps;
        test;
        certificate;
      }
  end

let lattice ?service ?pairs ~case h =
  let pairs = match pairs with Some ps -> ps | None -> Figure5.pairs h in
  (* Each model's verdict on [h] is needed by several pairs; memoize. *)
  let verdicts : (string, bool) Hashtbl.t = Hashtbl.create 8 in
  let check (m : Model.t) hist =
    if hist == h then
      match Hashtbl.find_opt verdicts m.Model.key with
      | Some v -> v
      | None ->
          let v = query ?service m hist in
          Hashtbl.add verdicts m.Model.key v;
          v
    else query ?service m hist
  in
  List.filter_map
    (fun ((stronger : Model.t), (weaker : Model.t)) ->
      let key = pair_key stronger.Model.key weaker.Model.key in
      if check stronger h && not (check weaker h) then begin
        Stats.count_fuzz_fail key;
        let keep h' = query ?service stronger h' && not (query ?service weaker h') in
        let shrunk, steps = Shrink.shrink ~keep h in
        Stats.add_fuzz_shrink key steps;
        let test =
          Test.of_history
            ~name:
              (Printf.sprintf "fuzz-containment-%s-%s-case%d"
                 stronger.Model.key weaker.Model.key case)
            ~doc:
              (Printf.sprintf
                 "allowed by %s, so %s must allow it too (Figure 5)"
                 stronger.Model.key weaker.Model.key)
            ~expect:
              [
                (stronger.Model.key, Test.Allowed);
                (weaker.Model.key, Test.Allowed);
              ]
            shrunk
        in
        (* The half of the broken containment a certificate can carry:
           the stronger model's witness that the history is allowed. *)
        let certificate = Cert.certify stronger ~name:test.Test.name shrunk in
        Some
          {
            kind =
              Containment
                { stronger = stronger.Model.key; weaker = weaker.Model.key };
            case;
            original = h;
            shrunk;
            shrink_steps = steps;
            test;
            certificate;
          }
      end
      else begin
        Stats.count_fuzz_pass key;
        None
      end)
    pairs

(* The engines differential: for every model with a parameter triple,
   the constraint-propagation engine and the enumerator must return
   the same verdict.  Deliberately bypasses the service
   cache and {!Model.witness_of} dispatch — the point is to run BOTH
   engines on the same history, whatever the process-global mode. *)
let engines ~case h =
  List.filter_map
    (fun (m : Model.t) ->
      let key = engine_key m.Model.key in
      let differ h' =
        Option.is_some (m.Model.witness h')
        <> Option.is_some (Smem_solve.Solve.witness m h')
      in
      if not (differ h) then begin
        Stats.count_fuzz_pass key;
        None
      end
      else begin
        Stats.count_fuzz_fail key;
        let shrunk, steps = Shrink.shrink ~keep:differ h in
        Stats.add_fuzz_shrink key steps;
        let enum = Option.is_some (m.Model.witness shrunk) in
        let test =
          Test.of_history
            ~name:
              (Printf.sprintf "fuzz-engines-%s-case%d" m.Model.key case)
            ~doc:
              (Printf.sprintf
                 "enumerator says %s under %s; the solver must agree"
                 (if enum then "allowed" else "forbidden")
                 m.Model.key)
            ~expect:
              [ (m.Model.key, if enum then Test.Allowed else Test.Forbidden) ]
            shrunk
        in
        (* The enumerator's certificate for the shrunk repro: the kernel
           arbitrates which engine is wrong. *)
        let certificate = Cert.certify m ~name:test.Test.name shrunk in
        Some
          {
            kind =
              Engine_mismatch { model = m.Model.key; enum; solve = not enum };
            case;
            original = h;
            shrunk;
            shrink_steps = steps;
            test;
            certificate;
          }
      end)
    Smem_core.Registry.certifiable

let pp_kind ppf = function
  | Unsound { machine; model } ->
      Format.fprintf ppf "UNSOUND: machine %s escaped model %s" machine model
  | Containment { stronger; weaker } ->
      Format.fprintf ppf "CONTAINMENT BROKEN: %s allowed, %s rejected"
        stronger weaker
  | Engine_mismatch { model; enum; solve } ->
      let verdict b = if b then "allowed" else "forbidden" in
      Format.fprintf ppf
        "ENGINE MISMATCH under %s: enumeration says %s, solver says %s" model
        (verdict enum) (verdict solve)

let pp_violation ppf v =
  Format.fprintf ppf
    "@[<v>%a (case %d)@,original:@,%a@,shrunk (%d step(s)):@,%a@,replay:@,%s%s@]"
    pp_kind v.kind v.case H.pp v.original v.shrink_steps H.pp v.shrunk
    (String.trim (Smem_litmus.Print.to_string v.test))
    (match v.certificate with
    | None -> ""
    | Some c ->
        Printf.sprintf "\ncertificate: %s verdict for model %s" 
          (match c.Cert.verdict with
          | Cert.Allowed -> "allowed"
          | Cert.Forbidden -> "forbidden")
          c.Cert.model)
