module H = Smem_core.History
module Machines = Smem_machine.Machines
module Driver = Smem_machine.Driver
module Figure5 = Smem_lattice.Figure5

type outcome = {
  cases : int;
  histories : int;
  machine_runs : int;
  lattice_checks : int;
  engine_checks : int;
  corpus_replays : int;
  violations : Oracle.violation list;
  certified : int;
  cert_unverified_cap : int;
  cert_failures : string list;
}

let empty =
  {
    cases = 0;
    histories = 0;
    machine_runs = 0;
    lattice_checks = 0;
    engine_checks = 0;
    corpus_replays = 0;
    violations = [];
    certified = 0;
    cert_unverified_cap = 0;
    cert_failures = [];
  }

(* Every violation certificate is put through the independent kernel on
   the spot: a rejection means the emitter and the checker disagree and
   the violation report itself cannot be trusted. *)
let absorb_violations acc violations =
  List.fold_left
    (fun acc (v : Oracle.violation) ->
      let acc = { acc with violations = acc.violations @ [ v ] } in
      match Smem_cert.Kernel.verify v.Oracle.certificate with
      | Ok Smem_cert.Kernel.Complete ->
          { acc with certified = acc.certified + 1 }
      | Ok (Smem_cert.Kernel.Unverified_cap _) ->
          (* The kernel accepted on the frontier cross-check alone:
             count it apart so a campaign full of capped acceptances
             cannot read as fully re-verified. *)
          {
            acc with
            certified = acc.certified + 1;
            cert_unverified_cap = acc.cert_unverified_cap + 1;
          }
      | Error e ->
          {
            acc with
            cert_failures =
              acc.cert_failures
              @ [ Printf.sprintf "case %d: %s" v.Oracle.case e ];
          })
    acc violations

(* One history through the lattice oracle (and, when configured, the
   engines differential), with bookkeeping. *)
let check_history ?(engines = false) ~service ~case acc h =
  let violations = Oracle.lattice ~service ~case h in
  let violations =
    if engines then violations @ Oracle.engines ~case h else violations
  in
  absorb_violations
    {
      acc with
      histories = acc.histories + 1;
      lattice_checks = acc.lattice_checks + List.length (Figure5.pairs h);
      engine_checks = (acc.engine_checks + if engines then 1 else 0);
    }
    violations

let check_machine_trace ?engines ~service ~case acc machine h =
  let acc = check_history ?engines ~service ~case acc h in
  let acc = { acc with machine_runs = acc.machine_runs + 1 } in
  match Oracle.soundness ~service ~case machine h with
  | None -> acc
  | Some v -> absorb_violations acc [ v ]

let fuzz_cases = Smem_obs.Metrics.counter "fuzz.cases"

let run_case ~service (c : Gen.config) i =
  Smem_obs.Metrics.incr fuzz_cases;
  Smem_obs.Trace.span ~cat:"fuzz"
    ~args:[ ("case", Smem_obs.Json.Int i) ]
    "fuzz/case"
  @@ fun () ->
  let rand = Gen.case_rand c i in
  let engines = c.engines in
  let acc = { empty with cases = 1 } in
  let acc = check_history ~engines ~service ~case:i acc (Gen.history c ~rand) in
  let acc =
    if not c.machines then acc
    else begin
      let program = Gen.program c ~rand in
      List.fold_left
        (fun acc machine ->
          let h = Driver.run_random machine program ~rand in
          check_machine_trace ~engines ~service ~case:i acc machine h)
        acc Machines.all
    end
  in
  let acc =
    if c.machines && c.lang_every > 0 && i mod c.lang_every = 0 then begin
      let program = Gen.lang_program c ~rand in
      List.fold_left
        (fun acc machine ->
          let h, _violated =
            Smem_lang.Explore.run_random machine program ~rand
          in
          check_machine_trace ~engines ~service ~case:i acc machine h)
        acc Machines.all
    end
    else acc
  in
  (* Corpus replay: the standard load rides along the random cases, one
     test per case in round-robin, through the same lattice oracle (a
     corpus history that breaks a Figure-5 containment is exactly as
     reportable as a generated one). *)
  match c.corpus with
  | [] -> acc
  | corpus ->
      let t = List.nth corpus (i mod List.length corpus) in
      let acc =
        check_history ~engines ~service ~case:i acc
          t.Smem_litmus.Test.history
      in
      { acc with corpus_replays = acc.corpus_replays + 1 }

let merge a b =
  {
    cases = a.cases + b.cases;
    histories = a.histories + b.histories;
    machine_runs = a.machine_runs + b.machine_runs;
    lattice_checks = a.lattice_checks + b.lattice_checks;
    engine_checks = a.engine_checks + b.engine_checks;
    corpus_replays = a.corpus_replays + b.corpus_replays;
    violations = a.violations @ b.violations;
    certified = a.certified + b.certified;
    cert_unverified_cap = a.cert_unverified_cap + b.cert_unverified_cap;
    cert_failures = a.cert_failures @ b.cert_failures;
  }

let verdict_cache_capacity = 8192

let run (c : Gen.config) =
  Gen.validate c;
  let jobs = max 1 c.jobs in
  (* One campaign-wide caching service: the sharded cache is
     domain-safe, so worker domains share verdicts on canonically
     equivalent histories (shrink candidates especially recur). *)
  let cache = Smem_cache.Cache.create ~capacity:verdict_cache_capacity () in
  let service = Smem_serve.Service.create ~cache ~jobs:1 () in
  List.init c.count Fun.id
  |> Smem_parallel.Pool.map ~jobs (run_case ~service c)
  |> List.fold_left merge empty

let pp_summary ppf o =
  Format.fprintf ppf
    "@[<v>fuzz campaign: %d case(s), %d history(ies) checked@,\
     machine replays        %d@,\
     containment checks     %d@,\
     engine differentials   %d@,\
     corpus replays         %d@,\
     oracle violations      %d@,\
     certificates verified  %d (%d kernel rejection(s), %d unverified-cap)@]"
    o.cases o.histories o.machine_runs o.lattice_checks o.engine_checks
    o.corpus_replays
    (List.length o.violations)
    o.certified
    (List.length o.cert_failures)
    o.cert_unverified_cap
