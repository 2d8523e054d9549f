(* The benchmark harness regenerates every figure of the paper (the
   paper is a formal framework paper — its "evaluation" is Figures 1–6
   and the §4 containment theorems, not performance tables) and then
   times the toolkit's kernels with bechamel.

   Part 1 prints, for each figure, the same facts the paper reports:

     Figure 1   SB history: TSO allows, SC forbids
     Figure 2   PC allows, TSO forbids
     Figure 3   PRAM allows, TSO forbids
     Figure 4   Causal allows, TSO forbids
     Figure 5   the containment lattice, recomputed by enumeration
     Figure 6   the Bakery algorithm: safe on RC_sc, broken on RC_pc (§5)

   Part 2 is a bechamel run with one Test.make per experiment:
   checker latency per figure/model, lattice classification, bakery
   exploration, machine replay, and the relation kernels they sit on.

   Every claim feeds two sinks beyond stdout: a failure counter (any
   "<-- MISMATCH" makes the binary exit 1, so `make bench` and CI gate
   on the paper's claims) and a machine-readable record written to
   BENCH_smem.json (per-experiment wall/ns from the monotonic clock,
   candidate counts, prune ratios, jobs) so perf PRs diff against a
   baseline instead of eyeballing tables.

   Flags: --out FILE (default BENCH_smem.json), --figures-only (skip
   the bechamel part), --quick (figures 1–4 claims only), and
   --force-mismatch (deliberately invert Figure 1's expectations — the
   regression test for the exit-code gate). *)

module H = Smem_core.History
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Stats = Smem_core.Stats
module Clock = Smem_obs.Clock
module Json = Smem_obs.Json
module Ltest = Smem_litmus.Test
module Corpus = Smem_litmus.Corpus
module Driver = Smem_machine.Driver
module Machines = Smem_machine.Machines
module Classify = Smem_lattice.Classify

let model key =
  match Registry.find key with Some m -> m | None -> failwith ("no model " ^ key)

let machine key =
  match Machines.find key with Some m -> m | None -> failwith ("no machine " ^ key)

let verdict b = if b then "allowed" else "forbidden"

(* ------------------------------------------------------------------ *)
(* Claim gating and the JSON record                                    *)
(* ------------------------------------------------------------------ *)

let failures = ref 0

(* Every claim funnels through here: the printed marker and the exit
   code can never disagree. *)
let mark ok =
  if ok then "ok"
  else begin
    incr failures;
    "<-- MISMATCH"
  end

(* (section, row) pairs accumulated in run order; assembled into one
   object keyed by section at exit. *)
let records : (string * Json.t) list ref = ref []
let record section row = records := (section, row) :: !records

let assemble_records () =
  let sections =
    List.fold_left
      (fun acc (section, row) ->
        let rows = try List.assoc section acc with Not_found -> [] in
        (section, row :: rows) :: List.remove_assoc section acc)
      [] !records
  in
  List.rev_map (fun (section, rows) -> (section, Json.Arr rows)) sections

(* One checker invocation, measured: monotonic wall time plus the
   Stats counter delta for exactly this check. *)
let measured_check m h =
  Stats.reset ();
  let t0 = Clock.now () in
  let got = Model.check m h in
  let wall_ns = Clock.elapsed_ns t0 in
  (got, wall_ns, Stats.snapshot ())

let counter_fields (s : Stats.snapshot) =
  [
    ("rf_candidates", Json.Int s.Stats.rf_candidates);
    ("co_candidates", Json.Int s.Stats.co_candidates);
    ("pruned", Json.Int s.Stats.pruned);
    ("toposorts", Json.Int s.Stats.toposorts);
  ]

(* ------------------------------------------------------------------ *)
(* Part 1: figure regeneration                                         *)
(* ------------------------------------------------------------------ *)

let figure_history n (test : Ltest.t) ~claims =
  Format.printf "@.== Figure %d (%s) ==@.%a@." n test.Ltest.name H.pp
    test.Ltest.history;
  List.iter
    (fun (key, expected) ->
      let got, wall_ns, s = measured_check (model key) test.Ltest.history in
      record "figures"
        (Json.Obj
           ([
              ("figure", Json.Int n);
              ("test", Json.Str test.Ltest.name);
              ("model", Json.Str key);
              ("expected", Json.Str (verdict expected));
              ("got", Json.Str (verdict got));
              ("ok", Json.Bool (got = expected));
              ("wall_ns", Json.Int wall_ns);
            ]
           @ counter_fields s));
      Format.printf "  %-8s %-9s (paper: %-9s) %s@." key (verdict got)
        (verdict expected)
        (mark (got = expected)))
    claims

let figure5 () =
  Format.printf "@.== Figure 5 (containment lattice, recomputed) ==@.";
  let t0 = Clock.now () in
  let m =
    Classify.classify_scopes ~models:Registry.comparable Classify.standard_scopes
  in
  let wall_ns = Clock.elapsed_ns t0 in
  Format.printf "%a@." Classify.pp_summary m;
  let expected =
    [ ("causal", "pram"); ("pc", "pram"); ("sc", "tso"); ("tso", "causal"); ("tso", "pc") ]
  in
  let got =
    Classify.hasse_edges m
    |> List.map (fun (i, j) ->
           ( (List.nth m.Classify.models i).Model.key,
             (List.nth m.Classify.models j).Model.key ))
    |> List.sort compare
  in
  let ok = got = expected in
  record "figure5"
    (Json.Obj
       [
         ("edges_reproduced", Json.Bool ok);
         ("edges", Json.Int (List.length got));
         ("wall_ns", Json.Int wall_ns);
       ]);
  Format.printf "paper's Figure 5 edges reproduced: %b %s@." ok (mark ok)

let figure6 () =
  Format.printf "@.== Figure 6 / §5 (Bakery algorithm) ==@.";
  let test = Corpus.bakery_rcpc_violation in
  let h = test.Ltest.history in
  Format.printf "the §5 double-entry history:@.%a@." H.pp h;
  List.iter
    (fun (key, expected) ->
      let got, wall_ns, s = measured_check (model key) h in
      record "figure6"
        (Json.Obj
           ([
              ("kind", Json.Str "checker");
              ("model", Json.Str key);
              ("expected", Json.Str (verdict expected));
              ("got", Json.Str (verdict got));
              ("ok", Json.Bool (got = expected));
              ("wall_ns", Json.Int wall_ns);
            ]
           @ counter_fields s));
      Format.printf "  %-8s checker: %-9s (paper: %-9s) %s@." key (verdict got)
        (verdict expected)
        (mark (got = expected)))
    [ ("rc-sc", false); ("rc-pc", true) ];
  List.iter
    (fun (key, expected) ->
      let m = machine key in
      let t0 = Clock.now () in
      let got = Driver.reachable m (Driver.program_of_history h) h in
      let wall_ns = Clock.elapsed_ns t0 in
      record "figure6"
        (Json.Obj
           [
             ("kind", Json.Str "machine");
             ("machine", Json.Str key);
             ("expected_reachable", Json.Bool expected);
             ("got_reachable", Json.Bool got);
             ("ok", Json.Bool (got = expected));
             ("wall_ns", Json.Int wall_ns);
           ]);
      Format.printf "  %-8s machine: %-12s (expected: %-12s) %s@." key
        (if got then "reachable" else "unreachable")
        (if expected then "reachable" else "unreachable")
        (mark (got = expected)))
    [ ("rc-sc", false); ("rc-pc", true) ];
  let program = Smem_lang.Programs.bakery ~n:2 () in
  List.iter
    (fun (key, expect_safe) ->
      let t0 = Clock.now () in
      let outcome = Smem_lang.Explore.check_mutex (machine key) program in
      let wall_ns = Clock.elapsed_ns t0 in
      let describe, states, ok =
        match outcome with
        | Smem_lang.Explore.Safe n ->
            (Printf.sprintf "mutual exclusion holds (%d states)" n, n, expect_safe)
        | Smem_lang.Explore.Violation t ->
            ( Printf.sprintf "VIOLATION (%d-step schedule)" (List.length t),
              0,
              not expect_safe )
        | Smem_lang.Explore.State_limit -> ("state limit", 0, false)
      in
      record "figure6"
        (Json.Obj
           [
             ("kind", Json.Str "bakery2");
             ("machine", Json.Str key);
             ("expect_safe", Json.Bool expect_safe);
             ("states", Json.Int states);
             ("ok", Json.Bool ok);
             ("wall_ns", Json.Int wall_ns);
           ]);
      Format.printf "  %-8s bakery(2): %-38s %s@." key describe (mark ok))
    [ ("sc", true); ("rc-sc", true); ("rc-pc", false); ("tso", false) ]

(* The corpus verdict matrix — the toolkit's equivalent of a results
   table — and a random-scheduling series for the §5 violation.  Each
   cell is checked exactly once: the matrix renders from the same
   result list the mismatch count is computed from. *)
let corpus_matrix () =
  Format.printf "@.== Corpus verdict matrix (every stated expectation checked) ==@.";
  let models = Registry.all in
  let t0 = Clock.now () in
  let results = Smem_litmus.Runner.run_all ~models Corpus.all in
  let wall_ns = Clock.elapsed_ns t0 in
  Smem_litmus.Runner.pp_matrix Format.std_formatter results;
  let bad = Smem_litmus.Runner.mismatches results in
  record "corpus"
    (Json.Obj
       [
         ("verdicts", Json.Int (List.length results));
         ("disagreements", Json.Int (List.length bad));
         ("wall_ns", Json.Int wall_ns);
       ]);
  Format.printf "%d verdicts, %d disagree with stated expectations %s@."
    (List.length results) (List.length bad)
    (mark (bad = []))

(* Search statistics: the unpruned candidate space (counted analytically
   by Diagnose) against what the pruned search actually enumerated.
   The JSON rows carry the prune ratio in permille (the format is
   integer-only): 1000 * (space - seen) / space. *)
let search_stats_report () =
  Format.printf
    "@.== Search statistics: candidate space vs. candidates enumerated ==@.";
  Format.printf "  %-22s %-8s %12s %12s %10s %10s %10s@." "history" "model"
    "rf space" "co space" "rf seen" "co seen" "pruned";
  List.iter
    (fun ((test : Ltest.t), key) ->
      let h = test.Ltest.history in
      let rf_space, co_space = Smem_core.Diagnose.candidate_space h in
      let _, wall_ns, s = measured_check (model key) h in
      let permille space seen =
        if space <= 0 then 0 else 1000 * (space - seen) / space
      in
      record "search"
        (Json.Obj
           ([
              ("test", Json.Str test.Ltest.name);
              ("model", Json.Str key);
              ("rf_space", Json.Int rf_space);
              ("co_space", Json.Int co_space);
              ("rf_prune_permille", Json.Int (permille rf_space s.Stats.rf_candidates));
              ("co_prune_permille", Json.Int (permille co_space s.Stats.co_candidates));
              ("wall_ns", Json.Int wall_ns);
            ]
           @ counter_fields s));
      Format.printf "  %-22s %-8s %12d %12d %10d %10d %10d@." test.Ltest.name
        key rf_space co_space s.Stats.rf_candidates s.Stats.co_candidates
        s.Stats.pruned)
    [
      (Corpus.fig1_tso, "sc");
      (Corpus.fig1_tso, "tso");
      (Corpus.fig2_pc_not_tso, "tso");
      (Corpus.fig3_pram_not_tso, "tso");
      (Corpus.fig4_causal_not_tso, "causal");
      (Corpus.bakery_rcpc_violation, "rc-sc");
      (Corpus.bakery_rcpc_violation, "rc-pc");
    ];
  Stats.reset ()

(* Parallel speedup, measured end to end: the corpus sweep and the
   lattice classification at 1 worker vs. all cores.  Wall-clock on the
   monotonic clock — bechamel's per-run OLS is the wrong tool for a
   multi-second parallel region, and this table feeds README.md. *)
let parallel_speedup () =
  let cores = Smem_parallel.Pool.default_jobs () in
  (* On a single-core host still run the 2-domain pool: the comparison
     then measures pool overhead (expect ~1x), not speedup. *)
  let jobs_n = max 2 cores in
  Format.printf "@.== Parallel speedup (jobs 1 vs jobs %d; %d core%s detected) ==@."
    jobs_n cores (if cores = 1 then "" else "s");
  let time f =
    let t0 = Clock.now () in
    ignore (f ());
    Clock.elapsed_ns t0
  in
  let report name f =
    let t1 = time (fun () -> f 1) in
    let tn = time (fun () -> f jobs_n) in
    record "parallel"
      (Json.Obj
         [
           ("name", Json.Str name);
           ("jobs", Json.Int jobs_n);
           ("jobs1_ns", Json.Int t1);
           ("jobsN_ns", Json.Int tn);
           ( "speedup_permille",
             Json.Int (if tn > 0 then 1000 * t1 / tn else 0) );
         ]);
    Format.printf "  %-28s jobs 1: %8.1f ms   jobs %d: %8.1f ms   speedup %.2fx@."
      name
      (float t1 /. 1e6)
      jobs_n
      (float tn /. 1e6)
      (if tn > 0 then float t1 /. float tn else 0.)
  in
  report "corpus run_all" (fun jobs ->
      Smem_litmus.Runner.run_all ~jobs ~models:Registry.all Corpus.all);
  report "lattice classify_scopes" (fun jobs ->
      Classify.classify_scopes ~jobs ~models:Registry.comparable
        Classify.standard_scopes)

let random_schedule_series () =
  Format.printf
    "@.== Random-schedule violation rates, bakery(2), 1000 runs per machine ==@.";
  let program = Smem_lang.Programs.bakery ~n:2 () in
  List.iter
    (fun key ->
      let rand = Random.State.make [| 2026 |] in
      let violations = ref 0 in
      for _ = 1 to 1000 do
        let _, violated = Smem_lang.Explore.run_random (machine key) program ~rand in
        if violated then incr violations
      done;
      record "random_schedules"
        (Json.Obj
           [
             ("machine", Json.Str key);
             ("runs", Json.Int 1000);
             ("violations", Json.Int !violations);
           ]);
      Format.printf "  %-8s %4d / 1000 random schedules violate mutual exclusion@."
        key !violations)
    [ "sc"; "rc-sc"; "rc-pc"; "tso" ]

(* The serving cache, measured end to end: the full corpus × model
   sweep through a caching Service, cold then warm.  The claim gated on
   is determinism, not speed: the warm pass must be answered entirely
   from the cache with verdicts identical to the cold pass.  The
   speedup is recorded for diffing, never gated (CI machines vary). *)
let cache_section () =
  Format.printf
    "@.== Verdict cache: cold vs. warm corpus pass through the service ==@.";
  let cache = Smem_cache.Cache.create ~capacity:65536 () in
  let service = Smem_serve.Service.create ~cache ~jobs:1 () in
  let req = Smem_api.Request.Corpus { models = [] } in
  let pass () =
    let t0 = Clock.now () in
    let resp = Smem_serve.Service.handle service req in
    (resp, Clock.elapsed_ns t0)
  in
  let cold, cold_ns = pass () in
  let warm, warm_ns = pass () in
  let verdicts (r : Smem_api.Response.t) =
    match r.Smem_api.Response.payload with
    | Smem_api.Response.Verdicts vs -> vs
    | _ -> []
  in
  let cells = List.length (verdicts cold) in
  let key (v : Smem_api.Verdict.t) =
    (v.Smem_api.Verdict.subject, v.Smem_api.Verdict.authority,
     v.Smem_api.Verdict.status)
  in
  let identical =
    cells > 0
    && List.equal ( = ) (List.map key (verdicts cold))
         (List.map key (verdicts warm))
  in
  let warm_hits = warm.Smem_api.Response.cached in
  let all_hot = warm_hits = cells in
  let speedup_permille = if warm_ns > 0 then 1000 * cold_ns / warm_ns else 0 in
  record "cache"
    (Json.Obj
       [
         ("cells", Json.Int cells);
         ("cold_ns", Json.Int cold_ns);
         ("warm_ns", Json.Int warm_ns);
         ("cold_hits", Json.Int cold.Smem_api.Response.cached);
         ("warm_hits", Json.Int warm_hits);
         ("warm_all_cached", Json.Bool all_hot);
         ("verdicts_identical", Json.Bool identical);
         ("speedup_permille", Json.Int speedup_permille);
       ]);
  Format.printf
    "  cold: %8.2f ms (%d/%d cells from cache)@.  warm: %8.2f ms (%d/%d \
     cells from cache)  speedup %.1fx@."
    (float cold_ns /. 1e6)
    cold.Smem_api.Response.cached cells
    (float warm_ns /. 1e6)
    warm_hits cells
    (if warm_ns > 0 then float cold_ns /. float warm_ns else 0.);
  Format.printf "  warm pass fully cached, verdicts identical: %b %s@."
    (all_hot && identical)
    (mark (all_hot && identical))

(* The same cold/warm determinism gate over a generated corpus
   (--corpus FILE, produced by `smem corpus generate`): every test is
   served as an inline Check request, the warm pass must answer every
   cell from the cache with verdicts identical to the cold pass.  The
   generated corpus is the standard serving load — this is where it
   gates the bench. *)
let corpus_cache_section tests =
  Format.printf
    "@.== Verdict cache: cold vs. warm pass over the generated corpus (%d \
     tests) ==@."
    (List.length tests);
  let cache = Smem_cache.Cache.create ~capacity:65536 () in
  let service = Smem_serve.Service.create ~cache ~jobs:1 () in
  let reqs =
    List.map
      (fun t ->
        Smem_api.Request.Check
          {
            test = Smem_api.Request.Inline (Smem_litmus.Print.to_string t);
            models = [];
          })
      tests
  in
  let key (v : Smem_api.Verdict.t) =
    ( v.Smem_api.Verdict.subject,
      v.Smem_api.Verdict.authority,
      v.Smem_api.Verdict.status )
  in
  let pass () =
    let t0 = Clock.now () in
    let hits = ref 0 in
    let verdicts =
      List.concat_map
        (fun req ->
          let resp = Smem_serve.Service.handle service req in
          hits := !hits + resp.Smem_api.Response.cached;
          match resp.Smem_api.Response.payload with
          | Smem_api.Response.Verdicts vs -> List.map key vs
          | _ -> [])
        reqs
    in
    (verdicts, !hits, Clock.elapsed_ns t0)
  in
  let cold, cold_hits, cold_ns = pass () in
  let warm, warm_hits, warm_ns = pass () in
  let cells = List.length cold in
  let identical = cells > 0 && List.equal ( = ) cold warm in
  let all_hot = warm_hits = cells in
  record "corpus_cache"
    (Json.Obj
       [
         ("tests", Json.Int (List.length tests));
         ("cells", Json.Int cells);
         ("cold_ns", Json.Int cold_ns);
         ("warm_ns", Json.Int warm_ns);
         ("cold_hits", Json.Int cold_hits);
         ("warm_hits", Json.Int warm_hits);
         ("warm_all_cached", Json.Bool all_hot);
         ("verdicts_identical", Json.Bool identical);
         ( "speedup_permille",
           Json.Int (if warm_ns > 0 then 1000 * cold_ns / warm_ns else 0) );
       ]);
  Format.printf
    "  cold: %8.2f ms (%d/%d cells from cache)@.  warm: %8.2f ms (%d/%d cells \
     from cache)  speedup %.1fx@."
    (float cold_ns /. 1e6)
    cold_hits cells
    (float warm_ns /. 1e6)
    warm_hits cells
    (if warm_ns > 0 then float cold_ns /. float warm_ns else 0.);
  Format.printf "  warm pass fully cached, verdicts identical: %b %s@."
    (all_hot && identical)
    (mark (all_hot && identical))

let fig1_claims ~force_mismatch =
  (* --force-mismatch inverts the paper's Figure 1 expectations so the
     exit-code gate itself is testable: the checkers still answer
     correctly, the claims are wrong, the binary must exit 1. *)
  let flip = if force_mismatch then not else Fun.id in
  [ ("tso", flip true); ("sc", flip false) ]

let regenerate_figures ~quick ~force_mismatch ~corpus =
  Format.printf
    "====================================================================@.";
  Format.printf
    " Figure regeneration: paper claims vs. this implementation@.";
  Format.printf
    "====================================================================@.";
  if force_mismatch then
    Format.printf "(--force-mismatch: Figure 1 expectations inverted)@.";
  figure_history 1 Corpus.fig1_tso ~claims:(fig1_claims ~force_mismatch);
  figure_history 2 Corpus.fig2_pc_not_tso ~claims:[ ("pc", true); ("tso", false) ];
  figure_history 3 Corpus.fig3_pram_not_tso ~claims:[ ("pram", true); ("tso", false) ];
  figure_history 4 Corpus.fig4_causal_not_tso
    ~claims:[ ("causal", true); ("tso", false) ];
  if not quick then begin
    figure5 ();
    figure6 ();
    (* Reproduction finding documented in EXPERIMENTS.md. *)
    (match Corpus.find "sb+rfi" with
    | Some t ->
        let h = t.Ltest.history in
        Format.printf
          "@.== §3.2 equivalence claim (TSO = axiomatic TSO) ==@.%a@." H.pp h;
        Format.printf
          "  view-based TSO: %-9s   operational TSO: %-9s  -> the claim fails \
           on store-forwarding (see EXPERIMENTS.md)@."
          (verdict (Smem_core.Model.check Smem_core.Tso.model h))
          (verdict (Smem_core.Tso_operational.check h))
    | None -> ());
    corpus_matrix ();
    cache_section ();
    search_stats_report ();
    parallel_speedup ();
    random_schedule_series ()
  end;
  match corpus with [] -> () | tests -> corpus_cache_section tests

(* ------------------------------------------------------------------ *)
(* Solver crossover: propagation engine vs. brute-force enumeration    *)
(* ------------------------------------------------------------------ *)

(* co-pump(k): two processors each write x k times, a third reads x
   stale (2 then 1).  SC forbids it for every k >= 2 (k = 1 is allowed,
   so the family starts at 2).  Both read values are written exactly
   once, so the reads-from map is forced and the whole refutation cost
   sits in the coherence enumeration: the enumerator exhausts every
   po-respecting interleaving of the two write chains (C(2k, k) orders,
   each with a full legality check) while the propagation engine derives
   the from-read cycle without materializing any order. *)
let co_pump k =
  H.make
    [
      List.init k (fun i -> H.write "x" (i + 1));
      List.init k (fun i -> H.write "x" (k + i + 1));
      [ H.read "x" 2; H.read "x" 1 ];
    ]

let solver_section () =
  Format.printf "@.== Solver crossover (co-pump(k) under SC) ==@.";
  Format.printf "  %-4s %14s %14s   %s@." "k" "enum" "solve" "verdicts";
  Smem_solve.Solve.install ();
  let sc = model "sc" in
  let timed engine h =
    Model.set_engine engine;
    Stats.reset ();
    let t0 = Clock.now () in
    let got = Model.check sc h in
    let ns = Clock.elapsed_ns t0 in
    (got, ns, Stats.snapshot ())
  in
  let crossover = ref None in
  for k = 2 to 7 do
    let h = co_pump k in
    let enum_got, enum_ns, _ = timed Model.Enum h in
    let solve_got, solve_ns, s = timed Model.Solve h in
    Model.set_engine Model.Enum;
    (* Gated claims: the engines agree, and the family is forbidden. *)
    let ok = enum_got = solve_got && not enum_got in
    if ok && solve_ns < enum_ns && !crossover = None then crossover := Some k;
    record "solver"
      (Json.Obj
         [
           ("family", Json.Str "co-pump");
           ("k", Json.Int k);
           ("nops", Json.Int (H.nops h));
           ("enum_ns", Json.Int enum_ns);
           ("solve_ns", Json.Int solve_ns);
           ("enum_allowed", Json.Bool enum_got);
           ("solve_allowed", Json.Bool solve_got);
           ("solve_decisions", Json.Int s.Stats.solve_decisions);
           ("solve_propagations", Json.Int s.Stats.solve_propagations);
           ("solve_conflicts", Json.Int s.Stats.solve_conflicts);
           ("solve_nogoods", Json.Int s.Stats.solve_nogoods);
         ]);
    Format.printf "  %-4d %12dns %12dns   %s/%s %s@." k enum_ns solve_ns
      (verdict enum_got) (verdict solve_got) (mark ok)
  done;
  (match !crossover with
  | Some k ->
      record "solver"
        (Json.Obj [ ("family", Json.Str "crossover"); ("k", Json.Int k) ]);
      Format.printf "  solver overtakes enumeration at k=%d@." k
  | None ->
      (* No crossover is a gated failure: the whole point of the engine
         is to win on exactly this shape. *)
      incr failures;
      Format.printf "  solver never overtook enumeration <-- MISMATCH@.")

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel benchmarks                                         *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let check_bench key (test : Ltest.t) =
  let m = model key in
  Test.make
    ~name:(Printf.sprintf "check/%s/%s" test.Ltest.name key)
    (Staged.stage (fun () -> ignore (Model.check m test.Ltest.history)))

let reach_bench key (test : Ltest.t) =
  let m = machine key in
  let h = test.Ltest.history in
  let p = Driver.program_of_history h in
  Test.make
    ~name:(Printf.sprintf "machine/%s/%s" test.Ltest.name key)
    (Staged.stage (fun () -> ignore (Driver.reachable m p h)))

let scaling_benches =
  (* SC-checker latency as history size grows: 2x2, 2x3, 3x3 ops. *)
  let history rows = H.make rows in
  let w = H.write and r = H.read in
  let h4 = history [ [ w "x" 1; r "y" 0 ]; [ w "y" 1; r "x" 0 ] ] in
  let h6 =
    history [ [ w "x" 1; r "y" 0; w "x" 2 ]; [ w "y" 1; r "x" 2; r "y" 1 ] ]
  in
  let h9 =
    history
      [
        [ w "x" 1; r "y" 0; w "x" 2 ];
        [ w "y" 1; r "x" 2; r "y" 1 ];
        [ r "x" 0; w "y" 2; r "y" 2 ];
      ]
  in
  List.map
    (fun (name, h) ->
      Test.make ~name:("scaling/sc/" ^ name)
        (Staged.stage (fun () ->
             ignore (Smem_core.Model.check Smem_core.Sc.model h))))
    [ ("4ops", h4); ("6ops", h6); ("9ops", h9) ]

let lattice_bench =
  Test.make ~name:"fig5/lattice/default-scope"
    (Staged.stage (fun () ->
         ignore
           (Classify.classify ~models:Registry.comparable
              Smem_lattice.Enumerate.default)))

let bakery_benches =
  List.map
    (fun key ->
      let m = machine key in
      let program = Smem_lang.Programs.bakery ~n:2 () in
      Test.make
        ~name:(Printf.sprintf "fig6/bakery2-explore/%s" key)
        (Staged.stage (fun () -> ignore (Smem_lang.Explore.check_mutex m program))))
    [ "sc"; "rc-sc"; "rc-pc" ]

(* Ablations for the design choices DESIGN.md calls out: what the
   engine-B memoization buys, and what pruning the coherence
   enumeration by per-processor program order buys. *)
let ablation_benches =
  (* Unsatisfiable instances force the searches to exhaust their spaces,
     which is where memoization and pruning earn their keep. *)
  let stress =
    H.make
      [
        [
          H.write "x" 1; H.write "y" 2; H.write "x" 3; H.write "y" 4;
          H.write "x" 5; H.write "y" 6; H.read "x" 99;
        ];
        [
          H.write "x" 11; H.write "y" 12; H.write "x" 13; H.write "y" 14;
          H.write "x" 15; H.write "y" 16; H.read "y" 99;
        ];
      ]
  in
  let ops = H.all_ops_set stress in
  let order = Smem_core.Orders.po stress in
  let view_bench name memoize =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (Smem_core.View.exists ~memoize stress ~ops ~order
                ~legality:Smem_core.View.By_value)))
  in
  (* SC checking with and without the program-order pruning of the
     coherence enumeration (the unpruned variant enumerates k! orders
     per location instead of the constrained count). *)
  let co_stress =
    H.make
      [
        [ H.write "x" 1; H.write "x" 2; H.write "x" 3; H.write "x" 4 ];
        [ H.read "x" 4; H.read "x" 3; H.read "x" 2; H.read "x" 1 ];
      ]
  in
  let sc_with_respect respect () =
    let po = Smem_core.Orders.po co_stress in
    let all = H.all_ops_set co_stress in
    let empty = Smem_relation.Rel.create (H.nops co_stress) in
    ignore
      (Smem_core.Reads_from.iter co_stress ~f:(fun rf ->
           Smem_core.Coherence.iter ?respect co_stress ~f:(fun co ->
               Smem_core.Engine.check co_stress ~rf ~co ~extra:empty
                 ~views:[ { Smem_core.Engine.proc = -1; ops = all; order = po } ]
               <> None)))
  in
  [
    view_bench "ablation/view-memoized" true;
    view_bench "ablation/view-naive" false;
    Test.make ~name:"ablation/co-pruned" (Staged.stage (sc_with_respect None));
    Test.make ~name:"ablation/co-unpruned"
      (Staged.stage (sc_with_respect (Some (fun _ _ -> false))));
  ]

(* The same comparison under bechamel, so the speedup claim is backed
   by a proper estimator and not a single wall-clock sample.  Each run
   spawns and joins the worker domains — pool setup cost is part of
   what is being measured. *)
let parallel_benches =
  let jobs_n = max 2 (Smem_parallel.Pool.default_jobs ()) in
  let corpus jobs () =
    ignore (Smem_litmus.Runner.run_all ~jobs ~models:Registry.all Corpus.all)
  in
  [
    Test.make ~name:"parallel/corpus/jobs-1" (Staged.stage (corpus 1));
    Test.make
      ~name:(Printf.sprintf "parallel/corpus/jobs-%d" jobs_n)
      (Staged.stage (corpus jobs_n));
  ]

let tooling_benches =
  let fig1 = Driver.program_of_history Corpus.fig1_tso.Ltest.history in
  [
    Test.make ~name:"tooling/outcomes/fig1-tso"
      (Staged.stage (fun () -> ignore (Driver.outcomes (machine "tso") fig1)));
    Test.make ~name:"tooling/distinguish/sc-vs-tso"
      (Staged.stage (fun () ->
           ignore
             (Smem_lattice.Distinguish.separating ~allow:(model "tso")
                ~forbid:(model "sc")
                [ Smem_lattice.Enumerate.default ])));
  ]

let kernel_benches =
  let n = 64 in
  let rand = Random.State.make [| 17 |] in
  let rel = Smem_relation.Rel.create n in
  for _ = 1 to 4 * n do
    Smem_relation.Rel.add rel (Random.State.int rand n) (Random.State.int rand n)
  done;
  [
    Test.make ~name:"kernel/closure/64"
      (Staged.stage (fun () -> ignore (Smem_relation.Rel.transitive_closure rel)));
    Test.make ~name:"kernel/acyclic/64"
      (Staged.stage (fun () -> ignore (Smem_relation.Rel.acyclic rel)));
    (let chain =
       Smem_relation.Rel.of_pairs 8 [ (0, 1); (1, 2); (4, 5); (6, 7) ]
     in
     Test.make ~name:"kernel/linear-extensions/8"
       (Staged.stage (fun () ->
            ignore (Smem_relation.Rel.linear_extensions chain ~f:(fun _ -> false)))))
  ]

let all_benches () =
  let figure_tests =
    List.concat
      [
        [ check_bench "sc" Corpus.fig1_tso; check_bench "tso" Corpus.fig1_tso ];
        [ check_bench "tso" Corpus.fig2_pc_not_tso; check_bench "pc" Corpus.fig2_pc_not_tso ];
        [ check_bench "tso" Corpus.fig3_pram_not_tso; check_bench "pram" Corpus.fig3_pram_not_tso ];
        [ check_bench "tso" Corpus.fig4_causal_not_tso; check_bench "causal" Corpus.fig4_causal_not_tso ];
        [
          check_bench "rc-sc" Corpus.bakery_rcpc_violation;
          check_bench "rc-pc" Corpus.bakery_rcpc_violation;
        ];
        [ reach_bench "tso" Corpus.fig1_tso; reach_bench "sc" Corpus.fig1_tso ];
      ]
  in
  Test.make_grouped ~name:"smem" ~fmt:"%s/%s"
    (figure_tests @ scaling_benches @ [ lattice_bench ] @ bakery_benches
   @ ablation_benches @ parallel_benches @ tooling_benches @ kernel_benches)

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (all_benches ()) in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  Analyze.merge ols instances results

let print_results results =
  Format.printf
    "@.====================================================================@.";
  Format.printf " Toolkit benchmarks (bechamel, monotonic clock)@.";
  Format.printf
    "====================================================================@.";
  Format.printf "%-44s %16s@." "benchmark" "time/run";
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock []
    |> List.sort compare
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          record "bechamel"
            (Json.Obj
               [ ("name", Json.Str name); ("ns_per_run", Json.Int (int_of_float est)) ]);
          let pretty =
            if est > 1e9 then Printf.sprintf "%10.3f s " (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%10.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%10.3f us" (est /. 1e3)
            else Printf.sprintf "%10.0f ns" est
          in
          Format.printf "%-44s %16s@." name pretty
      | _ -> Format.printf "%-44s %16s@." name "n/a")
    rows

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let write_json ~out ~quick ~figures_only ~force_mismatch =
  let doc =
    Json.Obj
      ([
         ("schema", Json.Str "smem-bench/1");
         ("jobs", Json.Int (Smem_parallel.Pool.default_jobs ()));
         ("quick", Json.Bool quick);
         ("figures_only", Json.Bool figures_only);
         ("forced_mismatch", Json.Bool force_mismatch);
         ("mismatches", Json.Int !failures);
       ]
      @ assemble_records ())
  in
  let oc = open_out out in
  output_string oc (Json.to_string doc);
  close_out oc;
  Format.printf "@.wrote %s@." out

let () =
  let out = ref "BENCH_smem.json" in
  let figures_only = ref false in
  let quick = ref false in
  let solver_only = ref false in
  let force_mismatch = ref false in
  let corpus_file = ref "" in
  let spec =
    [
      ("--out", Arg.Set_string out, "FILE  Machine-readable results (default BENCH_smem.json)");
      ("--figures-only", Arg.Set figures_only, "  Skip the bechamel timing part");
      ("--quick", Arg.Set quick, "  Figures 1-4 claims only (implies --figures-only)");
      ("--solver-only", Arg.Set solver_only,
       "  Run only the solver-vs-enumeration crossover section");
      ("--force-mismatch", Arg.Set force_mismatch, "  Invert Figure 1 expectations (tests the exit-code gate)");
      ("--corpus", Arg.Set_string corpus_file,
       "FILE  Also gate a cold/warm serving pass over this generated corpus \
        (`smem corpus generate`)");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--out FILE] [--figures-only] [--quick] [--solver-only] \
     [--force-mismatch] [--corpus FILE]";
  let corpus =
    if !corpus_file = "" then []
    else
      match Smem_corpus.Corpus.load !corpus_file with
      | Ok tests -> tests
      | Error e ->
          Format.eprintf "error: %s: %s@." !corpus_file e;
          exit 2
  in
  let figures_only = !figures_only || !quick || !solver_only in
  if not !solver_only then
    regenerate_figures ~quick:!quick ~force_mismatch:!force_mismatch ~corpus;
  (* The crossover section rides along the full run and is the whole run
     under --solver-only (the CI solver-smoke job). *)
  if not !quick then solver_section ();
  if not figures_only then begin
    let results = benchmark () in
    print_results results
  end;
  write_json ~out:!out ~quick:!quick ~figures_only ~force_mismatch:!force_mismatch;
  if !failures > 0 then begin
    Format.eprintf "%d figure claim(s) MISMATCHED the implementation@." !failures;
    exit 1
  end
