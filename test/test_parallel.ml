(* Tests of the parallel work pool and the properties the rest of the
   toolkit relies on it for: order preservation, exception propagation,
   and that every parallel entry point — the service's corpus matrix
   ([smem corpus -j N]), classification, distinction — returns results
   identical to its serial run.  Also covers the search-statistics
   counters and, by qcheck, that the pruned/hoisted searches never
   change a verdict relative to naive reference implementations. *)

module Pool = Smem_parallel.Pool
module H = Smem_core.History
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Stats = Smem_core.Stats
module Rel = Smem_relation.Rel
module Corpus = Smem_litmus.Corpus
module Ltest = Smem_litmus.Test
module Classify = Smem_lattice.Classify
module Enumerate = Smem_lattice.Enumerate
module Distinguish = Smem_lattice.Distinguish
module Helpers = Smem_testlib.Helpers
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Service = Smem_serve.Service

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let model key = Option.get (Registry.find key)

(* ---------------- the pool itself ---------------- *)

let pool_map_matches_list_map () =
  let input = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list int)
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f input)
        (Pool.map ~jobs f input))
    [ 1; 2; 3; 8 ];
  check Alcotest.(list int) "empty" [] (Pool.map ~jobs:4 f []);
  check Alcotest.(list int) "singleton" [ 2 ] (Pool.map ~jobs:4 f [ 1 ])

let pool_map_preserves_order () =
  (* Uneven per-item work: late items finish first on an unfair
     scheduler, so any ordering bug shows up. *)
  let input = List.init 64 Fun.id in
  let f x =
    let spin = ref 0 in
    for _ = 1 to (64 - x) * 1000 do
      incr spin
    done;
    ignore !spin;
    x
  in
  check Alcotest.(list int) "order kept" input (Pool.map ~jobs:7 f input)

exception Boom

let pool_map_propagates_exceptions () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "raises at jobs=%d" jobs)
        Boom
        (fun () ->
          ignore (Pool.map ~jobs (fun x -> if x = 13 then raise Boom else x)
                    (List.init 40 Fun.id))))
    [ 1; 4 ]

let pool_iter_visits_everything () =
  let hits = Stdlib.Atomic.make 0 in
  let sum = Stdlib.Atomic.make 0 in
  let input = List.init 500 Fun.id in
  Pool.iter ~jobs:6
    (fun x ->
      Stdlib.Atomic.incr hits;
      ignore (Stdlib.Atomic.fetch_and_add sum x))
    input;
  check Alcotest.int "every item visited once" 500 (Stdlib.Atomic.get hits);
  check Alcotest.int "sum of items" (500 * 499 / 2) (Stdlib.Atomic.get sum)

let default_jobs_positive () =
  check Alcotest.bool "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* ---------------- serial == parallel, per entry point ---------------- *)

(* The corpus x catalogue matrix through the service, fanned over
   [jobs] worker domains as [smem corpus -j N] runs it. *)
let corpus_verdicts ~jobs =
  let req = Request.Corpus { models = [] } in
  match (Service.handle (Service.create ~jobs ()) req).Response.payload with
  | Response.Verdicts verdicts -> verdicts
  | _ -> Alcotest.fail "corpus request answered without verdicts"

let runner_identical_across_jobs () =
  let serial = corpus_verdicts ~jobs:1 in
  List.iter
    (fun jobs ->
      let par = corpus_verdicts ~jobs in
      check Alcotest.int
        (Printf.sprintf "same cell count at jobs=%d" jobs)
        (List.length serial) (List.length par);
      check Alcotest.bool
        (Printf.sprintf "identical results and order at jobs=%d" jobs)
        true (serial = par))
    [ 2; 5 ]

let implied () = Option.value (Smem_obs.Metrics.find "check.implied") ~default:0

let matrix_renders_without_rechecking () =
  Stats.reset ();
  let implied0 = implied () in
  let verdicts = corpus_verdicts ~jobs:1 in
  let after_run = Stats.snapshot () in
  (* Figure 5 decides some cells without a search: each cell is
     searched once or implied once, never both. *)
  check Alcotest.int "searched + implied = cells" (List.length verdicts)
    (after_run.Stats.checks + implied () - implied0);
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Verdict.pp_matrix ppf verdicts;
  Format.pp_print_flush ppf ();
  let after_pp = Stats.snapshot () in
  check Alcotest.int "pp_matrix runs no checker" after_run.Stats.checks
    after_pp.Stats.checks;
  let rendered = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "matrix mentions every test" true
    (List.for_all (fun (t : Ltest.t) -> contains t.Ltest.name) Corpus.all)

let classify_identical_across_jobs () =
  let models = Registry.comparable in
  let scope = Enumerate.default in
  let serial = Classify.classify ~jobs:1 ~models scope in
  let witness_strings m =
    Array.map
      (Array.map (function
        | None -> "-"
        | Some h -> Format.asprintf "%a" H.pp h))
      m.Classify.witness
  in
  List.iter
    (fun jobs ->
      let par = Classify.classify ~jobs ~models scope in
      check Alcotest.int
        (Printf.sprintf "total at jobs=%d" jobs)
        serial.Classify.total par.Classify.total;
      check
        Alcotest.(array int)
        (Printf.sprintf "allowed counts at jobs=%d" jobs)
        serial.Classify.allowed_counts par.Classify.allowed_counts;
      check
        Alcotest.(array (array int))
        (Printf.sprintf "only_in at jobs=%d" jobs)
        serial.Classify.only_in par.Classify.only_in;
      check
        Alcotest.(array (array string))
        (Printf.sprintf "witnesses at jobs=%d" jobs)
        (witness_strings serial) (witness_strings par))
    [ 2; 4 ]

let distinguish_identical_across_jobs () =
  let a = model "sc" in
  let b = model "tso" in
  let show v = Format.asprintf "%a" (Distinguish.pp_verdict ~a ~b) v in
  let serial = Distinguish.compare ~jobs:1 ~a ~b [ Enumerate.default ] in
  let par = Distinguish.compare ~jobs:2 ~a ~b [ Enumerate.default ] in
  check Alcotest.string "same verdict and witnesses" (show serial) (show par)

(* ---------------- statistics counters ---------------- *)

let zero (s : Stats.snapshot) =
  s.Stats.checks = 0 && s.Stats.rf_candidates = 0 && s.Stats.co_candidates = 0
  && s.Stats.pruned = 0 && s.Stats.toposorts = 0 && s.Stats.wall_ns = 0

let leq (a : Stats.snapshot) (b : Stats.snapshot) =
  a.Stats.checks <= b.Stats.checks
  && a.Stats.rf_candidates <= b.Stats.rf_candidates
  && a.Stats.co_candidates <= b.Stats.co_candidates
  && a.Stats.pruned <= b.Stats.pruned
  && a.Stats.toposorts <= b.Stats.toposorts
  && a.Stats.wall_ns <= b.Stats.wall_ns

let stats_reset_and_monotone () =
  Stats.reset ();
  check Alcotest.bool "zero after reset" true (zero (Stats.snapshot ()));
  let h = Corpus.fig1_tso.Ltest.history in
  let sc = model "sc" in
  ignore (Model.check sc h);
  let s1 = Stats.snapshot () in
  check Alcotest.bool "one check counted" true (s1.Stats.checks = 1);
  check Alcotest.bool "search enumerated something" true
    (s1.Stats.rf_candidates + s1.Stats.pruned > 0);
  ignore (Model.check sc h);
  let s2 = Stats.snapshot () in
  check Alcotest.bool "counters are monotone" true (leq s1 s2);
  check Alcotest.bool "diff of equal snapshots is zero" true
    (zero (Stats.diff s2 s2));
  let d = Stats.diff s2 s1 in
  check Alcotest.int "diff isolates the second check" 1 d.Stats.checks;
  Stats.reset ();
  check Alcotest.bool "zero after second reset" true (zero (Stats.snapshot ()))

let stats_count_under_parallel_runner () =
  (* Counters are shared atomics: a parallel sweep must account every
     search exactly once, same as serial — each test's row is filled
     the same way on any worker. *)
  Stats.reset ();
  ignore (corpus_verdicts ~jobs:1);
  let s = Stats.snapshot () in
  Stats.reset ();
  ignore (corpus_verdicts ~jobs:4);
  let p = Stats.snapshot () in
  check Alcotest.int "checks" s.Stats.checks p.Stats.checks;
  check Alcotest.int "rf candidates" s.Stats.rf_candidates p.Stats.rf_candidates;
  check Alcotest.int "co candidates" s.Stats.co_candidates p.Stats.co_candidates;
  check Alcotest.int "pruned" s.Stats.pruned p.Stats.pruned;
  check Alcotest.int "toposorts" s.Stats.toposorts p.Stats.toposorts;
  Stats.reset ()

(* ---------------- pruning never changes verdicts ---------------- *)

(* Naive SC: some legal linear extension of program order over all
   operations — no hoisting, no pruning, no engine. *)
let naive_sc h =
  Helpers.linear_extensions (Smem_core.Orders.po h) ~f:(fun seq ->
      Helpers.legal_sequence h (Array.to_list seq))

(* Naive PRAM: per processor, some legal linear extension of program
   order over that processor's operations plus all writes. *)
let naive_pram h =
  let po = Smem_core.Orders.po h in
  List.for_all
    (fun p ->
      Helpers.linear_extensions ~universe:(H.view_ops_writes h p) po
        ~f:(fun seq -> Helpers.legal_sequence h (Array.to_list seq)))
    (List.init (H.nprocs h) Fun.id)

let prop_pruned_sc_matches_naive =
  QCheck.Test.make ~count:150 ~name:"pruned SC search == naive reference"
    (Helpers.arb_history ())
    (fun h -> Model.check (model "sc") h = naive_sc h)

let prop_pruned_pram_matches_naive =
  QCheck.Test.make ~count:150 ~name:"pruned PRAM search == naive reference"
    (Helpers.arb_history ())
    (fun h -> Model.check (model "pram") h = naive_pram h)

let prop_parallel_check_matches_serial =
  (* Every registry model, random histories: fanning the checks over a
     pool changes nothing. *)
  QCheck.Test.make ~count:40 ~name:"Pool.map of checks == List.map"
    (QCheck.make
       ~print:(fun hs -> String.concat "\n---\n" (List.map Helpers.print_history hs))
       QCheck.Gen.(list_size (int_range 1 5)
                     (Helpers.gen_history ~labeled_allowed:`Mixed ())))
    (fun hs ->
      List.for_all
        (fun (m : Model.t) ->
          Pool.map ~jobs:3 (Model.check m) hs = List.map (Model.check m) hs)
        Registry.comparable)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          tc "map matches List.map" pool_map_matches_list_map;
          tc "map preserves order" pool_map_preserves_order;
          tc "map propagates exceptions" pool_map_propagates_exceptions;
          tc "iter visits everything" pool_iter_visits_everything;
          tc "default_jobs positive" default_jobs_positive;
        ] );
      ( "determinism",
        [
          tc "runner identical across jobs" runner_identical_across_jobs;
          tc "matrix renders without rechecking" matrix_renders_without_rechecking;
          tc "classify identical across jobs" classify_identical_across_jobs;
          tc "distinguish identical across jobs" distinguish_identical_across_jobs;
        ] );
      ( "stats",
        [
          tc "reset, monotone, diff" stats_reset_and_monotone;
          tc "parallel sweep counts like serial" stats_count_under_parallel_runner;
        ] );
      ( "pruning",
        qcheck
          [
            prop_pruned_sc_matches_naive;
            prop_pruned_pram_matches_naive;
            prop_parallel_check_matches_serial;
          ] );
    ]
