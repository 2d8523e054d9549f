(* Tests of the constraint-propagation witness engine (lib/solve):

   - verdict equivalence with the enumerator (Smem_core.Enum) over the
     built-in litmus corpus, a 500-test generated smem-corpus/1 load,
     and qcheck random histories (shrunk on failure) — both engines
     accept candidates through the same leaf (Smem_core.Leaf), and these
     suites pin down that the solver's pruning never drops one;
   - the co-pump family: forbidden under SC for every k >= 2, allowed
     at k = 1, and the shape on which the solver must overtake the
     enumerator;
   - witness reusability: a solver witness re-checks under the
     enumeration engine's kernel, and certificates emitted while the
     solve engine is selected still verify. *)

module H = Smem_core.History
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Witness = Smem_core.Witness
module Test = Smem_litmus.Test
module Corpus = Smem_litmus.Corpus
module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel
module Solve = Smem_solve.Solve
module Helpers = Smem_testlib.Helpers

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let model key =
  match Registry.find key with
  | Some m -> m
  | None -> Alcotest.failf "unknown model %s" key

(* The engines under comparison: the enumerator on one side, the
   propagation engine on the other. *)
let enum_allows (m : Model.t) h = Option.is_some (m.Model.witness h)
let solve_allows (m : Model.t) h = Solve.check m h

let agree_everywhere ?(models = Registry.certifiable) ~what h =
  List.iter
    (fun (m : Model.t) ->
      let enum = enum_allows m h and solve = solve_allows m h in
      if enum <> solve then
        Alcotest.failf "%s: %s disagrees (enum %b, solve %b) on:\n%s" what
          m.Model.key enum solve
          (Format.asprintf "%a" H.pp h))
    models

(* ---------------- corpus differentials ---------------- *)

(* The built-in corpus runs the composer's models too: they reach the
   solver through the same quadruple, with per-view propagation. *)
let builtin_corpus_cases =
  List.map
    (fun (t : Test.t) ->
      tc t.Test.name (fun () ->
          agree_everywhere
            ~models:(Registry.certifiable @ Helpers.composed)
            ~what:t.Test.name t.Test.history))
    Corpus.all

(* The standard load: 500 deduplicated machine-execution tests, every
   certifiable model, both engines (the same differential `smem fuzz
   --engines --corpus` runs in CI). *)
let generated_corpus_differential () =
  let tests = Smem_corpus.Corpus.generate ~seed:42 ~count:500 ~max_ops:8 () in
  check Alcotest.int "load size" 500 (List.length tests);
  List.iter
    (fun (t : Test.t) -> agree_everywhere ~what:t.Test.name t.Test.history)
    tests

(* ---------------- random differentials ---------------- *)

let prop_random_histories =
  QCheck.Test.make ~name:"solver = enumerator on random histories"
    ~count:300
    (Helpers.arb_history ~labeled_allowed:`Mixed ())
    (fun h ->
      agree_everywhere ~what:"random" h;
      true)

let prop_random_separated =
  (* The separated discipline exercises the labeled models' sync phase
     (Labeled_sc / Labeled_total availability and prefix legality). *)
  QCheck.Test.make ~name:"solver = enumerator under separated labels"
    ~count:200
    (Helpers.arb_history ~labeled_allowed:`Separated ())
    (fun h ->
      agree_everywhere ~what:"separated" h;
      true)

(* ---------------- the co-pump family ---------------- *)

let co_pump k =
  H.make
    [
      List.init k (fun i -> H.write "x" (i + 1));
      List.init k (fun i -> H.write "x" (k + i + 1));
      [ H.read "x" 2; H.read "x" 1 ];
    ]

let co_pump_family () =
  check Alcotest.bool "k=1 allowed under sc" true
    (solve_allows (model "sc") (co_pump 1));
  for k = 2 to 5 do
    check Alcotest.bool
      (Printf.sprintf "k=%d forbidden under sc" k)
      false
      (solve_allows (model "sc") (co_pump k));
    agree_everywhere ~what:(Printf.sprintf "co-pump(%d)" k) (co_pump k)
  done

(* The crossover the solver exists for.  Both read values are written
   once, so the reads-from map is forced and the whole refutation sits
   in the coherence enumeration: the enumerator checks all C(2k, k)
   interleavings of the two write chains, while the solver derives the
   from-read cycle without building one.  At k = 7 the margin is
   hundreds of times, so one wall-clock sample per engine suffices. *)
let solver_overtakes_enumeration () =
  let sc = model "sc" in
  let timed allows h =
    let t0 = Smem_obs.Clock.now () in
    let got = allows sc h in
    (got, Smem_obs.Clock.elapsed_ns t0)
  in
  let overtaken = ref false in
  for k = 2 to 7 do
    let h = co_pump k in
    let enum, enum_ns = timed enum_allows h in
    let solve, solve_ns = timed solve_allows h in
    check Alcotest.bool (Printf.sprintf "k=%d engines agree" k) enum solve;
    check Alcotest.bool (Printf.sprintf "k=%d forbidden under sc" k) false enum;
    if solve_ns < enum_ns then overtaken := true
  done;
  check Alcotest.bool "solver faster than enumeration for some k" true
    !overtaken

(* ---------------- witnesses and certificates ---------------- *)

(* A witness found by the solver is evidence, not just a verdict: the
   certificate kernel must accept a certificate built from it.  Run
   with the solve engine selected process-wide, then restore. *)
let solver_certificates_verify () =
  Solve.install ();
  Model.set_engine Model.Solve;
  Fun.protect
    ~finally:(fun () -> Model.set_engine Model.Enum)
    (fun () ->
      let n = ref 0 in
      List.iter
        (fun (t : Test.t) ->
          List.iter
            (fun (m : Model.t) ->
              match Cert.certify m t.Test.history with
              | None -> ()
              | Some c -> (
                  incr n;
                  match Kernel.verify c with
                  | Ok _ -> ()
                  | Error e ->
                      Alcotest.failf "%s/%s: kernel rejected: %s" t.Test.name
                        m.Model.key e))
            Registry.certifiable)
        Corpus.all;
      check Alcotest.bool "matrix is non-trivial" true (!n > 100))

let () =
  Alcotest.run "solve"
    [
      ("builtin corpus: solver = enumerator", builtin_corpus_cases);
      ( "generated corpus",
        [ tc "500-test smem-corpus/1 load" generated_corpus_differential ] );
      ( "random histories",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_histories; prop_random_separated ] );
      ( "co-pump",
        [
          tc "forbidden for k >= 2, allowed at k = 1" co_pump_family;
          tc "solver overtakes enumeration" solver_overtakes_enumeration;
        ] );
      ( "certificates",
        [ tc "solver-engine certificates verify" solver_certificates_verify ]
      );
    ]
