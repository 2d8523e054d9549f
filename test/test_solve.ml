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

let agree_everywhere ?(models = Registry.all) ~what h =
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
            ~models:(Registry.all @ Helpers.composed)
            ~what:t.Test.name t.Test.history))
    Corpus.all

(* The standard load: 500 deduplicated machine-execution tests, every
   model, both engines (the same differential `smem fuzz
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

(* ---------------- labeled orders by prefix ---------------- *)

(* Both engines grow the labeled order of RC_sc and weak ordering one
   operation at a time through [Leaf.step].  The baseline enumerates
   every linear extension and hands each whole to [Leaf.with_sync]
   ([Helpers.reference_witness]); the witnesses must be the same bytes,
   which also pins the order the walk visits legal orders in.  The
   solver decides reads in fail-first order, so its RC_sc witness may
   take another reads-from map: there only the verdict must match. *)
let labeled_models = [ model "wo"; model "rc-sc" ]

let pp_witness h = function
  | None -> "forbidden"
  | Some w -> Format.asprintf "%a" (Witness.pp h) w

let same_as_reference ~what h =
  List.iter
    (fun (m : Model.t) ->
      let p = m.Model.params in
      let reference = Helpers.reference_witness p h in
      let expected = pp_witness h reference in
      let rf_order_free = not (Smem_core.Enum.rf_needed p) in
      List.iter
        (fun (engine, w) ->
          let got = pp_witness h w in
          let same =
            if engine = "enum" || rf_order_free then got = expected
            else Option.is_some w = Option.is_some reference
          in
          if not same then
            Alcotest.failf
              "%s: %s under %s differs from the full enumeration on:\n\
               %s\nexpected:\n%s\ngot:\n%s"
              what m.Model.key engine
              (Format.asprintf "%a" H.pp h)
              expected got)
        [ ("enum", m.Model.witness h); ("solve", Solve.witness m h) ])
    labeled_models

let prop_reference_mixed =
  QCheck.Test.make ~name:"prefix walk = full enumeration, mixed labels"
    ~count:300
    (Helpers.arb_history ~labeled_allowed:`Mixed ())
    (fun h ->
      same_as_reference ~what:"mixed" h;
      true)

let prop_reference_separated =
  QCheck.Test.make ~name:"prefix walk = full enumeration, separated labels"
    ~count:300
    (Helpers.arb_history ~labeled_allowed:`Separated ())
    (fun h ->
      same_as_reference ~what:"separated" h;
      true)

let generated_corpus_reference () =
  let tests = Smem_corpus.Corpus.generate ~seed:42 ~count:2000 () in
  List.iter
    (fun (t : Test.t) -> same_as_reference ~what:t.Test.name t.Test.history)
    tests

let history_of rows =
  match Smem_litmus.Parse.test_of_string ("test t \"\"\n" ^ rows) with
  | Ok t -> t.Test.history
  | Error e -> Alcotest.failf "%a" Smem_litmus.Parse.pp_error e

(* A fully labeled Bakery prefix, seed 1's c00579 ("bakery3/pc-g"): 12
   labeled operations, 3 960 linear extensions, every one of which the
   full enumeration handed to [Leaf.with_sync].  The steps refute each
   before it completes. *)
let bakery_prefix =
  history_of
    "p0: w* l0 1 ; r* l1 0 ; r* l2 0 ; r* l3 0 ; w* l1 1 ; w* l0 0 ; r* l4 0\n\
     p1: w* l4 1 ; r* l1 0 ; r* l2 0 ; r* l3 0\n\
     p2: w* l5 1\n"

let sync_orders_counted () =
  let h = bakery_prefix in
  List.iter
    (fun (m : Model.t) ->
      List.iter
        (fun (engine, witness) ->
          Smem_core.Stats.reset ();
          let w0 = Gc.minor_words () in
          let allowed = Option.is_some (witness m h) in
          let words = Gc.minor_words () -. w0 in
          let s = Smem_core.Stats.snapshot () in
          let what = m.Model.key ^ " under " ^ engine in
          check Alcotest.bool (what ^ " forbids it") false allowed;
          check Alcotest.int (what ^ ": complete labeled orders") 0
            s.Smem_core.Stats.sync_orders;
          (* The full enumeration allocated 2.91 M (wo) and 355 k
             (rc-sc) minor words here; the walk about 3 k and 5 k.
             The solver runs the same walk. *)
          if words > 20_000. then
            Alcotest.failf "%s allocates %.0f minor words (bound 20 000)"
              what words)
        [
          ("enum", fun (m : Model.t) -> m.Model.witness);
          ("solve", Solve.witness);
        ])
    labeled_models;
  Smem_core.Stats.reset ()

(* Weak ordering's value rule covers only locations whose writes are
   all labeled: here the ordinary [w x 1] lets [r* x 1] precede
   [w* x 2] in the labeled order and still read 1 in its view. *)
let value_rule_skips_ordinary_writes () =
  let h = history_of "p0: w x 1 ; w* x 2\np1: r* x 1\n" in
  let wo = model "wo" in
  check Alcotest.bool "wo allows it (enum)" true (enum_allows wo h);
  check Alcotest.bool "wo allows it (solve)" true (solve_allows wo h)

(* The placed set is one word over the labeled operations. *)
let labeled_word_limit () =
  let labeled n =
    H.make [ List.init n (fun i -> H.write ~labeled:true "x" (i + 1)) ]
  in
  let wo = model "wo" in
  check Alcotest.bool "62 labeled operations" true
    (enum_allows wo (labeled (Sys.int_size - 1)));
  match enum_allows wo (labeled Sys.int_size) with
  | _ -> Alcotest.fail "63 labeled operations: expected View.Too_large"
  | exception Smem_core.View.Too_large { limit; _ } ->
      check Alcotest.int "limit" (Sys.int_size - 1) limit

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
              incr n;
              match Kernel.verify (Cert.make m t.Test.history) with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "%s/%s: kernel rejected: %s" t.Test.name
                    m.Model.key e)
            Registry.all)
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
      ( "labeled orders",
        List.map QCheck_alcotest.to_alcotest
          [ prop_reference_mixed; prop_reference_separated ]
        @ [
            tc "2000-test generated corpus = full enumeration"
              generated_corpus_reference;
            tc "bakery prefix: no complete labeled order" sync_orders_counted;
            tc "wo value rule skips ordinary writes"
              value_rule_skips_ordinary_writes;
            tc "labeled word limit" labeled_word_limit;
          ] );
      ( "co-pump",
        [
          tc "forbidden for k >= 2, allowed at k = 1" co_pump_family;
          tc "solver overtakes enumeration" solver_overtakes_enumeration;
        ] );
      ( "certificates",
        [ tc "solver-engine certificates verify" solver_certificates_verify ]
      );
    ]
