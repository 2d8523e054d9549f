(* Tests of the memory-model checkers:

   - every stated expectation of the litmus corpus, as one test case per
     (test, model) pair — this covers the paper's Figures 1-4 and the §5
     Bakery result;
   - containment properties on random histories (the arrows of
     Figure 5, plus the extended family);
   - structural properties of witnesses;
   - the TSO/SPARC-TSO relationship, including the store-forwarding
     counterexample documented in EXPERIMENTS.md, and tso-op's quadruple
     against the store-buffer replay it replaced. *)

module H = Smem_core.History
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Test = Smem_litmus.Test
module Corpus = Smem_litmus.Corpus
module Helpers = Smem_testlib.Helpers

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let model key =
  match Registry.find key with
  | Some m -> m
  | None -> Alcotest.failf "unknown model %s" key

let allows key h = Model.check (model key) h

(* ---------------- corpus expectations ---------------- *)

let corpus_cases =
  List.concat_map
    (fun (test : Test.t) ->
      List.map
        (fun (key, verdict) ->
          tc
            (Printf.sprintf "%s / %s" test.Test.name key)
            (fun () ->
              let got = allows key test.Test.history in
              check Alcotest.bool "verdict" (Smem_api.Verdict.bool_of_status verdict) got))
        test.Test.expectations)
    Corpus.all

(* ---------------- paper-specific checks ---------------- *)

(* §3.2 exhibits explicit TSO views for Figure 1; the witness machinery
   must produce views with the same write order in every view. *)
let tso_views_share_write_order () =
  let h = Corpus.fig1_tso.Test.history in
  match Model.witness_of (model "tso") h with
  | None -> Alcotest.fail "fig1 must be TSO"
  | Some w ->
      let write_projection (_, seq) =
        List.filter (fun id -> Smem_core.Op.is_write (H.op h id)) seq
      in
      let projections = List.map write_projection w.Smem_core.Witness.views in
      (match projections with
      | first :: rest ->
          List.iter
            (fun proj ->
              check (Alcotest.list Alcotest.int) "same write order" first proj)
            rest
      | [] -> Alcotest.fail "no views")

(* Witnesses of engine-B models are independently validated. *)
let pram_witness_valid () =
  let h = Corpus.fig3_pram_not_tso.Test.history in
  match Model.witness_of (model "pram") h with
  | None -> Alcotest.fail "fig3 must be PRAM"
  | Some w ->
      List.iter
        (fun (p, seq) ->
          check Alcotest.bool "population" true
            (Helpers.correct_view_population h p seq);
          check Alcotest.bool "legal" true (Helpers.legal_sequence h seq);
          check Alcotest.bool "po respected" true
            (Helpers.respects h (Smem_core.Orders.po h) seq))
        w.Smem_core.Witness.views

let causal_witness_valid () =
  let h = Corpus.fig4_causal_not_tso.Test.history in
  match Model.witness_of (model "causal") h with
  | None -> Alcotest.fail "fig4 must be causal"
  | Some w ->
      List.iter
        (fun (p, seq) ->
          check Alcotest.bool "population" true
            (Helpers.correct_view_population h p seq);
          check Alcotest.bool "legal" true (Helpers.legal_sequence h seq);
          (* causal ⊇ po *)
          check Alcotest.bool "po respected" true
            (Helpers.respects h (Smem_core.Orders.po h) seq))
        w.Smem_core.Witness.views

(* The store-forwarding counterexample: the paper's view-based TSO
   rejects sb+rfi while SPARC TSO and the store-buffer machine accept
   it — the paper's §3.2 equivalence claim fails on this history. *)
let tso_forwarding_divergence () =
  let h =
    match Corpus.find "sb+rfi" with
    | Some t -> t.Test.history
    | None -> Alcotest.fail "sb+rfi missing from corpus"
  in
  check Alcotest.bool "view-based TSO forbids" false
    (Model.check (model "tso") h);
  check Alcotest.bool "SPARC TSO allows" true (Model.check (model "tso-op") h);
  check Alcotest.bool "store-buffer replay allows" true
    (Smem_testlib.Tso_operational.check h)

(* tso-op is SPARC TSO as a quadruple, and the store-buffer replay it
   replaced (test/helpers) is its reference: the two agree on every
   history of the standard scopes, of the labeled 2x2 scope and of the
   built-in corpus.  The last history keeps an older own write to x
   buffered behind the one its read is forwarded: a rule that ordered
   that older write before the read would forbid it, since processor
   2 sees y written before the first write to x reaches memory. *)
let tso_op_equals_replay () =
  let module Enumerate = Smem_lattice.Enumerate in
  let tso_op = model "tso-op" in
  let agree h =
    if Model.check tso_op h <> Smem_testlib.Tso_operational.check h then
      Alcotest.failf "tso-op and the store-buffer replay disagree on %a" H.pp
        h
  in
  List.iter
    (fun scope -> Enumerate.iter scope ~f:agree)
    (Smem_lattice.Classify.standard_scopes
    @ [
        { Enumerate.procs = [ 2; 2 ]; nlocs = 2; max_value = 1; labeled = true };
      ]);
  List.iter (fun (t : Test.t) -> agree t.Test.history) Corpus.all;
  let older_write_buffered =
    H.make
      [
        [ H.write "x" 1; H.write "x" 2; H.read "x" 2; H.read "y" 0 ];
        [ H.write "y" 1 ];
        [ H.read "y" 1; H.read "x" 0 ];
      ]
  in
  agree older_write_buffered;
  check Alcotest.bool "an older own write stays buffered" true
    (Model.check tso_op older_write_buffered)

(* EXPERIMENTS.md finding 7: TSO is not contained in §7's coherent
   causal memory, though it is in causal memory and in coherence.
   Coherence orders the two y writes one way or the other, and either
   way full program order carries a write past the other processor's
   read of its location; TSO's reads bypass their processor's earlier
   writes.  The witness needs three locations, which is why no
   two-location exhaustive scope finds it. *)
let tso_not_within_causal_coh () =
  let h =
    H.make
      [
        [ H.write "x" 1; H.write "y" 2; H.read "z" 0 ];
        [ H.write "z" 1; H.write "y" 1; H.read "x" 0 ];
      ]
  in
  List.iter
    (fun (key, want) -> check Alcotest.bool key want (allows key h))
    [
      ("tso", true);
      ("causal", true);
      ("coh", true);
      ("pc", true);
      ("causal-coh", false);
      ("sc", false);
    ]

(* An empty-ish history is allowed by everything. *)
let trivial_history_everywhere () =
  let h = H.make [ [ H.write "x" 1 ]; [ H.read "x" 0 ] ] in
  List.iter
    (fun (m : Model.t) ->
      check Alcotest.bool (m.Model.key ^ " allows trivial") true (Model.check m h))
    Registry.all

(* A read of a value nobody wrote is forbidden by everything. *)
let unwritable_value_nowhere () =
  let h = H.make [ [ H.write "x" 1 ]; [ H.read "x" 7 ] ] in
  List.iter
    (fun (m : Model.t) ->
      check Alcotest.bool (m.Model.key ^ " forbids junk") false (Model.check m h))
    Registry.all

(* Single-processor histories: every model must coincide with plain
   sequential semantics. *)
let single_processor_agreement () =
  let legal = H.make [ [ H.write "x" 1; H.read "x" 1; H.write "x" 2; H.read "x" 2 ] ] in
  let illegal = H.make [ [ H.write "x" 1; H.read "x" 0 ] ] in
  List.iter
    (fun (m : Model.t) ->
      check Alcotest.bool (m.Model.key ^ " sequential ok") true (Model.check m legal);
      check Alcotest.bool
        (m.Model.key ^ " sequential violation caught")
        false (Model.check m illegal))
    Registry.all

(* ---------------- containment properties ---------------- *)

let containment ?(nlocs = 2) ~name stronger weaker ~labeled () =
  let arb = Helpers.arb_history ~labeled_allowed:labeled ~nlocs () in
  QCheck.Test.make ~name ~count:150 arb (fun h ->
      if Model.check (model stronger) h then Model.check (model weaker) h else true)

let containment_props =
  [
    containment ~name:"SC ⊆ TSO" "sc" "tso" ~labeled:`No ();
    containment ~name:"TSO ⊆ PC" "tso" "pc" ~labeled:`No ();
    containment ~name:"TSO ⊆ Causal" "tso" "causal" ~labeled:`No ();
    containment ~name:"PC ⊆ PRAM" "pc" "pram" ~labeled:`No ();
    containment ~name:"Causal ⊆ PRAM" "causal" "pram" ~labeled:`No ();
    containment ~name:"PRAM ⊆ Slow" "pram" "slow" ~labeled:`No ();
    containment ~name:"Slow ⊆ Local" "slow" "local" ~labeled:`No ();
    containment ~name:"PC ⊆ Coherence" "pc" "coh" ~labeled:`No ();
    containment ~name:"PC-G ⊆ PRAM" "pc-g" "pram" ~labeled:`No ();
    containment ~name:"PC-G ⊆ Coherence" "pc-g" "coh" ~labeled:`No ();
    containment ~name:"CausalCoh ⊆ Causal" "causal-coh" "causal" ~labeled:`No ();
    containment ~name:"CausalCoh ⊆ Coherence" "causal-coh" "coh" ~labeled:`No ();
    containment ~name:"SC ⊆ CausalCoh" "sc" "causal-coh" ~labeled:`No ();
    containment ~name:"CausalCoh ⊆ PC-G" "causal-coh" "pc-g" ~labeled:`No ();
    containment ~nlocs:3 ~name:"SC ⊆ RC_sc (separated sync)" "sc" "rc-sc"
      ~labeled:`Separated ();
    containment ~name:"RC_sc ⊆ RC_pc (mixed labels)" "rc-sc" "rc-pc"
      ~labeled:`Mixed ();
    containment ~name:"TSO ⊆ TSO-operational" "tso" "tso-op" ~labeled:`No ();
    containment ~name:"SC ⊆ WO (mixed labels)" "sc" "wo" ~labeled:`Mixed ();
    (* The extended families: partition consistency sits between PC-G
       and coherence (finer partitions are weaker), the session
       guarantees weaken monotonically as flags are dropped, and PRAM
       implies the three same-session guarantees. *)
    containment ~name:"PC-G ⊆ PC-part(2)" "pc-g" "pc-part(blocks=2)"
      ~labeled:`No ();
    containment ~nlocs:3 ~name:"PC-part(2) ⊆ PC-part(4)" "pc-part(blocks=2)"
      "pc-part(blocks=4)" ~labeled:`No ();
    containment ~name:"PC-part(4) ⊆ Coherence" "pc-part(blocks=4)" "coh"
      ~labeled:`No ();
    containment ~name:"PRAM ⊆ Session(ryw,mr,mw)" "pram" "session(ryw,mr,mw)"
      ~labeled:`No ();
    containment ~name:"SC ⊆ Session(ryw,mr,mw,wfr)" "sc"
      "session(ryw,mr,mw,wfr)" ~labeled:`No ();
    containment ~name:"Session(ryw,mr,mw,wfr) ⊆ Session(ryw,mr,mw)"
      "session(ryw,mr,mw,wfr)" "session(ryw,mr,mw)" ~labeled:`No ();
    containment ~name:"Session(ryw,mr,mw) ⊆ Session(ryw,mr)"
      "session(ryw,mr,mw)" "session(ryw,mr)" ~labeled:`No ();
  ]

(* The family extremes collapse onto catalogued models, extensionally:
   one partition block is PC-G (the global acyclicity pre-check PC-G
   also runs is redundant there), singleton blocks are coherence, and
   object-causal over register-only histories — the generator emits no
   queue or counter operations — is exactly causal. *)
let family_extremes_props =
  let equiv ~name a b arb =
    QCheck.Test.make ~name ~count:150 arb (fun h ->
        Model.check (model a) h = Model.check (model b) h)
  in
  [
    equiv ~name:"PC-part(1) = PC-G" "pc-part(blocks=1)" "pc-g"
      (Helpers.arb_history ());
    equiv ~name:"PC-part(64) = Coherence (singleton blocks)"
      "pc-part(blocks=64)" "coh"
      (Helpers.arb_history ~nlocs:3 ());
    equiv ~name:"Causal-obj = Causal on register histories" "causal-obj"
      "causal" (Helpers.arb_history ());
    (* The named partitions: one block naming every location is PC-G;
       x and y in blocks of their own, with the unlisted z given a
       singleton block, is coherence. *)
    equiv ~name:"PC-part(x.y.z) = PC-G" "pc-part(partition=x.y.z)" "pc-g"
      (Helpers.arb_history ~nlocs:3 ());
    equiv ~name:"PC-part(x|y) = Coherence (z unlisted)"
      "pc-part(partition=x|y)" "coh"
      (Helpers.arb_history ~nlocs:3 ());
  ]

(* PRAM witnesses are always population-correct, legal, po-respecting. *)
let prop_pram_witness =
  QCheck.Test.make ~name:"PRAM witnesses are valid" ~count:200
    (Helpers.arb_history ()) (fun h ->
      match Model.witness_of (model "pram") h with
      | None -> true
      | Some w ->
          List.for_all
            (fun (p, seq) ->
              Helpers.correct_view_population h p seq
              && Helpers.legal_sequence h seq
              && Helpers.respects h (Smem_core.Orders.po h) seq)
            w.Smem_core.Witness.views)

(* SC witnesses are legal total orders of all operations respecting po. *)
let prop_sc_witness =
  QCheck.Test.make ~name:"SC witnesses are valid" ~count:200
    (Helpers.arb_history ()) (fun h ->
      match Model.witness_of (model "sc") h with
      | None -> true
      | Some w -> (
          match w.Smem_core.Witness.views with
          | [ (_, seq) ] ->
              List.length seq = H.nops h
              && Helpers.legal_sequence h seq
              && Helpers.respects h (Smem_core.Orders.po h) seq
          | _ -> false))

(* Anything the SC checker accepts, the dumbest possible reference — a
   brute-force enumeration of all interleavings with a value check —
   also accepts, and vice versa. *)
let sc_reference h =
  let po = Smem_core.Orders.po h in
  let found = ref false in
  ignore
    (Helpers.linear_extensions po ~f:(fun order ->
         if Helpers.legal_sequence h (Array.to_list order) then begin
           found := true;
           true
         end
         else false));
  !found

(* §6: atomic memory coincides with SC exactly when no timing
   information is present — generated histories never carry it. *)
let prop_atomic_is_sc_untimed =
  QCheck.Test.make ~name:"Atomic = SC on untimed histories" ~count:200
    (Helpers.arb_history ()) (fun h ->
      Model.check (model "atomic") h = Model.check (model "sc") h)

let prop_atomic_subset_sc_timed =
  QCheck.Test.make ~name:"Atomic ⊆ SC on timed histories" ~count:200
    (Helpers.arb_timed_history ()) (fun h ->
      if Model.check (model "atomic") h then
        Model.check (model "sc") h
      else true)

let prop_sc_reference =
  QCheck.Test.make ~name:"SC checker = brute-force interleavings" ~count:200
    (Helpers.arb_history ())
    (fun h -> Model.check (model "sc") h = sc_reference h)

(* The view-based TSO is equivalent to the operational machine on
   histories without same-location read-back (the divergence is
   store-forwarding; restricting reads to values of other processors'
   writes removes it).  Rather than shaping the generator, we assert the
   one-sided containment here and pin the known counterexample above. *)

(* §2/§7: composing the three parameters names the built-in models'
   quadruples exactly — the paper's "the parameters can be varied to
   describe the existing memories" as an identity of definitions. *)
let composed_quadruples =
  let module B = Smem_core.Build in
  List.map
    (fun (key, operations, mutual, orderings) ->
      tc (Printf.sprintf "composed %s = built-in %s" key key) (fun () ->
          let composed =
            B.make ~key:("c-" ^ key) ~name:"composed" ~operations ~mutual
              ~orderings ()
          in
          check Alcotest.bool "same quadruple" true
            (composed.Model.params = (model key).Model.params)))
    Model.
      [
        ("sc", `All_ops, `Total_agreement, [ Program_order ]);
        ( "tso",
          `Writes_of_others,
          `Global_write_order,
          [ Partial_program_order ] );
        ("pc", `Writes_of_others, `Coherence, [ Semi_causal ]);
        ("causal", `Writes_of_others, `No_agreement, [ Causal_order ]);
        ("pram", `Writes_of_others, `No_agreement, [ Program_order ]);
        (* a set: order and repetition do not matter *)
        ( "slow",
          `Writes_of_others,
          `No_agreement,
          [ Po_loc; Own_program_order; Po_loc ] );
        ("local", `Writes_of_others, `No_agreement, [ Own_program_order ]);
      ]

(* PC-G is the one composition that is not a catalogued quadruple: the
   composer's coherence views are legal by writer, PC-G's by value. *)
let composed_pcg =
  let composed =
    Smem_core.Build.make ~key:"c-pcg" ~name:"composed PC-G"
      ~operations:`Writes_of_others ~mutual:`Coherence
      ~orderings:[ Model.Program_order ] ()
  in
  QCheck.Test.make ~name:"composed pc-g = built-in pc-g" ~count:120
    (Helpers.arb_history ()) (fun h ->
      Model.check composed h = Model.check (model "pc-g") h)

let build_validation () =
  let module B = Smem_core.Build in
  Alcotest.check_raises "total agreement needs all ops"
    (Invalid_argument "Build.make: total agreement requires all operations in views")
    (fun () ->
      ignore
        (B.make ~key:"x" ~name:"x" ~operations:`Writes_of_others
           ~mutual:`Total_agreement ~orderings:[ Model.Program_order ] ()));
  Alcotest.check_raises "semi-causality needs coherence"
    (Invalid_argument "Build.make: semi-causality needs a coherence witness")
    (fun () ->
      ignore
        (B.make ~key:"x" ~name:"x" ~operations:`Writes_of_others
           ~mutual:`No_agreement ~orderings:[ Model.Semi_causal ] ()));
  Alcotest.check_raises "own-po needs per-processor views"
    (Invalid_argument
       "Build.make: own-po needs per-processor views, and total agreement \
        has one shared view")
    (fun () ->
      ignore
        (B.make ~key:"x" ~name:"x" ~operations:`All_ops
           ~mutual:`Total_agreement ~orderings:[ Model.Own_program_order ] ()));
  check Alcotest.bool "parsers accept CLI spellings" true
    (B.parse_operations "writes" = Ok `Writes_of_others
    && B.parse_mutual "global-writes" = Ok `Global_write_order
    && B.parse_ordering "semi-causal" = Ok Model.Semi_causal);
  check Alcotest.bool "the ordering parser inverts the renderer" true
    (List.for_all
       (fun o -> B.parse_ordering (Model.ordering_to_string o) = Ok o)
       B.composable);
  check Alcotest.bool "parsers reject junk and non-composable bases" true
    (Result.is_error (B.parse_ordering "junk")
    && Result.is_error (B.parse_ordering "real-time"));
  check Alcotest.int "composed models under test" 42
    (List.length Helpers.composed)

(* Generic invariant: every witness any model returns is made of
   value-legal views — a read in a view always returns the most recent
   write's value (or 0).  This holds across both engines and every
   model because engine A places reads inside their writer's coherence
   window and engine B checks legality during construction. *)
let prop_all_witnesses_legal =
  QCheck.Test.make ~name:"every model's witness views are legal" ~count:60
    (Helpers.arb_history ~labeled_allowed:`Mixed ~max_procs:3 ~max_ops:2 ())
    (fun h ->
      List.for_all
        (fun (m : Model.t) ->
          match m.Model.witness h with
          | None -> true
          | Some w ->
              List.for_all
                (fun (_, seq) -> Helpers.legal_sequence h seq)
                w.Smem_core.Witness.views)
        Registry.all)

(* A verdict-only check formats no witness notes: Model.check tso on
   Figure 1 allocated 4 264 minor words while it rendered them, about
   1 600 since. *)
let check_formats_no_notes () =
  let h = Corpus.fig1_tso.Test.history in
  let tso = model "tso" in
  ignore (Model.check tso h);
  let w0 = Gc.minor_words () in
  let allowed = Model.check tso h in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool "fig1 allowed under tso" true allowed;
  if words > 2_500. then
    Alcotest.failf
      "Model.check tso fig1 allocates %.0f minor words (bound 2 500)" words

let () =
  Alcotest.run "models"
    [
      ("corpus expectations", corpus_cases);
      ( "paper specifics",
        [
          tc "TSO witness views share one write order" tso_views_share_write_order;
          tc "PRAM witness is valid" pram_witness_valid;
          tc "causal witness is valid" causal_witness_valid;
          tc "TSO store-forwarding divergence" tso_forwarding_divergence;
          tc "tso-op = store-buffer replay" tso_op_equals_replay;
          tc "TSO not within causal-coh (three locations)"
            tso_not_within_causal_coh;
          tc "trivial history allowed everywhere" trivial_history_everywhere;
          tc "unwritable value forbidden everywhere" unwritable_value_nowhere;
          tc "single-processor agreement" single_processor_agreement;
          tc "Build validation and parsers" build_validation;
          tc "Model.check formats no witness notes" check_formats_no_notes;
        ] );
      ( "containment properties",
        List.map QCheck_alcotest.to_alcotest
          (containment_props @ family_extremes_props
          @ [
              prop_pram_witness;
              prop_sc_witness;
              prop_sc_reference;
              prop_atomic_is_sc_untimed;
              prop_atomic_subset_sc_timed;
              prop_all_witnesses_legal;
            ]
          @ [ composed_pcg ])
        @ composed_quadruples );
    ]
