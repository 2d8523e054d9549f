(* Tests of verdict certificates and the independent checking kernel:
   serialization round-trips in both formats, kernel acceptance of every
   engine-emitted certificate over the corpus, and adversarial rejection
   of hand-mutated certificates (the kernel must not be foolable by
   forged witnesses or forged frontiers). *)

module H = Smem_core.History
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Diagnose = Smem_core.Diagnose
module Test = Smem_litmus.Test
module Corpus = Smem_litmus.Corpus
module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let model key =
  match Registry.find key with
  | Some m -> m
  | None -> Alcotest.failf "model %s missing" key

(* Every corpus test certified under every model — the same matrix
   `smem corpus --certify` emits. *)
let corpus_certs =
  lazy
    (List.concat_map
       (fun (t : Test.t) ->
         List.map
           (fun m ->
             ( t.Test.name,
               m.Model.key,
               Cert.make m ~name:t.Test.name t.Test.history ))
           Registry.all)
       Corpus.all)

(* ---------------- serialization ---------------- *)

let roundtrip format =
  List.iter
    (fun (test, mkey, c) ->
      let s = Cert.to_string ~format c in
      match Cert.parse s with
      | Error e -> Alcotest.failf "%s/%s: reparse failed: %s" test mkey e
      | Ok c' ->
          if c <> c' then
            Alcotest.failf "%s/%s: round-trip changed the certificate" test
              mkey)
    (Lazy.force corpus_certs)

let roundtrip_sexp () = roundtrip `Sexp
let roundtrip_json () = roundtrip `Json

let parse_rejects_garbage () =
  List.iter
    (fun s ->
      match Cert.parse s with
      | Ok _ -> Alcotest.failf "accepted garbage %S" s
      | Error _ -> ())
    [
      "";
      "(certificate)";
      "{\"version\":1}";
      "(certificate (version 99) (model sc) (history) (verdict allowed) \
       (evidence (views)))";
      "{\"version\":1,\"model\":\"sc\",\"history\":[],\"verdict\":\"maybe\",\
       \"evidence\":{\"rf_maps\":1,\"co_orders\":1}}";
    ]

(* ---------------- kernel accepts the engine's certificates -------- *)

let kernel_accepts_corpus () =
  let n = ref 0 in
  List.iter
    (fun (test, mkey, c) ->
      incr n;
      match Kernel.verify c with
      | Ok a ->
          if H.nops (Cert.history c) <= Kernel.default_max_search_ops then
            check Alcotest.bool
              (Printf.sprintf "%s/%s complete" test mkey)
              true (a = Kernel.Complete)
      | Error e -> Alcotest.failf "%s/%s rejected: %s" test mkey e)
    (Lazy.force corpus_certs);
  check Alcotest.bool "matrix is non-trivial" true (!n > 100)

(* ---------------- adversarial mutations ---------------- *)

(* Helpers to certify an in-test history and tear its evidence open. *)
let certified m h = Cert.make m h

let witness_of c =
  match c.Cert.evidence with
  | Cert.Witness { views; rf; sync; notes } -> (views, rf, sync, notes)
  | Cert.Frontier _ -> Alcotest.fail "expected a witness certificate"

let with_views c views =
  let _, rf, sync, notes = witness_of c in
  { c with Cert.evidence = Cert.Witness { views; rf; sync; notes } }

let rejected name c =
  match Kernel.verify c with
  | Ok _ -> Alcotest.failf "%s: kernel accepted a mutated certificate" name
  | Error _ -> ()

(* ids proc-major: 0 = w x 1, 1 = w x 2, 2 = r x 1.  SC allows it with
   the single view  w1 · r · w2. *)
let h_stale = H.make [ [ H.write "x" 1; H.write "x" 2 ]; [ H.read "x" 1 ] ]

let mutate_stale_read () =
  let c = certified (model "sc") h_stale in
  check Alcotest.bool "baseline accepted" true
    (Result.is_ok (Kernel.verify c));
  (* Move the read after the overwriting w x 2: po survives, but the
     read now returns an overwritten value.  The kernel's legality
     replay must notice. *)
  rejected "stale read" (with_views c [ (-1, [ 0; 1; 2 ]) ])

let mutate_reordered_po () =
  let c = certified (model "sc") h_stale in
  (* w x 2 placed before its program-order predecessor w x 1. *)
  rejected "reordered po" (with_views c [ (-1, [ 1; 0; 2 ]) ])

let mutate_truncated_view () =
  let c = certified (model "sc") h_stale in
  rejected "truncated view" (with_views c [ (-1, [ 0; 2 ]) ])

(* Store buffering under PRAM (allowed): per-processor views of own
   ops + all writes.  ids: 0 = w x 1, 1 = r y 0, 2 = w y 1, 3 = r x 0. *)
let h_sb =
  H.make [ [ H.write "x" 1; H.read "y" 0 ]; [ H.write "y" 1; H.read "x" 0 ] ]

let mutate_scope_violation () =
  let c = certified (model "pram") h_sb in
  check Alcotest.bool "baseline accepted" true
    (Result.is_ok (Kernel.verify c));
  let views, _, _, _ = witness_of c in
  (* Smuggle processor 1's read (id 3) into processor 0's view: reads of
     other processors are outside PRAM's view population. *)
  let views =
    List.map
      (fun (p, seq) -> if p = 0 then (p, seq @ [ 3 ]) else (p, seq))
      views
  in
  rejected "scope violation" (with_views c views)

let mutate_broken_coherence () =
  (* Two writes to x on different processors; PC requires every view to
     order them the same way. *)
  let h =
    H.make
      [ [ H.write "x" 1 ]; [ H.write "x" 2 ]; [ H.read "x" 1; H.read "x" 2 ] ]
  in
  let c = certified (model "pc") h in
  check Alcotest.bool "baseline accepted" true
    (Result.is_ok (Kernel.verify c));
  let views, _, _, _ = witness_of c in
  (* Flip the two writes (ids 0 and 1) in processor 0's view only. *)
  let flip seq =
    List.map (function 0 -> 1 | 1 -> 0 | id -> id) seq
  in
  let views =
    List.map (fun (p, seq) -> if p = 0 then (p, flip seq) else (p, seq)) views
  in
  rejected "broken coherence" (with_views c views)

let mutate_forged_frontier () =
  let c = certified (model "sc") h_sb in
  check Alcotest.bool "sb forbidden under sc" true
    (c.Cert.verdict = Cert.Forbidden);
  (match c.Cert.evidence with
  | Cert.Frontier { rf_maps; co_orders } ->
      rejected "forged frontier"
        {
          c with
          Cert.evidence = Cert.Frontier { rf_maps = rf_maps + 1; co_orders };
        }
  | Cert.Witness _ -> Alcotest.fail "expected a frontier certificate");
  (* Evidence kind contradicting the verdict is also rejected. *)
  rejected "verdict/evidence mismatch" { c with Cert.verdict = Cert.Allowed }

let mutate_forged_forbidden () =
  (* A correct frontier summary attached to a false forbidden claim:
     the history IS sc-allowed, so independent enumeration must find a
     witness and reject. *)
  let rf_maps, co_orders = Diagnose.candidate_space h_stale in
  let c = certified (model "sc") h_stale in
  rejected "forged forbidden verdict"
    {
      c with
      Cert.verdict = Cert.Forbidden;
      evidence = Cert.Frontier { rf_maps; co_orders };
    }

(* ---------------- store forwarding ---------------- *)

let corpus_history name =
  match Corpus.find name with
  | Some t -> t.Test.history
  | None -> Alcotest.failf "corpus test %s missing" name

(* tso-op is SPARC TSO as a quadruple: sb+rfi, which needs each own read
   forwarded from the store buffer, is allowed with a witness the kernel
   re-checks, and mp is refuted by the kernel's own search. *)
let tso_op_certifies () =
  List.iter
    (fun (name, verdict) ->
      let c = certified (model "tso-op") (corpus_history name) in
      check Alcotest.bool (name ^ " verdict") true (c.Cert.verdict = verdict);
      match Kernel.verify c with
      | Ok a ->
          check Alcotest.bool (name ^ " complete") true (a = Kernel.Complete)
      | Error e -> Alcotest.failf "%s: kernel rejected: %s" name e)
    [ ("sb+rfi", Cert.Allowed); ("mp", Cert.Forbidden) ]

(* Every tso-op cell of a generated corpus certifies, and the kernel
   re-checks it: completely up to its search cap. *)
let tso_op_certifies_generated () =
  let tso_op = model "tso-op" in
  List.iter
    (fun (t : Test.t) ->
      let c = certified tso_op t.Test.history in
      match Kernel.verify c with
      | Ok a ->
          if H.nops t.Test.history <= Kernel.default_max_search_ops then
            check Alcotest.bool (t.Test.name ^ " complete") true
              (a = Kernel.Complete)
      | Error e -> Alcotest.failf "%s: kernel rejected: %s" t.Test.name e)
    (Smem_corpus.Corpus.generate ~seed:42 ~count:500 ())

(* ids: 0 = w x 1, 1 = w x 1, 2 = r x 1, all on processor 0.  The read
   is forwarded the latest write, id 1.  Re-pointed at the older id 0
   and placed between the two, a replay without the value axiom's
   buffer would accept it: memory holds id 0 there. *)
let mutate_forged_forwarding () =
  let h = H.make [ [ H.write "x" 1; H.write "x" 1; H.read "x" 1 ] ] in
  let c = certified (model "tso-op") h in
  check Alcotest.bool "baseline accepted" true
    (Result.is_ok (Kernel.verify c));
  let _, _, sync, notes = witness_of c in
  rejected "forwarded read re-pointed at an older own write"
    {
      c with
      Cert.evidence =
        Cert.Witness
          { views = [ (0, [ 0; 2; 1 ]) ]; rf = [ (2, 0) ]; sync; notes };
    }

(* ids: 0 = w x 1, 1 = r x 2 on processor 0; 2 = w x 2 on processor 1.
   The read is not forwarded (its writer is not its processor's), so
   its own earlier write to x must precede it.  Placed before it,
   straight after its writer, the read passes a replay without the
   buffer, and the views agree on the write order 2, 0. *)
let mutate_read_before_own_write () =
  let h = H.make [ [ H.write "x" 1; H.read "x" 2 ]; [ H.write "x" 2 ] ] in
  let c = certified (model "tso-op") h in
  check Alcotest.bool "baseline accepted" true
    (Result.is_ok (Kernel.verify c));
  rejected "read placed before its own earlier write"
    (with_views c [ (0, [ 2; 1; 0 ]); (1, [ 2; 0 ]) ])

(* ---------------- the extended families ---------------- *)

(* Certificates for on-demand family instances — resolved through the
   reference grammar, not only the catalogued exemplars — must verify,
   in both verdict polarities. *)
let new_family_certs () =
  let mp =
    match Corpus.find "mp" with
    | Some t -> t.Test.history
    | None -> Alcotest.fail "corpus test mp missing"
  in
  List.iter
    (fun key ->
      let c = certified (model key) mp in
      check Alcotest.bool (key ^ " allowed on mp") true
        (c.Cert.verdict = Cert.Allowed);
      match Kernel.verify c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: kernel rejected: %s" key e)
    [
      "pc-part(blocks=2)";
      "pc-part(blocks=3)";
      "pc-part(partition=x|y)";
      "session(ryw,mr)";
    ];
  (* Forbidden polarity: mp violates writes-follow-reads (the corpus
     states it), and a lone read of an unwritten overwrite violates
     read-your-writes. *)
  let ryw = H.make [ [ H.write "x" 1; H.read "x" 0 ] ] in
  List.iter
    (fun (key, h) ->
      let c = certified (model key) h in
      check Alcotest.bool (key ^ " forbidden") true
        (c.Cert.verdict = Cert.Forbidden);
      match Kernel.verify c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "forbidden %s cert rejected: %s" key e)
    [
      ( "session(ryw,mr,mw,wfr)",
        (match Corpus.find "mp" with
        | Some t -> t.Test.history
        | None -> Alcotest.fail "corpus test mp missing") );
      ("session(ryw,mr)", ryw);
      ("pc-part(blocks=2)", ryw);
    ]

let mutate_pc_part_scope () =
  (* Only location x exists, so under blocks=2 (and under the named
     partition x|y) every operation lives in block 0; smuggling
     processor 1's read into processor 0's view is a population
     violation the kernel must notice. *)
  List.iter
    (fun key ->
      let c = certified (model key) h_stale in
      check Alcotest.bool (key ^ " baseline accepted") true
        (Result.is_ok (Kernel.verify c));
      let views, _, _, _ = witness_of c in
      let views =
        List.map
          (fun (p, seq) -> if p = 0 then (p, seq @ [ 2 ]) else (p, seq))
          views
      in
      rejected (key ^ " scope violation") (with_views c views))
    [ "pc-part(blocks=2)"; "pc-part(partition=x|y)" ]

let mutate_session_stale_read () =
  (* Population- and order-preserving but value-illegal: force the view
     holding the read (id 2, r x 1) to place it after the overwriting
     w x 2.  The kernel's legality replay must reject. *)
  let c = certified (model "session(ryw,mr)") h_stale in
  check Alcotest.bool "baseline accepted" true
    (Result.is_ok (Kernel.verify c));
  let views, _, _, _ = witness_of c in
  let views =
    List.map
      (fun (p, seq) -> if List.mem 2 seq then (p, [ 0; 1; 2 ]) else (p, seq))
      views
  in
  rejected "session stale read" (with_views c views)

(* A forbidden certificate above the re-search cap must be accepted with
   the explicit [Unverified_cap] status — never silently as [Complete] —
   and raising the cap must upgrade it to a full acceptance. *)
let cap_surfaces_unverified () =
  (* co-pump(4): 10 operations, forbidden under SC (the reads see the
     first chain's writes in inverted order). *)
  let h =
    H.make
      [
        List.init 4 (fun i -> H.write "x" (i + 1));
        List.init 4 (fun i -> H.write "x" (5 + i));
        [ H.read "x" 2; H.read "x" 1 ];
      ]
  in
  let c = certified (model "sc") h in
  check Alcotest.bool "forbidden" true (c.Cert.verdict = Cert.Forbidden);
  (match Kernel.verify c with
  | Ok (Kernel.Unverified_cap { nops; max_search_ops }) ->
      check Alcotest.int "reported nops" (H.nops h) nops;
      check Alcotest.int "reported cap" Kernel.default_max_search_ops
        max_search_ops
  | Ok Kernel.Complete ->
      Alcotest.fail "capped acceptance misreported as Complete"
  | Error e -> Alcotest.failf "kernel rejected: %s" e);
  match Kernel.verify ~max_search_ops:(H.nops h) c with
  | Ok Kernel.Complete -> ()
  | Ok (Kernel.Unverified_cap _) ->
      Alcotest.fail "raised cap still reported Unverified_cap"
  | Error e -> Alcotest.failf "kernel rejected with raised cap: %s" e

(* ---------------- independent search sanity ---------------- *)

let search_matches_engine () =
  List.iter
    (fun (t : Test.t) ->
      if H.nops t.Test.history <= Kernel.default_max_search_ops then
        List.iter
          (fun (m : Model.t) ->
            check Alcotest.bool
              (Printf.sprintf "%s/%s" t.Test.name m.Model.key)
              (Model.check m t.Test.history)
              (Kernel.search m.Model.params t.Test.history))
          (Registry.all @ Smem_testlib.Helpers.composed))
    Corpus.all

let () =
  Alcotest.run "cert"
    [
      ( "serialization",
        [
          tc "sexp round-trip over the corpus" roundtrip_sexp;
          tc "json round-trip over the corpus" roundtrip_json;
          tc "garbage rejected" parse_rejects_garbage;
        ] );
      ( "kernel",
        [
          tc "accepts every engine certificate" kernel_accepts_corpus;
          tc "tso-op certifies sb+rfi, refutes mp" tso_op_certifies;
          tc "tso-op certifies a generated corpus" tso_op_certifies_generated;
          tc "independent search matches the engine" search_matches_engine;
          tc "search cap surfaces Unverified_cap" cap_surfaces_unverified;
          tc "extended-family instances certify" new_family_certs;
        ] );
      ( "adversarial",
        [
          tc "stale read" mutate_stale_read;
          tc "reordered program order" mutate_reordered_po;
          tc "truncated view" mutate_truncated_view;
          tc "view-scope violation" mutate_scope_violation;
          tc "broken coherence" mutate_broken_coherence;
          tc "forged frontier" mutate_forged_frontier;
          tc "forged forbidden verdict" mutate_forged_forbidden;
          tc "pc-part view-scope violation" mutate_pc_part_scope;
          tc "session stale read" mutate_session_stale_read;
          tc "forged forwarded read" mutate_forged_forwarding;
          tc "read before its own write" mutate_read_before_own_write;
        ] );
    ]
