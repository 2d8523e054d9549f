(* Tests of the differential fuzzer: generator reproducibility, shrinker
   guarantees, oracle catches (a deliberately flipped containment must be
   found, shrunk, and replayable from its litmus rendering), and
   campaign determinism. *)

module H = Smem_core.History
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Stats = Smem_core.Stats
module Figure5 = Smem_lattice.Figure5
module Gen = Smem_fuzz.Gen
module Shrink = Smem_fuzz.Shrink
module Oracle = Smem_fuzz.Oracle
module Campaign = Smem_fuzz.Campaign

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let model key =
  match Registry.find key with
  | Some m -> m
  | None -> Alcotest.failf "model %s missing" key

let show_history h = Format.asprintf "%a" H.pp h

(* A small campaign configuration so the suite stays fast. *)
let small = { Gen.default with Gen.count = 40; max_ops = 3 }

(* ---------------- Figure 5 as data ---------------- *)

let guards =
  Alcotest.list
    (Alcotest.testable
       (fun ppf g ->
         Format.pp_print_string ppf
           (match g with
           | Figure5.Registers_only -> "registers-only"
           | Figure5.Acquires_unmixed -> "acquires-unmixed"))
       ( = ))

let registers = [ Figure5.Registers_only ]
let unmixed = [ Figure5.Acquires_unmixed ]

let figure5_closure () =
  let find s w =
    List.find_opt
      (fun (c : Figure5.containment) -> c.stronger = s && c.weaker = w)
      Figure5.containments
  in
  let assert_pair s w want =
    match find s w with
    | None -> Alcotest.failf "missing containment %s <= %s" s w
    | Some c ->
        check guards (Printf.sprintf "%s <= %s guards" s w) want
          c.Figure5.guards
  in
  (* transitive closure of the Hasse diagram, with each guard
     propagated through its edge *)
  assert_pair "sc" "tso" [];
  assert_pair "sc" "pram" [];
  assert_pair "tso" "causal" [];
  assert_pair "rc-sc" "rc-pc" [];
  assert_pair "sc" "rc-sc" unmixed;
  assert_pair "sc" "rc-pc" unmixed;
  check Alcotest.bool "no pc <= causal" true (find "pc" "causal" = None);
  check Alcotest.bool "no tso <= rc-sc" true (find "tso" "rc-sc" = None);
  (* the extended families (PR 10) *)
  assert_pair "sc" "pc-part(blocks=4)" [];
  assert_pair "pc-g" "coh" [];
  assert_pair "pc" "coh" [];
  assert_pair "tso" "session(ryw,mr)" [];
  assert_pair "session(ryw,mr,mw,wfr)" "session(ryw,mr)" [];
  check Alcotest.bool "no causal <= session chain via wfr" true
    (find "causal" "session(ryw,mr,mw,wfr)" = None);
  check Alcotest.bool "no pram <= session(+wfr)" true
    (find "pram" "session(ryw,mr,mw,wfr)" = None);
  check Alcotest.bool "no tso <= pc-g" true (find "tso" "pc-g" = None);
  (* the projection edges *)
  assert_pair "atomic" "local" [];
  assert_pair "atomic" "rc-pc" unmixed;
  assert_pair "sc" "wo" [];
  assert_pair "sc" "causal" [];
  assert_pair "causal-coh" "coh" [];
  assert_pair "pc-g" "local" [];
  (* TSO allows a history causal-coh forbids (EXPERIMENTS.md finding 7) *)
  check Alcotest.bool "no tso <= causal-coh" true (find "tso" "causal-coh" = None);
  check Alcotest.bool "no wo <= rc-pc" true (find "wo" "rc-pc" = None);
  (* every catalogue model is a node *)
  assert_pair "tso" "tso-op" [];
  assert_pair "sc" "tso-op" [];
  assert_pair "atomic" "tso-op" [];
  assert_pair "sc" "session(ryw,mr,mw,wfr)" [];
  assert_pair "atomic" "session(ryw,mr,mw,wfr)" [];
  assert_pair "causal" "causal-obj" registers;
  assert_pair "causal-obj" "causal" registers;
  assert_pair "tso" "causal-obj" registers;
  assert_pair "causal-obj" "local" registers;
  check Alcotest.bool "no tso-op <= tso (sb+rfi)" true
    (find "tso-op" "tso" = None);
  check Alcotest.bool "no self-pair" true
    (List.for_all
       (fun (c : Figure5.containment) -> c.stronger <> c.weaker)
       Figure5.containments);
  List.iter
    (fun (m : Model.t) ->
      check Alcotest.bool
        (m.Model.key ^ " is a node")
        true
        (List.mem m.Model.key Figure5.model_keys))
    Registry.all;
  (* atomic reaches all twenty others (seven conditionally); 98 pairs
     in total across the twenty-one-node lattice: 83 unconditional, 11
     on registers only, 4 where acquires read unmixed locations *)
  let count gs =
    List.length
      (List.filter
         (fun (c : Figure5.containment) -> c.guards = gs)
         Figure5.containments)
  in
  check Alcotest.int "98 containments" 98 (List.length Figure5.containments);
  check Alcotest.int "83 unconditional" 83 (count []);
  check Alcotest.int "11 on registers only" 11 (count registers);
  check Alcotest.int "4 on unmixed acquires" 4 (count unmixed)

let figure5_properly_labeled () =
  let proper =
    H.make
      [
        [ H.write "x" 1; H.write ~labeled:true "s" 1 ];
        [ H.read ~labeled:true "s" 1; H.read "x" 1 ];
      ]
  in
  let mixed =
    H.make [ [ H.write "x" 1; H.write ~labeled:true "x" 2 ]; [ H.read "x" 2 ] ]
  in
  (* an acquire reading a location with labeled and ordinary writes *)
  let acquire_mixed =
    H.make
      [
        [ H.write "x" 1; H.write ~labeled:true "x" 2 ];
        [ H.read ~labeled:true "x" 1 ];
      ]
  in
  let queue = H.make [ [ H.write "q:a" 1 ]; [ H.read "q:a" 1 ] ] in
  let queue_acquire_mixed =
    H.make
      [
        [ H.write "x" 1; H.write ~labeled:true "x" 2; H.write "q:a" 1 ];
        [ H.read ~labeled:true "x" 1 ];
      ]
  in
  check Alcotest.bool "disjoint sync locations qualify" true
    (Figure5.properly_labeled proper);
  check Alcotest.bool "mixed location disqualifies" false
    (Figure5.properly_labeled mixed);
  check Alcotest.bool "unlabeled history qualifies trivially" true
    (Figure5.properly_labeled (H.make [ [ H.write "x" 1 ]; [ H.read "x" 0 ] ]));
  (* conditional pairs appear exactly when the history meets their
     guards *)
  let keys h =
    List.map
      (fun ((s : Model.t), (w : Model.t)) -> (s.Model.key, w.Model.key))
      (Figure5.pairs h)
  in
  check Alcotest.bool "sc<=rc-sc asserted on proper history" true
    (List.mem ("sc", "rc-sc") (keys proper));
  check Alcotest.bool "sc<=rc-sc asserted on mixed history without acquire"
    true
    (List.mem ("sc", "rc-sc") (keys mixed));
  check Alcotest.bool "sc<=rc-sc skipped when an acquire reads a mixed location"
    false
    (List.mem ("sc", "rc-sc") (keys acquire_mixed));
  check Alcotest.bool "rc-sc<=rc-pc always asserted" true
    (List.mem ("rc-sc", "rc-pc") (keys acquire_mixed));
  check Alcotest.bool "causal<=causal-obj skipped on a queue" false
    (List.mem ("causal", "causal-obj") (keys queue));
  (* [pairs h] is exactly the containments whose guards [h] meets, for
     each of the four guard combinations *)
  List.iter
    (fun (name, h, reg, acq) ->
      check Alcotest.bool (name ^ ": registers only") reg
        (Figure5.holds Figure5.Registers_only h);
      check Alcotest.bool (name ^ ": acquires unmixed") acq
        (Figure5.holds Figure5.Acquires_unmixed h);
      let want =
        List.filter_map
          (fun (c : Figure5.containment) ->
            if List.for_all (fun g -> Figure5.holds g h) c.guards then
              Some (c.stronger, c.weaker)
            else None)
          Figure5.containments
      in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        (name ^ ": pairs") want (keys h))
    [
      ("proper", proper, true, true);
      ("acquire-mixed", acquire_mixed, true, false);
      ("queue", queue, false, true);
      ("queue, acquire-mixed", queue_acquire_mixed, false, false);
    ]

(* The lattice oracle tests Figure 5, so it must not let the service
   infer a verdict from Figure 5: on a fresh caching service, one
   search per distinct model it asks about — [check stronger], then
   [check weaker] only when the stronger allows. *)
let oracle_searches_every_model () =
  let asked h =
    let verdicts = Hashtbl.create 16 in
    let ask (m : Model.t) =
      match Hashtbl.find_opt verdicts m.Model.key with
      | Some v -> v
      | None ->
          let v = Model.check m h in
          Hashtbl.add verdicts m.Model.key v;
          v
    in
    List.iter (fun (s, w) -> if ask s then ignore (ask w)) (Figure5.pairs h);
    Hashtbl.length verdicts
  in
  let every = ref 0 in
  List.iter
    (fun i ->
      let h = Gen.history small ~rand:(Gen.case_rand small i) in
      let want = asked h in
      if want = List.length Figure5.model_keys then incr every;
      let service =
        Smem_serve.Service.create
          ~cache:(Smem_cache.Cache.create ~capacity:1024 ())
          ()
      in
      Stats.reset ();
      let violations = Oracle.lattice ~service ~case:i h in
      check Alcotest.int "no violation" 0 (List.length violations);
      check Alcotest.int
        (Printf.sprintf "case %d: one search per model asked" i)
        want (Stats.snapshot ()).Stats.checks)
    (List.init 20 Fun.id);
  check Alcotest.bool "some case asks about all twenty-one models" true
    (!every > 0);
  Stats.reset ()

(* ---------------- generator reproducibility ---------------- *)

let gen_reproducible () =
  let histories seed =
    List.init 20 (fun i ->
        show_history (Gen.history small ~rand:(Gen.case_rand small i))
        |> fun s -> (seed, s))
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "same seed, same histories" (histories 0) (histories 0);
  let h1 = Gen.history small ~rand:(Gen.case_rand small 1) in
  let h2 = Gen.history small ~rand:(Gen.case_rand small 2) in
  check Alcotest.bool "different cases differ (seeded independently)" true
    (show_history h1 <> show_history h2)

(* ---------------- shrinker guarantees ---------------- *)

(* Store buffering: allowed by PRAM (and TSO), forbidden by SC — the
   canonical witness for a flipped PRAM <= SC containment. *)
let sb_padded () =
  H.make
    [
      [ H.write "x" 1; H.read "y" 0; H.write "z" 2 ];
      [ H.write "y" 1; H.read "x" 0 ];
      [ H.read "z" 2 ];
    ]

let violates_flipped h = Model.check (model "pram") h && not (Model.check (model "sc") h)

let shrink_preserves_violation () =
  let h = sb_padded () in
  check Alcotest.bool "input violates" true (violates_flipped h);
  let shrunk, steps = Shrink.shrink ~keep:violates_flipped h in
  check Alcotest.bool "shrunk still violates" true (violates_flipped shrunk);
  check Alcotest.bool "no larger than input" true (H.nops shrunk <= H.nops h);
  check Alcotest.bool "took at least one step" true (steps > 0);
  (* the padding (p2 and the z traffic) must be gone: minimal SB is the
     4-operation core on two processors *)
  check Alcotest.int "minimal size" 4 (H.nops shrunk);
  check Alcotest.int "minimal processors" 2 (H.nprocs shrunk)

let shrink_deterministic () =
  let h = sb_padded () in
  let s1, n1 = Shrink.shrink ~keep:violates_flipped h in
  let s2, n2 = Shrink.shrink ~keep:violates_flipped h in
  check Alcotest.string "same result" (show_history s1) (show_history s2);
  check Alcotest.int "same steps" n1 n2

let shrink_rejects_nonviolating () =
  let h = sb_padded () in
  let shrunk, steps = Shrink.shrink ~keep:(fun _ -> false) h in
  check Alcotest.string "input returned unchanged" (show_history h)
    (show_history shrunk);
  check Alcotest.int "zero steps" 0 steps

(* ---------------- oracle catches a broken lattice ---------------- *)

let broken_containment_caught () =
  Stats.reset ();
  (* Flip PRAM <= SC — a deliberately broken model relation; the
     metamorphic oracle must catch it on the canonical SB history and
     shrink the counterexample. *)
  let pairs = [ (model "pram", model "sc") ] in
  let violations = Oracle.lattice ~pairs ~case:0 (sb_padded ()) in
  match violations with
  | [ v ] ->
      (match v.Oracle.kind with
      | Oracle.Containment { stronger = "pram"; weaker = "sc" } -> ()
      | _ -> Alcotest.fail "wrong violation kind");
      check Alcotest.int "shrunk to minimal SB" 4 (H.nops v.Oracle.shrunk);
      check Alcotest.bool "shrunk still violates" true
        (violates_flipped v.Oracle.shrunk);
      check Alcotest.bool "shrink steps recorded" true (v.Oracle.shrink_steps > 0);
      (* replayable: parse the printed litmus text back and the verdict
         mismatch reproduces on the round-tripped history *)
      let text = Smem_litmus.Print.to_string v.Oracle.test in
      (match Smem_litmus.Parse.test_of_string text with
      | Error e ->
          Alcotest.failf "unparseable counterexample: %a"
            (fun ppf -> Smem_litmus.Parse.pp_error ppf)
            e
      | Ok t ->
          let h = t.Smem_litmus.Test.history in
          check Alcotest.bool "replay: pram allows" true
            (Model.check (model "pram") h);
          check Alcotest.bool "replay: sc rejects (the recorded mismatch)"
            false
            (Model.check (model "sc") h));
      (* the failure and its shrink work landed in the stats table *)
      let counters = Stats.fuzz_snapshot () in
      (match List.assoc_opt "pram<=sc" counters with
      | Some f ->
          check Alcotest.int "one failure counted" 1 f.Stats.fail;
          check Alcotest.bool "shrink steps counted" true (f.Stats.shrink_steps > 0)
      | None -> Alcotest.fail "no pram<=sc counter")
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

(* ---------------- campaigns ---------------- *)

let campaign_clean () =
  Stats.reset ();
  let o = Campaign.run small in
  check Alcotest.int "all cases ran" small.Gen.count o.Campaign.cases;
  check Alcotest.bool "histories from all sources" true
    (o.Campaign.histories > small.Gen.count);
  check Alcotest.bool "machines replayed" true (o.Campaign.machine_runs > 0);
  check Alcotest.bool "containments evaluated" true (o.Campaign.lattice_checks > 0);
  check
    (Alcotest.list Alcotest.pass)
    "no violations" [] o.Campaign.violations;
  (* counters: every soundness oracle ran and nothing failed *)
  let counters = Stats.fuzz_snapshot () in
  List.iter
    (fun m ->
      let key = "sound:" ^ Smem_machine.Machines.name m in
      match List.assoc_opt key counters with
      | Some f ->
          check Alcotest.bool (key ^ " ran") true (f.Stats.pass > 0);
          check Alcotest.int (key ^ " clean") 0 f.Stats.fail
      | None -> Alcotest.failf "no %s counter" key)
    Smem_machine.Machines.all;
  (match List.assoc_opt "sc<=tso" counters with
  | Some f -> check Alcotest.int "sc<=tso clean" 0 f.Stats.fail
  | None -> Alcotest.fail "no sc<=tso counter")

let campaign_deterministic () =
  let show o =
    Format.asprintf "%a|%d" Campaign.pp_summary o
      (List.length o.Campaign.violations)
  in
  let o1 = Campaign.run { small with Gen.jobs = 1 } in
  let o2 = Campaign.run { small with Gen.jobs = 4 } in
  check Alcotest.string "jobs do not change the outcome" (show o1) (show o2)

let campaign_mixed_labels_clean () =
  (* Mixed labelings drop the conditional RC containments and the RC
     soundness checks (EXPERIMENTS.md §3) but everything else must
     hold. *)
  let o = Campaign.run { small with Gen.labels = `Mixed; count = 25 } in
  check (Alcotest.list Alcotest.pass) "no violations" [] o.Campaign.violations

(* ---------------- certificates ---------------- *)

module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel

(* Histories of at most 8 operations so the kernel's independent
   enumeration always re-runs forbidden refutations (Kernel.Complete). *)
let gen_small_history =
  let open QCheck.Gen in
  let event =
    let* loc = oneofa [| "x"; "y"; "s" |] in
    let* labeled = bool in
    bool >>= function
    | true -> map (fun v -> H.write ~labeled loc v) (int_range 1 2)
    | false -> map (fun v -> H.read ~labeled loc v) (int_range 0 2)
  in
  let* nprocs = int_range 1 3 in
  let* rows = list_repeat nprocs (list_size (int_range 1 2) event) in
  return (H.make rows)

let small_history_arb = QCheck.make ~print:show_history gen_small_history

(* Every certificate the engine emits — allowed witnesses and forbidden
   frontiers alike — must satisfy the independent kernel, completely. *)
let prop_certificates_accepted =
  QCheck.Test.make ~name:"engine certificates pass the kernel" ~count:120
    small_history_arb (fun h ->
      List.for_all
        (fun (m : Model.t) ->
          match Kernel.verify (Cert.make m h) with
          | Ok a -> a = Kernel.Complete
          | Error e -> QCheck.Test.fail_reportf "%s rejected: %s" m.Model.key e)
        Registry.all)

(* The kernel's from-scratch search must agree with every engine verdict
   on small histories: the two deciders share only the parameter
   triples, so agreement here is a genuine cross-implementation check. *)
let prop_kernel_search_agrees =
  QCheck.Test.make ~name:"kernel search agrees with the engine" ~count:120
    small_history_arb (fun h ->
      List.for_all
        (fun (m : Model.t) -> Kernel.search m.Model.params h = Model.check m h)
        Registry.all)

let violation_certificates () =
  (* The flipped-containment violation from above must ship a
     kernel-valid certificate from the model that allowed the history. *)
  let pairs = [ (model "pram", model "sc") ] in
  match Oracle.lattice ~pairs ~case:0 (sb_padded ()) with
  | [ v ] -> (
      let c = v.Oracle.certificate in
      check Alcotest.string "certified by the allowing model" "pram"
        c.Cert.model;
      check Alcotest.bool "allowed certificate" true
        (c.Cert.verdict = Cert.Allowed);
      match Kernel.verify c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "kernel rejected the certificate: %s" e)
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let campaign_counts_certificates () =
  let o = Campaign.run small in
  check (Alcotest.list Alcotest.pass) "no violations" [] o.Campaign.violations;
  check Alcotest.int "no certificates without violations" 0 o.Campaign.certified;
  check
    (Alcotest.list Alcotest.string)
    "no kernel rejections" [] o.Campaign.cert_failures

let campaign_validates () =
  Alcotest.check_raises "bad scope rejected"
    (Invalid_argument "Gen: between 1 and 6 locations") (fun () ->
      ignore (Campaign.run { small with Gen.nlocs = 7 }))

(* The service infers through Figure5's masks; the fill used to scan
   [pairs h] for the first applicable pair.  Over random sets of known
   verdicts, contradictory ones included, the masks must answer as
   that scan, on one history per guard combination. *)
let figure5_masks_answer_as_the_scan () =
  let keys = Array.of_list Figure5.model_keys in
  let n = Array.length keys in
  Array.iteri
    (fun i k ->
      check (Alcotest.option Alcotest.int) (k ^ " position") (Some i)
        (Figure5.position k))
    keys;
  check (Alcotest.option Alcotest.int) "no position outside the nodes" None
    (Figure5.position "pc-part(blocks=3)");
  let history ~queue ~acquire =
    H.make
      [
        [ H.write "x" 1; H.write ~labeled:true "x" 2 ]
        @ if queue then [ H.write "q:a" 1 ] else [];
        [ H.read ~labeled:acquire "x" 1 ];
      ]
  in
  let rng = Random.State.make [| 27 |] in
  List.iter
    (fun (queue, acquire) ->
      let h = history ~queue ~acquire in
      check
        (Alcotest.pair Alcotest.bool Alcotest.bool)
        "guards broken" (queue, acquire)
        ( not (Figure5.holds Figure5.Registers_only h),
          not (Figure5.holds Figure5.Acquires_unmixed h) );
      let pairs =
        List.map
          (fun ((s : Model.t), (w : Model.t)) -> (s.Model.key, w.Model.key))
          (Figure5.pairs h)
      in
      let masks = Figure5.implications h in
      for _ = 1 to 2000 do
        let allowed = ref 0 and forbidden = ref 0 in
        for i = 0 to n - 1 do
          match Random.State.int rng 4 with
          | 0 -> allowed := !allowed lor (1 lsl i)
          | 1 -> forbidden := !forbidden lor (1 lsl i)
          | _ -> ()
        done;
        let allowed = !allowed and forbidden = !forbidden in
        let known k =
          let i = Option.get (Figure5.position k) in
          if allowed land (1 lsl i) <> 0 then Some true
          else if forbidden land (1 lsl i) <> 0 then Some false
          else None
        in
        check Alcotest.bool "contradicts"
          (List.exists
             (fun (s, w) -> known s = Some true && known w = Some false)
             pairs)
          (Figure5.contradicts masks ~allowed ~forbidden);
        Array.iteri
          (fun i key ->
            if known key = None then
              check
                (Alcotest.option Alcotest.bool)
                ("implied " ^ key)
                (List.find_map
                   (fun (s, w) ->
                     if w = key then
                       if known s = Some true then Some true else None
                     else if s = key then
                       if known w = Some false then Some false else None
                     else None)
                   pairs)
                (Figure5.implied masks ~allowed ~forbidden i))
          keys
      done)
    [ (false, false); (false, true); (true, false); (true, true) ]

let () =
  Alcotest.run "fuzz"
    [
      ( "figure5",
        [
          tc "closure and flags" figure5_closure;
          tc "the oracle searches every model" oracle_searches_every_model;
          tc "properly-labeled gating" figure5_properly_labeled;
          tc "masks answer as the scan of pairs"
            figure5_masks_answer_as_the_scan;
        ] );
      ("gen", [ tc "seed reproducibility" gen_reproducible ]);
      ( "shrink",
        [
          tc "preserves violation, minimizes" shrink_preserves_violation;
          tc "deterministic" shrink_deterministic;
          tc "non-violating input untouched" shrink_rejects_nonviolating;
        ] );
      ("oracle", [ tc "flipped containment caught" broken_containment_caught ]);
      ( "certificates",
        [
          tc "violations ship kernel-valid certificates" violation_certificates;
          tc "clean campaigns count zero certificates"
            campaign_counts_certificates;
          QCheck_alcotest.to_alcotest prop_certificates_accepted;
          QCheck_alcotest.to_alcotest prop_kernel_search_agrees;
        ] );
      ( "campaign",
        [
          tc "clean at seed 42" campaign_clean;
          tc "deterministic across jobs" campaign_deterministic;
          tc "mixed labels clean" campaign_mixed_labels_clean;
          tc "config validated" campaign_validates;
        ] );
    ]
