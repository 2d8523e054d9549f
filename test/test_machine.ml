(* Tests of the operational machines: unit behaviour of each machine,
   the driver (replay, reachability, outcome enumeration), and the
   soundness property pairing every machine with its memory model:
   whatever a machine can do, the model's checker must allow. *)

module H = Smem_core.History
module Op = Smem_core.Op
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Machines = Smem_machine.Machines
module Driver = Smem_machine.Driver
module Corpus = Smem_litmus.Corpus
module Test = Smem_litmus.Test
module Helpers = Smem_testlib.Helpers

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let machine key =
  match Machines.find key with
  | Some m -> m
  | None -> Alcotest.failf "unknown machine %s" key

(* ---------------- unit behaviour ---------------- *)

let sc_machine_is_memory () =
  let (module M : Smem_machine.Machine_sig.MACHINE) = machine "sc" in
  let m = M.create ~nprocs:2 ~nlocs:2 in
  let v, m = M.read m ~proc:0 ~loc:0 ~labeled:false in
  check Alcotest.int "initial 0" 0 v;
  let m = M.write m ~proc:0 ~loc:0 ~value:7 ~labeled:false in
  let v, m = M.read m ~proc:1 ~loc:0 ~labeled:false in
  check Alcotest.int "immediately visible" 7 v;
  check Alcotest.int "no internal steps" 0 (List.length (M.internal m))

let tso_machine_buffers () =
  let (module M : Smem_machine.Machine_sig.MACHINE) = machine "tso" in
  let m = M.create ~nprocs:2 ~nlocs:1 in
  let m = M.write m ~proc:0 ~loc:0 ~value:1 ~labeled:false in
  (* The writer sees its own buffered value... *)
  let v, m = M.read m ~proc:0 ~loc:0 ~labeled:false in
  check Alcotest.int "store forwarding" 1 v;
  (* ...but the other processor still reads memory. *)
  let v1, m = M.read m ~proc:1 ~loc:0 ~labeled:false in
  check Alcotest.int "not yet visible" 0 v1;
  check Alcotest.bool "buffer pending" false (M.internal m = []);
  (* One flush makes it visible. *)
  (match M.internal m with
  | [ m' ] ->
      let v2, _ = M.read m' ~proc:1 ~loc:0 ~labeled:false in
      check Alcotest.int "visible after flush" 1 v2;
      check Alcotest.bool "now quiescent" true (M.internal m' = [])
  | other -> Alcotest.failf "expected 1 internal step, got %d" (List.length other))

let pram_machine_fifo () =
  let (module M : Smem_machine.Machine_sig.MACHINE) = machine "pram" in
  let m = M.create ~nprocs:2 ~nlocs:2 in
  let m = M.write m ~proc:0 ~loc:0 ~value:1 ~labeled:false in
  let m = M.write m ~proc:0 ~loc:1 ~value:2 ~labeled:false in
  (* Writer sees both at once; the peer sees them only in order. *)
  let v, m = M.read m ~proc:0 ~loc:1 ~labeled:false in
  check Alcotest.int "local" 2 v;
  (match M.internal m with
  | [ m' ] ->
      (* only the head of the single nonempty channel is deliverable *)
      let v0, m' = M.read m' ~proc:1 ~loc:0 ~labeled:false in
      let v1, _ = M.read m' ~proc:1 ~loc:1 ~labeled:false in
      check Alcotest.int "first update applied" 1 v0;
      check Alcotest.int "second still pending" 0 v1
  | other -> Alcotest.failf "expected 1 delivery, got %d" (List.length other))

let causal_machine_dependencies () =
  let (module M : Smem_machine.Machine_sig.MACHINE) = machine "causal" in
  let m = M.create ~nprocs:3 ~nlocs:2 in
  (* p0 writes x; p1 reads it (after delivery) and writes y; p2 must
     not apply y before x. *)
  let m = M.write m ~proc:0 ~loc:0 ~value:1 ~labeled:false in
  (* deliver p0's write to p1 only *)
  let deliveries = M.internal m in
  let to_p1 =
    List.find
      (fun m' -> fst (M.read m' ~proc:1 ~loc:0 ~labeled:false) = 1)
      deliveries
  in
  let v, m = M.read to_p1 ~proc:1 ~loc:0 ~labeled:false in
  check Alcotest.int "p1 sees x" 1 v;
  let m = M.write m ~proc:1 ~loc:1 ~value:2 ~labeled:false in
  (* p2 has two pending messages; only p0's x-write is deliverable. *)
  let deliverable_at_p2 =
    List.filter
      (fun m' ->
        fst (M.read m' ~proc:2 ~loc:0 ~labeled:false) = 1
        || fst (M.read m' ~proc:2 ~loc:1 ~labeled:false) = 2)
      (M.internal m)
  in
  List.iter
    (fun m' ->
      let y, _ = M.read m' ~proc:2 ~loc:1 ~labeled:false in
      if y = 2 then
        (* y arrived: x must have arrived first *)
        check Alcotest.int "dependency enforced" 1
          (fst (M.read m' ~proc:2 ~loc:0 ~labeled:false)))
    deliverable_at_p2

let rc_machines_differ_on_release () =
  (* After a release, the Sc flavor has made the labeled write globally
     visible; the Pc flavor has not. *)
  let run (module M : Smem_machine.Machine_sig.MACHINE) =
    let m = M.create ~nprocs:2 ~nlocs:1 in
    let m = M.write m ~proc:0 ~loc:0 ~value:1 ~labeled:true in
    fst (M.read m ~proc:1 ~loc:0 ~labeled:false)
  in
  check Alcotest.int "rc-sc: release is global" 1 (run (machine "rc-sc"));
  check Alcotest.int "rc-pc: release propagates lazily" 0 (run (machine "rc-pc"))

let rc_sc_release_flushes_ordinary () =
  let (module M : Smem_machine.Machine_sig.MACHINE) = machine "rc-sc" in
  let m = M.create ~nprocs:2 ~nlocs:2 in
  let m = M.write m ~proc:0 ~loc:0 ~value:1 ~labeled:false in
  (* ordinary write still in flight *)
  let v, m = M.read m ~proc:1 ~loc:0 ~labeled:false in
  check Alcotest.int "in flight" 0 v;
  let m = M.write m ~proc:0 ~loc:1 ~value:1 ~labeled:true in
  (* the release forced the prior ordinary write everywhere *)
  let v, _ = M.read m ~proc:1 ~loc:0 ~labeled:false in
  check Alcotest.int "flushed by release" 1 v

let machine_names_unique () =
  let names = List.map Machines.name Machines.all in
  check Alcotest.int "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---------------- driver ---------------- *)

let driver_program_of_history () =
  let h = Corpus.fig1_tso.Test.history in
  let p = Driver.program_of_history h in
  check Alcotest.int "procs" 2 p.Driver.nprocs;
  check Alcotest.int "locs" 2 p.Driver.nlocs;
  check Alcotest.int "ops p0" 2 (List.length p.Driver.code.(0))

let driver_outcomes_sc_sb () =
  (* On the SC machine, store buffering can produce (0,1), (1,0), (1,1)
     for the two reads — but never (0,0). *)
  let h = Corpus.fig1_tso.Test.history in
  let p = Driver.program_of_history h in
  let outcomes = Driver.outcomes (machine "sc") p in
  check Alcotest.bool "has 0,1" true (List.mem [ 0; 1 ] outcomes);
  check Alcotest.bool "has 1,0" true (List.mem [ 1; 0 ] outcomes);
  check Alcotest.bool "has 1,1" true (List.mem [ 1; 1 ] outcomes);
  check Alcotest.bool "no 0,0" false (List.mem [ 0; 0 ] outcomes);
  let tso_outcomes = Driver.outcomes (machine "tso") p in
  check Alcotest.bool "tso adds 0,0" true (List.mem [ 0; 0 ] tso_outcomes)

let driver_reachability_matches_corpus () =
  (* Spot checks duplicated from the corpus (full sweep lives in the
     integration example). *)
  let reach test_name machine_name =
    match Corpus.find test_name with
    | None -> Alcotest.failf "missing corpus test %s" test_name
    | Some t ->
        let h = t.Test.history in
        Driver.reachable (machine machine_name) (Driver.program_of_history h) h
  in
  check Alcotest.bool "fig1 not on sc" false (reach "fig1" "sc");
  check Alcotest.bool "fig1 on tso" true (reach "fig1" "tso");
  check Alcotest.bool "bakery-sec5 not on rc-sc" false (reach "bakery-sec5" "rc-sc");
  check Alcotest.bool "bakery-sec5 on rc-pc" true (reach "bakery-sec5" "rc-pc")

(* Guided replay of every built-in corpus test of at most 10
   operations, counting the states [Driver.reachable] visits on each
   machine.  The counts depend on which machine states are equal and,
   since a replay stops at its first complete run, on the order of
   internal successors: the explorers' memo tables, seeded random
   schedules and the generated corpus depend on both. *)
let driver_replay_states_pinned () =
  let tests =
    List.filter (fun t -> H.nops t.Test.history <= 10) Corpus.all
  in
  let counted () =
    Option.value ~default:0 (Smem_obs.Metrics.find "machine.replay_states")
  in
  let states m =
    let before = counted () in
    List.iter
      (fun t ->
        let h = t.Test.history in
        ignore (Driver.reachable m (Driver.program_of_history h) h))
      tests;
    counted () - before
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "replay states per machine"
    [
      ("sc", 201);
      ("tso", 284);
      ("pc-g", 679);
      ("causal", 308);
      ("pram", 260);
      ("slow", 268);
      ("local", 244);
      ("rc-sc", 660);
      ("rc-pc", 772);
    ]
    (List.map (fun m -> (Machines.name m, states m)) Machines.all)

(* ---------------- soundness properties ---------------- *)

(* Machine soundness: a random schedule of a random program on machine M
   yields a history that model(M) allows. *)
let soundness_prop (m : Smem_machine.Machine_sig.machine) =
  let key = Machines.model_key m in
  let model =
    match Registry.find key with
    | Some model -> model
    | None -> failwith ("no model " ^ key)
  in
  let labeled_allowed =
    match Machines.name m with "rc-sc" | "rc-pc" -> `Separated | _ -> `No
  in
  let arb =
    QCheck.pair
      (Helpers.arb_program ~labeled_allowed ~max_procs:3 ~max_ops:3 ~nlocs:2 ())
      (QCheck.make QCheck.Gen.int)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s machine traces ⊆ %s model" (Machines.name m) key)
    ~count:100 arb
    (fun (program, seed) ->
      let rand = Random.State.make [| seed |] in
      let h = Driver.run_random m program ~rand in
      Model.check model h)

let soundness_props = List.map soundness_prop Machines.all

(* Reachability is sound too: if the machine can replay a random
   history exactly, its model allows that history. *)
let reachability_soundness (m : Smem_machine.Machine_sig.machine) =
  let key = Machines.model_key m in
  let model =
    match Registry.find key with
    | Some model -> model
    | None -> failwith ("no model " ^ key)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s reachable histories ⊆ %s model" (Machines.name m) key)
    ~count:80
    (Helpers.arb_history ~max_procs:2 ~max_ops:2 ())
    (fun h ->
      let p = Driver.program_of_history h in
      if Driver.reachable m p h then Model.check model h else true)

let reachability_props = List.map reachability_soundness Machines.all

(* Some reads-from map leaves program order plus reads-from acyclic.
   An in-order machine performs each operation after its program-order
   predecessors and each read after the write it returns, so it reaches
   no history without such a map; view-based models need not ask for
   one (EXPERIMENTS.md, finding 6). *)
let po_rf_acyclic h =
  let po = Smem_core.Orders.po h in
  Smem_core.Reads_from.iter h ~f:(fun rf ->
      Smem_relation.Rel.acyclic
        (Smem_relation.Rel.union po (Smem_core.Engine.rf_edges h ~rf)))

(* For the machines that are the *canonical* implementations of their
   models — SC (atomic interleaving), PRAM and causal memory (the
   operational definitions of §3.5 / [3]) and the TSO store buffer vs.
   the operational-TSO replay — reachability and the checker coincide
   exactly, PRAM's within the histories an in-order machine can
   produce at all ([within]).  This is a completeness test: the
   checkers accept nothing the machine cannot do, and vice versa. *)
let equality_prop ?within machine_key model_key =
  let m = machine machine_key in
  let model =
    match Registry.find model_key with
    | Some model -> model
    | None -> failwith ("no model " ^ model_key)
  in
  let suffix, inside =
    match within with
    | Some (name, p) -> (" ∩ " ^ name, p)
    | None -> ("", fun _ -> true)
  in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s machine reachability = %s model%s" machine_key
         model_key suffix)
    ~count:120
    (Helpers.arb_history ~max_procs:3 ~max_ops:2 ())
    (fun h ->
      let p = Driver.program_of_history h in
      Driver.reachable m p h = (Model.check model h && inside h))

(* The load-buffering history PRAM allows (each view holds only the
   other processor's write, so neither read is out of order in its
   view) and the in-order PRAM machine cannot reach: each read returns
   a write that follows the other read in program order. *)
let pram_lb_unreachable () =
  let h =
    H.make
      [ [ H.read "x" 2; H.write "y" 1 ]; [ H.read "y" 1; H.write "x" 2 ] ]
  in
  let pram =
    match Registry.find "pram" with Some m -> m | None -> assert false
  in
  check Alcotest.bool "the PRAM model allows LB" true (Model.check pram h);
  check Alcotest.bool "no reads-from map leaves po ∪ rf acyclic" false
    (po_rf_acyclic h);
  check Alcotest.bool "the PRAM machine cannot reach it" false
    (Driver.reachable (machine "pram") (Driver.program_of_history h) h)

(* The RC machines' soundness gap (EXPERIMENTS.md finding 3): an
   acquire that reads an ordinary write.  SC allows the history and
   both RC machines reach it, yet both RC models forbid it.  It is not
   properly labeled, which is why the fuzz oracle's RC soundness check
   skips it. *)
let rc_machines_reach_improperly_labeled () =
  let h =
    H.make
      [
        [ H.write "x" 1; H.write "x" 1 ];
        [ H.read ~labeled:true "x" 1; H.write ~labeled:true "x" 1 ];
      ]
  in
  let model key =
    match Registry.find key with Some m -> m | None -> assert false
  in
  check Alcotest.bool "sc allows it" true (Model.check (model "sc") h);
  check Alcotest.bool "not properly labeled" false
    (Smem_lattice.Figure5.properly_labeled h);
  List.iter
    (fun key ->
      check Alcotest.bool (key ^ " model forbids it") false
        (Model.check (model key) h);
      check Alcotest.bool (key ^ " machine reaches it") true
        (Driver.reachable (machine key) (Driver.program_of_history h) h))
    [ "rc-sc"; "rc-pc" ]

(* Whole-outcome-set agreement on the corpus skeletons: the set of
   read-value vectors a machine can produce equals the set of vectors
   whose induced history the model allows.  Stronger than per-history
   spot checks: it sweeps the entire outcome space of each test. *)
let history_with_outcome (program : Driver.program) outcome =
  let values = ref outcome in
  let next () =
    match !values with
    | [] -> assert false
    | v :: rest ->
        values := rest;
        v
  in
  let ops = ref [] in
  let id = ref 0 in
  Array.iteri
    (fun proc code ->
      List.iteri
        (fun index (instr : Driver.instr) ->
          let value =
            match instr.Driver.kind with
            | Op.Read -> next ()
            | Op.Write -> instr.Driver.value
          in
          ops :=
            {
              Op.id = !id;
              proc;
              index;
              kind = instr.Driver.kind;
              loc = instr.Driver.loc;
              value;
              attr = (if instr.Driver.labeled then Op.Labeled else Op.Ordinary);
            }
            :: !ops;
          incr id)
        code)
    program.Driver.code;
  H.of_ops ~nprocs:program.Driver.nprocs ~loc_names:program.Driver.loc_names
    (List.rev !ops)

let model_outcomes model (program : Driver.program) =
  let values =
    0
    :: (Array.to_list program.Driver.code
       |> List.concat_map
            (List.filter_map (fun (i : Driver.instr) ->
                 if i.Driver.kind = Op.Write then Some i.Driver.value else None)))
    |> List.sort_uniq compare
  in
  let nreads =
    Array.to_list program.Driver.code
    |> List.concat_map (List.filter (fun (i : Driver.instr) -> i.Driver.kind = Op.Read))
    |> List.length
  in
  let results = ref [] in
  let rec go acc k =
    if k = 0 then begin
      let outcome = List.rev acc in
      if Model.check model (history_with_outcome program outcome) then
        results := outcome :: !results
    end
    else List.iter (fun v -> go (v :: acc) (k - 1)) values
  in
  go [] nreads;
  List.sort compare !results

let outcome_equivalence machine_key model_key test_name () =
  let m = machine machine_key in
  let model =
    match Registry.find model_key with Some m -> m | None -> assert false
  in
  let test =
    match Corpus.find test_name with
    | Some t -> t
    | None -> Alcotest.failf "missing corpus test %s" test_name
  in
  let program = Driver.program_of_history test.Test.history in
  let machine_set = List.sort compare (Driver.outcomes m program) in
  let model_set = model_outcomes model program in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    (Printf.sprintf "%s outcomes on %s" test_name machine_key)
    model_set machine_set

let outcome_cases =
  [
    Alcotest.test_case "sc outcomes = SC model (fig1)" `Quick
      (outcome_equivalence "sc" "sc" "fig1");
    Alcotest.test_case "sc outcomes = SC model (mp)" `Quick
      (outcome_equivalence "sc" "sc" "mp");
    Alcotest.test_case "sc outcomes = SC model (lb)" `Quick
      (outcome_equivalence "sc" "sc" "lb");
    Alcotest.test_case "tso outcomes = operational TSO (fig1)" `Quick
      (outcome_equivalence "tso" "tso-op" "fig1");
    Alcotest.test_case "tso outcomes = operational TSO (sb+rfi)" `Quick
      (outcome_equivalence "tso" "tso-op" "sb+rfi");
    Alcotest.test_case "pram outcomes = PRAM model (fig3)" `Quick
      (outcome_equivalence "pram" "pram" "fig3");
    Alcotest.test_case "pram outcomes = PRAM model (mp)" `Quick
      (outcome_equivalence "pram" "pram" "mp");
    Alcotest.test_case "causal outcomes = causal model (fig4)" `Quick
      (outcome_equivalence "causal" "causal" "fig4");
    Alcotest.test_case "causal outcomes = causal model (lb)" `Quick
      (outcome_equivalence "causal" "causal" "lb");
  ]

let equality_props =
  [
    equality_prop "sc" "sc";
    equality_prop "pram" "pram"
      ~within:("acyclic(po ∪ rf)", po_rf_acyclic);
    equality_prop "causal" "causal";
    equality_prop "tso" "tso-op";
  ]

let () =
  Alcotest.run "machine"
    [
      ( "units",
        [
          tc "sc is a flat memory" sc_machine_is_memory;
          tc "tso store buffer" tso_machine_buffers;
          tc "pram fifo channels" pram_machine_fifo;
          tc "pram: LB allowed by the model, unreachable" pram_lb_unreachable;
          tc "causal delivery dependencies" causal_machine_dependencies;
          tc "rc release visibility differs" rc_machines_differ_on_release;
          tc "rc-sc release flushes ordinary writes" rc_sc_release_flushes_ordinary;
          tc "rc machines reach an improperly labeled history their models forbid"
            rc_machines_reach_improperly_labeled;
          tc "names unique" machine_names_unique;
        ] );
      ( "driver",
        [
          tc "program_of_history" driver_program_of_history;
          tc "outcome enumeration (SB)" driver_outcomes_sc_sb;
          tc "reachability spot checks" driver_reachability_matches_corpus;
          tc "replay states pinned per machine" driver_replay_states_pinned;
        ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          (soundness_props @ reachability_props @ equality_props)
      );
      ("outcome sets", outcome_cases);
    ]
