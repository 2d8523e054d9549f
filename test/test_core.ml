(* Unit tests for the core framework: operations, histories, derived
   orders, reads-from and coherence enumeration, and the two checking
   engines. *)

module H = Smem_core.History
module Op = Smem_core.Op
module Orders = Smem_core.Orders
module Rf = Smem_core.Reads_from
module Co = Smem_core.Coherence
module View = Smem_core.View
module Engine = Smem_core.Engine
module Rel = Smem_relation.Rel
module Bitset = Smem_relation.Bitset
module Helpers = Smem_testlib.Helpers

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* Figure 1 history: p0: w(x)1 r(y)0 | p1: w(y)1 r(x)0 *)
let fig1 () =
  H.make [ [ H.write "x" 1; H.read "y" 0 ]; [ H.write "y" 1; H.read "x" 0 ] ]

(* ---------------- History ---------------- *)

let history_structure () =
  let h = fig1 () in
  check Alcotest.int "nops" 4 (H.nops h);
  check Alcotest.int "nprocs" 2 (H.nprocs h);
  check Alcotest.int "nlocs" 2 (H.nlocs h);
  check Alcotest.string "loc 0" "x" (H.loc_name h 0);
  check Alcotest.string "loc 1" "y" (H.loc_name h 1);
  check (Alcotest.option Alcotest.int) "loc_of_name" (Some 1) (H.loc_of_name h "y");
  check (Alcotest.option Alcotest.int) "unknown loc" None (H.loc_of_name h "zz");
  check (Alcotest.list Alcotest.int) "reads" [ 1; 3 ] (H.reads h);
  check (Alcotest.list Alcotest.int) "writes" [ 0; 2 ] (H.writes h);
  check (Alcotest.list Alcotest.int) "writes to x" [ 0 ] (H.writes_to h 0);
  check Alcotest.bool "no labeled" false (H.has_labeled h);
  let op0 = H.op h 0 in
  check Alcotest.int "op proc" 0 op0.Op.proc;
  check Alcotest.int "op index" 0 op0.Op.index;
  check Alcotest.bool "op is write" true (Op.is_write op0)

let history_views_population () =
  let h = fig1 () in
  (* p0's view: its own ops (0, 1) plus p1's write (2). *)
  let v = H.view_ops_writes h 0 in
  check (Alcotest.list Alcotest.int) "view of p0" [ 0; 1; 2 ] (Bitset.elements v);
  let v1 = H.view_ops_writes h 1 in
  check (Alcotest.list Alcotest.int) "view of p1" [ 0; 2; 3 ] (Bitset.elements v1)

let history_labeled () =
  let h =
    H.make
      [
        [ H.write ~labeled:true "s" 1; H.read "x" 0 ];
        [ H.read ~labeled:true "s" 1 ];
      ]
  in
  check (Alcotest.list Alcotest.int) "labeled ids" [ 0; 2 ] (H.labeled h);
  check Alcotest.bool "acquire" true (Op.is_acquire (H.op h 2));
  check Alcotest.bool "release" true (Op.is_release (H.op h 0));
  check Alcotest.bool "ordinary read not acquire" false (Op.is_acquire (H.op h 1))

let history_of_ops_validation () =
  Alcotest.check_raises "non-dense ids"
    (Invalid_argument "History.of_ops: ids must be dense") (fun () ->
      ignore
        (H.of_ops ~nprocs:1 ~loc_names:[| "x" |]
           [
             {
               Op.id = 1;
               proc = 0;
               index = 0;
               kind = Op.Write;
               loc = 0;
               value = 1;
               attr = Op.Ordinary;
             };
           ]))

let history_empty_rejected () =
  Alcotest.check_raises "no processors"
    (Invalid_argument "History.make: no processors") (fun () -> ignore (H.make []))

(* ---------------- Orders ---------------- *)

let orders_po () =
  let h = fig1 () in
  let po = Orders.po h in
  check Alcotest.bool "p0 po" true (Rel.mem po 0 1);
  check Alcotest.bool "p1 po" true (Rel.mem po 2 3);
  check Alcotest.bool "cross-proc unordered" false (Rel.mem po 0 2);
  check Alcotest.bool "no reverse" false (Rel.mem po 1 0)

let orders_ppo () =
  let h = fig1 () in
  let ppo = Orders.ppo h in
  (* w(x)1 -> r(y)0 is a write before a read of a different location:
     dropped from ppo. *)
  check Alcotest.bool "W->R other loc dropped" false (Rel.mem ppo 0 1);
  check Alcotest.bool "same for p1" false (Rel.mem ppo 2 3);
  (* Same-location W->R is kept. *)
  let h2 = H.make [ [ H.write "x" 1; H.read "x" 1 ] ] in
  check Alcotest.bool "W->R same loc kept" true (Rel.mem (Orders.ppo h2) 0 1);
  (* R->W, R->R, W->W all kept. *)
  let h3 =
    H.make [ [ H.read "x" 0; H.write "y" 1; H.write "x" 2; H.read "y" 1 ] ]
  in
  let p = Orders.ppo h3 in
  check Alcotest.bool "R->W" true (Rel.mem p 0 1);
  check Alcotest.bool "W->W" true (Rel.mem p 1 2);
  check Alcotest.bool "R->R" true (Rel.mem p 0 3);
  check Alcotest.bool "chained W->R" true (Rel.mem p 1 3)

let orders_ppo_chain_through_intermediate () =
  (* w(x)1 ; w(y)1 ; r(z)0 — no path survives (both W->R links cross
     locations). *)
  let h = H.make [ [ H.write "x" 1; H.write "y" 1; H.read "z" 0 ] ] in
  let p = Orders.ppo h in
  check Alcotest.bool "w(x)->w(y)" true (Rel.mem p 0 1);
  check Alcotest.bool "w(y)->r(z) dropped" false (Rel.mem p 1 2);
  check Alcotest.bool "w(x)->r(z) dropped" false (Rel.mem p 0 2);
  (* With an interposed same-location read, the chain re-forms. *)
  let h2 = H.make [ [ H.write "x" 1; H.read "x" 1; H.read "z" 0 ] ] in
  let p2 = Orders.ppo h2 in
  check Alcotest.bool "w(x)->r(x)->r(z)" true (Rel.mem p2 0 2)

let orders_po_loc () =
  let h = H.make [ [ H.write "x" 1; H.write "y" 1; H.read "x" 1 ] ] in
  let pl = Orders.po_loc h in
  check Alcotest.bool "same loc" true (Rel.mem pl 0 2);
  check Alcotest.bool "diff loc" false (Rel.mem pl 0 1)

let orders_causal () =
  (* p0: w(x)1 | p1: r(x)1 w(y)1 — causality carries w(x)1 before
     w(y)1 through the read. *)
  let h = H.make [ [ H.write "x" 1 ]; [ H.read "x" 1; H.write "y" 1 ] ] in
  ignore
    (Rf.iter h ~f:(fun rf ->
         let co = Orders.causal h ~rf in
         check Alcotest.bool "wb in causal" true (Rel.mem co 0 1);
         check Alcotest.bool "transitive" true (Rel.mem co 0 2);
         true))

let orders_sem () =
  (* rwb: p0: w(x)1 w(y)1 | p1: r(y)1 — w(x)1 must come before the read
     of w(y)1 in any view containing both. *)
  let h = H.make [ [ H.write "x" 1; H.write "y" 1 ]; [ H.read "y" 1 ] ] in
  ignore
    (Rf.iter h ~f:(fun rf ->
         ignore
           (Co.iter h ~f:(fun co ->
                let rwb = Orders.rwb h ~rf in
                check Alcotest.bool "rwb edge" true (Rel.mem rwb 0 2);
                let sem = Orders.sem h ~rf ~co in
                check Alcotest.bool "sem contains rwb" true (Rel.mem sem 0 2);
                check Alcotest.bool "sem contains ppo" true (Rel.mem sem 0 1);
                true));
         true))

let orders_rrb () =
  (* p0: r(x)0 ; p1: w(x)1 w(y)1 — with w(x)1 coherence-after init, the
     read of 0 precedes p1's later write in the semi-causality. *)
  let h = H.make [ [ H.read "x" 0 ]; [ H.write "x" 1; H.write "y" 1 ] ] in
  ignore
    (Rf.iter h ~f:(fun rf ->
         ignore
           (Co.iter h ~f:(fun co ->
                let rrb = Orders.rrb h ~rf ~co in
                check Alcotest.bool "rrb edge to later write" true (Rel.mem rrb 0 2);
                true));
         true))

let orders_sem_within () =
  (* Only the members' subhistory counts: chaining through a non-member
     must not appear. *)
  let h =
    H.make
      [
        [
          H.write ~labeled:true "x" 1;
          H.read "x" 1;
          H.read ~labeled:true "z" 0;
        ];
      ]
  in
  let members = Bitset.of_list 3 [ 0; 2 ] in
  ignore
    (Rf.iter h ~f:(fun rf ->
         ignore
           (Co.iter h ~f:(fun co ->
                let sem = Orders.sem_within h ~members ~rf ~co in
                (* w*(x) -> r*(z): within the subhistory this is W->R of
                   different locations — unordered. *)
                check Alcotest.bool "not ordered within members" false
                  (Rel.mem sem 0 2);
                (* whereas over the full history the chain through the
                   ordinary read orders them *)
                let sem_full = Orders.sem h ~rf ~co in
                check Alcotest.bool "ordered via non-member" true
                  (Rel.mem sem_full 0 2);
                true));
         true))

let orders_real_time () =
  let h =
    H.make
      [ [ H.write ~at:(0, 1) "x" 1 ]; [ H.read ~at:(2, 3) "x" 0; H.read "x" 0 ] ]
  in
  let rt = Orders.real_time h in
  check Alcotest.bool "response before invocation" true (Rel.mem rt 0 1);
  check Alcotest.bool "not reversed" false (Rel.mem rt 1 0);
  check Alcotest.bool "untimed op unordered" false (Rel.mem rt 0 2);
  check Alcotest.bool "history has timing" true (H.has_timing h);
  let h2 = H.make [ [ H.write "x" 1 ] ] in
  check Alcotest.bool "no timing" false (H.has_timing h2);
  Alcotest.check_raises "bad interval"
    (Invalid_argument "History: interval start after finish") (fun () ->
      ignore (H.read ~at:(5, 2) "x" 0))

(* ---------------- Reads_from ---------------- *)

let rf_candidates () =
  let h =
    H.make
      [
        [ H.write "x" 1; H.write "x" 2 ];
        [ H.read "x" 1; H.read "x" 0; H.read "x" 3 ];
      ]
  in
  check (Alcotest.list Alcotest.int) "value 1 candidates" [ 0 ] (Rf.candidates h 2);
  check (Alcotest.list Alcotest.int) "value 0 -> init" [ H.init ] (Rf.candidates h 3);
  check (Alcotest.list Alcotest.int) "value 3 impossible" [] (Rf.candidates h 4)

let rf_iter_counts () =
  let h = H.make [ [ H.write "x" 1; H.write "x" 1 ]; [ H.read "x" 1 ] ] in
  let n = ref 0 in
  ignore (Rf.iter h ~f:(fun _ -> incr n; false));
  check Alcotest.int "two rf maps" 2 !n;
  let h2 = H.make [ [ H.read "x" 7 ] ] in
  let n2 = ref 0 in
  let any = Rf.iter h2 ~f:(fun _ -> incr n2; true) in
  check Alcotest.bool "no candidate" false any;
  check Alcotest.int "never called" 0 !n2

let rf_wb () =
  let h = H.make [ [ H.write "x" 1 ]; [ H.read "x" 1; H.read "x" 0 ] ] in
  ignore
    (Rf.iter h ~f:(fun rf ->
         check Alcotest.int "writer" 0 (Rf.writer rf 1);
         check Alcotest.bool "init" true (Rf.reads_from_init rf 2);
         let wb = Rf.wb h rf in
         check Alcotest.bool "wb edge" true (Rel.mem wb 0 1);
         check Alcotest.int "one wb edge" 1 (Rel.cardinal wb);
         true))

(* ---------------- Coherence ---------------- *)

let co_enumeration () =
  let h = H.make [ [ H.write "x" 1; H.write "x" 2 ] ] in
  let n = ref 0 in
  ignore (Co.iter h ~f:(fun _ -> incr n; false));
  check Alcotest.int "same-proc: 1 order" 1 !n;
  let h2 = H.make [ [ H.write "x" 1 ]; [ H.write "x" 2 ] ] in
  n := 0;
  ignore (Co.iter h2 ~f:(fun _ -> incr n; false));
  check Alcotest.int "two procs: 2 orders" 2 !n;
  let h3 =
    H.make [ [ H.write "x" 1; H.write "y" 1 ]; [ H.write "x" 2; H.write "y" 2 ] ]
  in
  n := 0;
  ignore (Co.iter h3 ~f:(fun _ -> incr n; false));
  check Alcotest.int "product over locations" 4 !n

let co_structure () =
  let h = H.make [ [ H.write "x" 1; H.write "x" 2; H.write "y" 3 ] ] in
  ignore
    (Co.iter h ~f:(fun co ->
         check Alcotest.bool "precedes" true (Co.precedes co 0 1);
         check Alcotest.bool "not reverse" false (Co.precedes co 1 0);
         check Alcotest.bool "diff loc" false (Co.precedes co 0 2);
         check Alcotest.int "position" 1 (Co.position co 1);
         check (Alcotest.list Alcotest.int) "successors" [ 1 ]
           (Co.successors_from co 0);
         let rel = Co.to_rel co in
         check Alcotest.int "one pair" 1 (Rel.cardinal rel);
         true))

let co_of_write_order () =
  let h = H.make [ [ H.write "x" 1 ]; [ H.write "x" 2; H.write "y" 1 ] ] in
  let co = Co.of_write_order h [| 1; 0; 2 |] in
  check Alcotest.bool "w1 before w0" true (Co.precedes co 1 0);
  check Alcotest.bool "y singleton" false (Co.precedes co 2 2)

(* ---------------- View (engine B) ---------------- *)

let view_simple () =
  let h = H.make [ [ H.write "x" 1; H.read "x" 1 ] ] in
  let ops = H.all_ops_set h in
  (match View.exists h ~ops ~order:(Orders.po h) ~legality:View.By_value with
  | Some seq -> check (Alcotest.list Alcotest.int) "sequence" [ 0; 1 ] seq
  | None -> Alcotest.fail "expected a view");
  let h2 = H.make [ [ H.read "x" 1; H.write "x" 1 ] ] in
  check Alcotest.bool "read before write illegal" true
    (View.exists h2 ~ops:(H.all_ops_set h2) ~order:(Orders.po h2)
       ~legality:View.By_value
    = None)

let position seq v = Option.get (List.find_index (Int.equal v) seq)

let view_respects_order () =
  let h = H.make [ [ H.write "x" 1 ]; [ H.write "x" 2 ]; [ H.read "x" 1 ] ] in
  let ops = H.all_ops_set h in
  let order = Rel.of_pairs 3 [ (0, 1) ] in
  match View.exists h ~ops ~order ~legality:View.By_value with
  | None -> Alcotest.fail "expected a view"
  | Some seq ->
      check Alcotest.bool "w0 before w1" true (position seq 0 < position seq 1);
      check Alcotest.bool "read after w0" true (position seq 0 < position seq 2);
      check Alcotest.bool "read before w1" true (position seq 2 < position seq 1)

let view_by_writer () =
  let h = H.make [ [ H.write "x" 1 ]; [ H.write "x" 1 ]; [ H.read "x" 1 ] ] in
  let ops = H.all_ops_set h in
  ignore
    (Rf.iter h ~f:(fun rf ->
         if Rf.writer rf 2 = 0 then begin
           match
             View.exists h ~ops ~order:(Rel.create 3)
               ~legality:(View.By_writer rf)
           with
           | None -> Alcotest.fail "expected a view"
           | Some seq ->
               check Alcotest.bool "writer before read" true
                 (position seq 0 < position seq 2);
               check Alcotest.bool "other write not between" false
                 (position seq 0 < position seq 1 && position seq 1 < position seq 2)
         end;
         false))

(* ---------------- Engine (engine A) ---------------- *)

let engine_fr_edges () =
  let h =
    H.make [ [ H.write "x" 1; H.write "x" 2 ]; [ H.read "x" 0; H.read "x" 1 ] ]
  in
  ignore
    (Rf.iter h ~f:(fun rf ->
         ignore
           (Co.iter h ~f:(fun co ->
                let fr = Engine.fr_edges h ~rf ~co in
                check Alcotest.bool "init fr to w0" true (Rel.mem fr 2 0);
                check Alcotest.bool "init fr to w1" true (Rel.mem fr 2 1);
                check Alcotest.bool "fr to co-successor" true (Rel.mem fr 3 1);
                check Alcotest.bool "no fr to own writer" false (Rel.mem fr 3 0);
                true));
         true))

let engine_detects_cycle () =
  (* The MP pattern within a single shared view must fail: the SC check
     in miniature. *)
  let h =
    H.make [ [ H.write "x" 1; H.write "y" 1 ]; [ H.read "y" 1; H.read "x" 0 ] ]
  in
  let ok = ref false in
  ignore
    (Rf.iter h ~f:(fun rf ->
         Co.iter h ~f:(fun co ->
             match
               Engine.check h ~rf ~co ~extra:(Rel.create 4)
                 ~views:
                   [
                     { Engine.proc = -1; ops = H.all_ops_set h; order = Orders.po h };
                   ]
             with
             | Some _ ->
                 ok := true;
                 true
             | None -> false)));
  check Alcotest.bool "MP forbidden under a single po view" false !ok

let engine_witness_legal () =
  (* Any witness the engine returns must be value-legal; replay it. *)
  let h = fig1 () in
  ignore
    (Rf.iter h ~f:(fun rf ->
         Co.iter h ~f:(fun co ->
             match
               Engine.check h ~rf ~co ~extra:(Rel.create 4)
                 ~views:
                   (List.init 2 (fun p ->
                        {
                          Engine.proc = p;
                          ops = H.view_ops_writes h p;
                          order = Orders.ppo h;
                        }))
             with
             | None -> false
             | Some w ->
                 List.iter
                   (fun (_, seq) ->
                     check Alcotest.bool "witness legal" true
                       (Smem_testlib.Helpers.legal_sequence h seq))
                   w.Smem_core.Witness.views;
                 true)));
  ()

(* ---------------- Diagnose ---------------- *)

let diagnose_candidate_space () =
  let h = H.make [ [ H.write "x" 1; H.write "x" 1 ]; [ H.read "x" 1 ] ] in
  let rf, co = Smem_core.Diagnose.candidate_space h in
  check Alcotest.int "rf candidates" 2 rf;
  check Alcotest.int "co candidates" 1 co

let diagnose_sc_cycle () =
  (* SB: the refutation cycle is po;fr;po;fr. *)
  let h = fig1 () in
  (match Smem_core.Diagnose.sc_cycle h with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      check Alcotest.int "four edges" 4
        (List.length cycle.Smem_core.Diagnose.edges);
      let kinds =
        List.map (fun (_, k, _) -> k) cycle.Smem_core.Diagnose.edges
        |> List.sort compare
      in
      check Alcotest.int "two po + two fr" 2
        (List.length
           (List.filter (( = ) Smem_core.Diagnose.Program_order) kinds)));
  (* an SC-allowed history has no cycle under its first candidate only
     if that candidate works; roundtrip-style history is SC: *)
  let ok = H.make [ [ H.write "x" 1; H.read "x" 1 ] ] in
  check Alcotest.bool "no cycle when SC" true
    (Smem_core.Diagnose.sc_cycle ok = None)

(* ---------------- robustness ---------------- *)

let oversized_history_rejected () =
  (* Engine B encodes the placed set in one machine word; a history at
     the limit must be rejected loudly, not silently mis-handled. *)
  let row = List.init 70 (fun i -> H.write "x" (i + 1)) in
  let h = H.make [ row ] in
  Alcotest.check_raises "View.exists guards its encoding"
    (Smem_core.View.Too_large { nops = 70; limit = Sys.int_size - 1 })
    (fun () ->
      ignore
        (View.exists h ~ops:(H.all_ops_set h) ~order:(Orders.po h)
           ~legality:View.By_value))

let engine_size_mismatch_rejected () =
  let h = fig1 () in
  Alcotest.check_raises "relation size mismatch" (Invalid_argument "Rel: size mismatch")
    (fun () ->
      ignore
        (Rf.iter h ~f:(fun rf ->
             Co.iter h ~f:(fun co ->
                 Engine.check h ~rf ~co
                   ~extra:(Rel.create 2) (* wrong universe size *)
                   ~views:
                     [
                       { Engine.proc = -1; ops = H.all_ops_set h; order = Orders.po h };
                     ]
                 <> None))))

(* ---------------- canonicalization ---------------- *)

module Canon = Smem_core.Canon

(* Rebuild [h] event by event, optionally permuting processors,
   renaming locations, and remapping nonzero values per location —
   exactly the symmetries [Canon] claims to quotient by. *)
let rebuild ?(perm = Fun.id) ?(rename_loc = Fun.id) ?(rename_val = fun _ v -> v)
    h =
  let rows =
    List.init (H.nprocs h) (fun p ->
        H.proc_ops h (perm p) |> Array.to_list
        |> List.map (fun id ->
               let op = H.op h id in
               let loc = rename_loc (H.loc_name h op.Op.loc) in
               let v =
                 if op.Op.value = 0 then 0 else rename_val op.Op.loc op.Op.value
               in
               let labeled = Op.is_labeled op in
               match (op.Op.kind, H.interval h id) with
               | Op.Read, None -> H.read ~labeled loc v
               | Op.Read, Some at -> H.read ~labeled ~at loc v
               | Op.Write, None -> H.write ~labeled loc v
               | Op.Write, Some at -> H.write ~labeled ~at loc v))
  in
  H.make rows

let arb_mixed =
  Helpers.arb_history ~labeled_allowed:`Mixed ~max_procs:4 ~nlocs:3 ()

let canon_idempotent =
  QCheck.Test.make ~name:"canonicalize is idempotent" ~count:300 arb_mixed
    (fun h ->
      let c = Canon.canonicalize h in
      Canon.encode c = Canon.encode h
      && Canon.encode (Canon.canonicalize c) = Canon.encode c)

let canon_row_permutation_invariant =
  QCheck.Test.make ~name:"digest invariant under processor permutation"
    ~count:300 arb_mixed (fun h ->
      let n = H.nprocs h in
      let reversed = rebuild ~perm:(fun p -> n - 1 - p) h in
      let rotated = rebuild ~perm:(fun p -> (p + 1) mod n) h in
      Canon.digest reversed = Canon.digest h
      && Canon.digest rotated = Canon.digest h)

let canon_renaming_invariant =
  QCheck.Test.make
    ~name:"digest invariant under location/value renaming" ~count:300
    arb_mixed (fun h ->
      let renamed =
        rebuild
          ~rename_loc:(fun s -> "loc_" ^ s)
          ~rename_val:(fun loc v -> v + (2 * loc) + 3)
          h
      in
      Canon.digest renamed = Canon.digest h)

let canon_timing_preserved =
  QCheck.Test.make ~name:"canonicalize preserves timing intervals" ~count:300
    (Helpers.arb_timed_history ()) (fun h ->
      let intervals h =
        List.init (H.nops h) (H.interval h) |> List.sort compare
      in
      let c = Canon.canonicalize h in
      H.nops c = H.nops h && intervals c = intervals h)

let canon_distinguishes () =
  (* Equivalence must not over-collapse: changing an outcome value in a
     way no renaming can undo yields a different digest. *)
  let a = fig1 () in
  let b =
    H.make [ [ H.write "x" 1; H.read "y" 1 ]; [ H.write "y" 1; H.read "x" 0 ] ]
  in
  check Alcotest.bool "fig1 vs variant" false (Canon.equivalent a b);
  check Alcotest.bool "digest differs" true (Canon.digest a <> Canon.digest b)

let canon_collapses_known_orbit () =
  (* The store-buffering shape written two ways — swapped processors,
     different location names, scaled values — is one cache key. *)
  let a = fig1 () in
  let b =
    H.make [ [ H.write "b" 7; H.read "a" 0 ]; [ H.write "a" 7; H.read "b" 0 ] ]
  in
  check Alcotest.bool "same orbit, same digest" true (Canon.equivalent a b)

(* Seven processors with distinct rows: the search places them without
   a tie, so the digest collapses the orbit (permutations, renamings)
   and keeps distinct outcomes apart. *)
let canon_exact_seven_procs () =
  let row i =
    [
      H.write "x" (i + 1);
      H.read "y" (i mod 3);
      H.write ~labeled:(i mod 2 = 0) "z" (i + 1);
    ]
  in
  let h = H.make (List.init 7 row) in
  check Alcotest.string "idempotent" (Canon.encode h)
    (Canon.encode (Canon.canonicalize h));
  let reversed = rebuild ~perm:(fun p -> 6 - p) h in
  let rotated = rebuild ~perm:(fun p -> (p + 3) mod 7) h in
  check Alcotest.string "reverse permutation" (Canon.digest h)
    (Canon.digest reversed);
  check Alcotest.string "rotation" (Canon.digest h) (Canon.digest rotated);
  let renamed =
    rebuild ~rename_loc:(fun s -> "q_" ^ s) ~rename_val:(fun _ v -> (2 * v) + 1) h
  in
  check Alcotest.string "renaming" (Canon.digest h) (Canon.digest renamed);
  (* no over-collapsing: turning one read of the initial value into a
     read of a written value is not a renaming *)
  let other =
    H.make
      (List.init 7 (fun i ->
           if i = 3 then
             [ H.write "x" 4; H.read "y" 2; H.write ~labeled:false "z" 4 ]
           else row i))
  in
  check Alcotest.bool "distinct outcomes stay apart" true
    (Canon.digest h <> Canon.digest other)

(* Past the work bound two members of an orbit are not guaranteed one
   digest, so the random property asserts what holds at every size:
   idempotence and renaming invariance. *)
let canon_fallback_qcheck =
  QCheck.Test.make
    ~name:"fallback (>= 7 procs): idempotent and renaming-invariant"
    ~count:200
    (Helpers.arb_history ~labeled_allowed:`Mixed ~max_procs:9 ())
    (fun h ->
      QCheck.assume (H.nprocs h >= 7);
      let c = Canon.canonicalize h in
      let renamed =
        rebuild
          ~rename_loc:(fun s -> s ^ "'")
          ~rename_val:(fun loc v -> v + loc + 2)
          h
      in
      Canon.encode (Canon.canonicalize c) = Canon.encode c
      && Canon.digest renamed = Canon.digest h)

let canon_first_tied_row () =
  (* Eight rows that tie at every step: the tree of ties holds 8! orders,
     far past the work bound, so the search follows the first tied row.
     It must still be idempotent and invariant under renamings. *)
  let row i = [ H.write "x" (i + 1); H.read "y" 0 ] in
  let h = H.make (List.init 8 row) in
  check Alcotest.string "idempotent" (Canon.encode h)
    (Canon.encode (Canon.canonicalize h));
  let renamed = rebuild ~rename_loc:(fun s -> s ^ "'") h in
  check Alcotest.string "renaming-invariant" (Canon.digest h)
    (Canon.digest renamed)

(* A ring: processor [i] writes location [i] and reads location [i + 1]
   (mod [n]), renamed by [name].  Every row ties with every other at the
   first step, and the first placed row fixes the rest. *)
let ring ?(name = Printf.sprintf "x%d") n =
  H.make
    (List.init n (fun i ->
         [ H.write (name i) 1; H.read (name ((i + 1) mod n)) 0 ]))

let canon_ring_collapses () =
  List.iter
    (fun n ->
      let h = ring n in
      let what = Printf.sprintf "%d procs: " n in
      let reversed = rebuild ~perm:(fun p -> n - 1 - p) h in
      let shuffled = rebuild ~perm:(fun p -> (3 * p + 1) mod n) h in
      check Alcotest.string (what ^ "reversal") (Canon.digest h)
        (Canon.digest reversed);
      check Alcotest.string (what ^ "shuffle") (Canon.digest h)
        (Canon.digest shuffled);
      check Alcotest.string (what ^ "idempotent") (Canon.encode h)
        (Canon.encode (Canon.canonicalize h)))
    [ 7; 8 ]

(* Ties are where the search branches: 2–6 copies of one row shape,
   over locations renamed per copy, in three processor orders, against
   the least encoding over every processor order. *)
let canon_symmetric_reference () =
  let shapes =
    [
      ("ring", fun n -> ring ~name:(Printf.sprintf "r%d") n);
      ( "one location",
        fun n ->
          H.make
            (List.init n (fun i -> [ H.write "x" (i + 1); H.read "x" 0 ])) );
      ( "own location",
        fun n ->
          H.make
            (List.init n (fun i ->
                 let l = Printf.sprintf "p%d" i in
                 [ H.write l 1; H.read l 1; H.read "y" 0 ])) );
      ( "labeled flags",
        fun n ->
          H.make
            (List.init n (fun i ->
                 [
                   H.write ~labeled:true (Printf.sprintf "f%d" i) 1;
                   H.read ~labeled:true
                     (Printf.sprintf "f%d" ((i + 1) mod n))
                     0;
                   H.write "d" (i + 1);
                 ])) );
      ( "queues",
        fun n ->
          H.make
            (List.init n (fun i ->
                 [
                   H.write "q:a" (i + 1);
                   H.read "q:a" (((i + 1) mod n) + 1);
                   H.write "c:k" 1;
                 ])) );
      (* Processor i reads what its parent writes: 0 and 1 form a
         cycle, the rest hang below it, so the tied first rows lead to
         different encodings. *)
      ( "in-tree",
        fun n ->
          let parent i = if i = 0 then 1 else (i - 1) / 2 in
          H.make
            (List.init n (fun i ->
                 [
                   H.write (Printf.sprintf "t%d" i) 1;
                   H.read (Printf.sprintf "t%d" (parent i)) 0;
                 ])) );
      (* Each row writes a location of its own and reads [y], but the
         last reads [z], and a least order places it last.  At six
         copies the tree of ties holds 976 row encodings, so a work
         bound below that would send the search down the first tied
         row, which depends on the processor order. *)
      ( "one odd row",
        fun n ->
          H.make
            (List.init n (fun i ->
                 [
                   H.write (Printf.sprintf "o%d" i) 1;
                   H.read (if i = n - 1 then "z" else "y") 0;
                 ])) );
      (* Each row's encoding is a prefix of the next one's. *)
      ( "prefixes",
        fun n ->
          H.make
            (List.init n (fun i ->
                 H.write (Printf.sprintf "a%d" i) 1
                 :: List.init i (fun _ -> H.read "y" 0))) );
    ]
  in
  List.iter
    (fun (shape, make) ->
      for n = 2 to 6 do
        let h = make n in
        let expected = Helpers.reference_encode h in
        List.iter
          (fun (order, perm) ->
            check Alcotest.string
              (Printf.sprintf "%s, %d copies, %s" shape n order)
              expected
              (Canon.encode (rebuild ~perm h)))
          [
            ("as built", Fun.id);
            ("reversed", fun p -> n - 1 - p);
            ("rotated", fun p -> (p + 1) mod n);
          ]
      done)
    shapes

(* Histories of 1–6 processors over registers, a queue and a counter,
   with mixed labels and some timing intervals.  Rows are copies of up
   to three drawn rows, some with [x] and [y] swapped, so rows tie
   often and tied rows differ in how they meet the others. *)
let gen_canon_history =
  let open QCheck.Gen in
  let event =
    let* loc = oneofl [ "x"; "y"; "q:a"; "c:k" ] in
    let* labeled = bool in
    let* at =
      frequency
        [
          (3, return None);
          ( 1,
            map2 (fun s d -> Some (s, s + d)) (int_range 0 4) (int_range 0 2)
          );
        ]
    in
    let* write = bool in
    let* v = if write then int_range 1 3 else int_range 0 3 in
    return (fun swap ->
        let loc =
          match loc with "x" when swap -> "y" | "y" when swap -> "x" | l -> l
        in
        if write then H.write ~labeled ?at loc v else H.read ~labeled ?at loc v)
  in
  let* drawn = list_size (int_range 1 3) (list_size (int_range 0 3) event) in
  let* nprocs = int_range 1 6 in
  let* rows =
    list_repeat nprocs
      (let* row = oneofl drawn in
       let* swap = bool in
       return (List.map (fun e -> e swap) row))
  in
  return (H.make rows)

let canon_reference =
  QCheck.Test.make ~name:"encode = least encoding over all processor orders"
    ~count:300
    (QCheck.make ~print:Helpers.print_history gen_canon_history)
    (fun h -> Canon.encode h = Helpers.reference_encode h)

let () =
  Alcotest.run "core"
    [
      ( "history",
        [
          tc "structure" history_structure;
          tc "view population" history_views_population;
          tc "labels" history_labeled;
          tc "of_ops validation" history_of_ops_validation;
          tc "empty rejected" history_empty_rejected;
        ] );
      ( "orders",
        [
          tc "program order" orders_po;
          tc "partial program order" orders_ppo;
          tc "ppo chaining" orders_ppo_chain_through_intermediate;
          tc "per-location po" orders_po_loc;
          tc "causal order" orders_causal;
          tc "semi-causality (rwb)" orders_sem;
          tc "semi-causality (rrb)" orders_rrb;
          tc "sem within a subhistory" orders_sem_within;
          tc "real-time precedence" orders_real_time;
        ] );
      ( "reads-from",
        [
          tc "candidates" rf_candidates;
          tc "enumeration counts" rf_iter_counts;
          tc "writes-before" rf_wb;
        ] );
      ( "coherence",
        [
          tc "enumeration counts" co_enumeration;
          tc "structure" co_structure;
          tc "of_write_order" co_of_write_order;
        ] );
      ( "view",
        [
          tc "legal sequence" view_simple;
          tc "respects order" view_respects_order;
          tc "by-writer legality" view_by_writer;
        ] );
      ( "engine",
        [
          tc "from-read edges" engine_fr_edges;
          tc "cycle detection" engine_detects_cycle;
          tc "witness legality" engine_witness_legal;
        ] );
      ( "diagnose",
        [
          tc "candidate space" diagnose_candidate_space;
          tc "sc refutation cycle" diagnose_sc_cycle;
        ] );
      ( "robustness",
        [
          tc "oversized history rejected" oversized_history_rejected;
          tc "engine size mismatch rejected" engine_size_mismatch_rejected;
        ] );
      ( "canon",
        tc "distinguishes non-equivalent" canon_distinguishes
        :: tc "collapses a known orbit" canon_collapses_known_orbit
        :: tc "first tied row past the work bound" canon_first_tied_row
        :: tc "exact at 7 procs" canon_exact_seven_procs
        :: List.map QCheck_alcotest.to_alcotest
             [
               canon_idempotent;
               canon_row_permutation_invariant;
               canon_renaming_invariant;
               canon_timing_preserved;
               canon_fallback_qcheck;
             ]
        @ [
            tc "seven-processor ring collapses" canon_ring_collapses;
            tc "symmetric rows = every processor order"
              canon_symmetric_reference;
            QCheck_alcotest.to_alcotest canon_reference;
          ] );
    ]
