(* Unit and property tests for the relation-algebra substrate. *)

module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel
module Perm = Smem_relation.Perm
module Helpers = Smem_testlib.Helpers

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Bitset ---------------- *)

let bitset_basics () =
  let s = Bitset.create 100 in
  check Alcotest.bool "fresh empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check Alcotest.int "cardinal" 4 (Bitset.cardinal s);
  check Alcotest.bool "mem 63" true (Bitset.mem s 63);
  check Alcotest.bool "mem 64" true (Bitset.mem s 64);
  check Alcotest.bool "mem 65" false (Bitset.mem s 65);
  Bitset.remove s 63;
  check Alcotest.bool "removed" false (Bitset.mem s 63);
  check (Alcotest.list Alcotest.int) "elements sorted" [ 0; 64; 99 ]
    (Bitset.elements s)

let bitset_set_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 3; 4 ] in
  check (Alcotest.list Alcotest.int) "union" [ 1; 2; 3; 4 ]
    (Bitset.elements (Bitset.union a b));
  check (Alcotest.list Alcotest.int) "inter" [ 3 ]
    (Bitset.elements (Bitset.inter a b));
  check (Alcotest.list Alcotest.int) "diff" [ 1; 2 ]
    (Bitset.elements (Bitset.diff a b));
  check Alcotest.bool "subset yes" true
    (Bitset.subset (Bitset.of_list 10 [ 1; 3 ]) a);
  check Alcotest.bool "subset no" false (Bitset.subset b a);
  let c = Bitset.copy a in
  Bitset.union_into ~into:c b;
  check Alcotest.bool "union_into" true (Bitset.equal c (Bitset.union a b))

let bitset_bounds () =
  let s = Bitset.create 5 in
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 5);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Bitset.create: negative capacity") (fun () ->
      ignore (Bitset.create (-1)))

(* ---------------- Rel ---------------- *)

let rel_basics () =
  let r = Rel.of_pairs 4 [ (0, 1); (1, 2) ] in
  check Alcotest.bool "mem" true (Rel.mem r 0 1);
  check Alcotest.bool "not mem" false (Rel.mem r 0 2);
  check Alcotest.int "cardinal" 2 (Rel.cardinal r);
  let tc_ = Rel.transitive_closure r in
  check Alcotest.bool "closure adds" true (Rel.mem tc_ 0 2);
  check Alcotest.int "closure size" 3 (Rel.cardinal tc_);
  check Alcotest.bool "closure transitive" true (Rel.is_transitive tc_);
  check Alcotest.bool "subrel" true (Rel.subrel r tc_);
  check Alcotest.bool "not subrel" false (Rel.subrel tc_ r)

let rel_algebra () =
  let r = Rel.of_pairs 3 [ (0, 1) ] in
  let s = Rel.of_pairs 3 [ (1, 2) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "compose" [ (0, 2) ]
    (Rel.pairs (Rel.compose r s));
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "transpose" [ (1, 0) ]
    (Rel.pairs (Rel.transpose r));
  let u = Rel.union r s in
  check Alcotest.int "union" 2 (Rel.cardinal u);
  check Alcotest.int "diff" 1 (Rel.cardinal (Rel.diff u r));
  check Alcotest.int "inter" 1 (Rel.cardinal (Rel.inter u r))

let rel_restrict () =
  let r = Rel.of_pairs 4 [ (0, 1); (1, 2); (2, 3) ] in
  let keep = Bitset.of_list 4 [ 0; 1; 2 ] in
  let r' = Rel.restrict r keep in
  check Alcotest.int "restricted" 2 (Rel.cardinal r');
  check Alcotest.bool "kept" true (Rel.mem r' 0 1);
  check Alcotest.bool "dropped" false (Rel.mem r' 2 3)

let rel_acyclic () =
  let acyclic = Rel.of_pairs 4 [ (0, 1); (1, 2); (0, 2) ] in
  check Alcotest.bool "acyclic" true (Rel.acyclic acyclic);
  check Alcotest.bool "cycle found none" true (Rel.find_cycle acyclic = None);
  let cyclic = Rel.of_pairs 4 [ (0, 1); (1, 2); (2, 0) ] in
  check Alcotest.bool "cyclic" false (Rel.acyclic cyclic);
  (match Rel.find_cycle cyclic with
  | None -> Alcotest.fail "expected a cycle"
  | Some cyc ->
      check Alcotest.int "cycle length" 3 (List.length cyc);
      (* every consecutive pair (and the wrap-around) is an edge *)
      let arr = Array.of_list cyc in
      Array.iteri
        (fun i a ->
          let b = arr.((i + 1) mod Array.length arr) in
          check Alcotest.bool "cycle edge" true (Rel.mem cyclic a b))
        arr);
  let self = Rel.of_pairs 2 [ (1, 1) ] in
  check Alcotest.bool "self loop cyclic" false (Rel.acyclic self);
  check Alcotest.bool "irreflexive" false (Rel.irreflexive self)

let rel_topo () =
  let r = Rel.of_pairs 4 [ (2, 1); (1, 0); (3, 0) ] in
  (match Rel.topological_sort r with
  | None -> Alcotest.fail "expected a sort"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      Rel.iter_pairs
        (fun a b -> check Alcotest.bool "order respected" true (pos.(a) < pos.(b)))
        r);
  let cyclic = Rel.of_pairs 2 [ (0, 1); (1, 0) ] in
  check Alcotest.bool "no sort of cycle" true (Rel.topological_sort cyclic = None)

let rel_linear_extensions () =
  (* An antichain of 3 elements has 3! = 6 linear extensions. *)
  let empty = Rel.create 3 in
  let count = ref 0 in
  let all _ = incr count; false in
  ignore (Helpers.linear_extensions empty ~f:all);
  check Alcotest.int "3! extensions" 6 !count;
  (* A chain has exactly one. *)
  let chain = Rel.of_pairs 3 [ (0, 1); (1, 2) ] in
  count := 0;
  ignore (Helpers.linear_extensions chain ~f:all);
  check Alcotest.int "chain has 1" 1 !count;
  (* Early exit works. *)
  count := 0;
  let stop _ = incr count; true in
  check Alcotest.bool "early exit true" true
    (Helpers.linear_extensions empty ~f:stop);
  check Alcotest.int "stopped after 1" 1 !count;
  (* Restricted universe. *)
  count := 0;
  let universe = Bitset.of_list 3 [ 0; 2 ] in
  ignore (Helpers.linear_extensions ~universe empty ~f:all);
  check Alcotest.int "2 elements -> 2" 2 !count

let rel_scc () =
  (* two 2-cycles and a singleton: 0<->1, 2<->3, 4; edge 1 -> 2. *)
  let r = Rel.of_pairs 5 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] in
  let component, count = Rel.strongly_connected_components r in
  check Alcotest.int "three components" 3 count;
  check Alcotest.bool "0 and 1 together" true (component.(0) = component.(1));
  check Alcotest.bool "2 and 3 together" true (component.(2) = component.(3));
  check Alcotest.bool "4 alone" true
    (component.(4) <> component.(0) && component.(4) <> component.(2));
  (* reverse topological: the component of {0,1} comes after {2,3} *)
  check Alcotest.bool "reverse topological order" true
    (component.(0) > component.(2));
  (* a DAG has one component per node *)
  let dag = Rel.of_pairs 3 [ (0, 1); (1, 2) ] in
  let _, c = Rel.strongly_connected_components dag in
  check Alcotest.int "dag components" 3 c

(* ---------------- Perm ---------------- *)

let perm_counts () =
  let count = ref 0 in
  ignore (Perm.iter_permutations [| 1; 2; 3; 4 |] ~f:(fun _ -> incr count; false));
  check Alcotest.int "4! permutations" 24 !count;
  count := 0;
  ignore
    (Perm.iter_constrained [| 0; 1; 2 |]
       ~precedes:(fun a b -> a = 0 && b = 2)
       ~f:(fun _ -> incr count; false));
  check Alcotest.int "constrained" 3 !count;
  (* all permutations of a 2-chain plus free element: 0 before 1: 3 *)
  count := 0;
  ignore
    (Perm.iter_constrained [| 0; 1; 2 |]
       ~precedes:(fun a b -> a < b)
       ~f:(fun _ -> incr count; false));
  check Alcotest.int "total order -> 1" 1 !count

let perm_product () =
  let seen = ref [] in
  ignore
    (Perm.product [ [ 1; 2 ]; [ 3 ] ] ~f:(fun sel -> seen := sel :: !seen; false));
  check Alcotest.int "product size" 2 (List.length !seen);
  check Alcotest.bool "has [1;3]" true (List.mem [ 1; 3 ] !seen);
  check Alcotest.bool "has [2;3]" true (List.mem [ 2; 3 ] !seen)

(* ---------------- properties ---------------- *)

let gen_rel =
  QCheck.make
    ~print:(fun pairs ->
      String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) pairs))
    QCheck.Gen.(
      let* n = int_range 0 12 in
      list_size (int_bound 20) (pair (int_bound 5) (int_bound 5)) >|= fun ps ->
      ignore n;
      ps)

let rel_of_pairs ps = Rel.of_pairs 6 ps

let prop_closure_idempotent =
  QCheck.Test.make ~name:"transitive closure is idempotent" ~count:500 gen_rel
    (fun ps ->
      let r = rel_of_pairs ps in
      let c = Rel.transitive_closure r in
      Rel.equal c (Rel.transitive_closure c))

let prop_closure_extensive =
  QCheck.Test.make ~name:"closure contains the relation" ~count:500 gen_rel
    (fun ps ->
      let r = rel_of_pairs ps in
      Rel.subrel r (Rel.transitive_closure r))

let prop_acyclic_iff_topo =
  QCheck.Test.make ~name:"acyclic iff topological sort exists" ~count:500 gen_rel
    (fun ps ->
      let r = rel_of_pairs ps in
      Rel.acyclic r = (Rel.topological_sort r <> None))

let prop_acyclic_iff_irreflexive_closure =
  QCheck.Test.make ~name:"acyclic iff closure is irreflexive" ~count:500 gen_rel
    (fun ps ->
      let r = rel_of_pairs ps in
      Rel.acyclic r = Rel.irreflexive (Rel.transitive_closure r))

let prop_find_cycle_consistent =
  QCheck.Test.make ~name:"find_cycle agrees with acyclic" ~count:500 gen_rel
    (fun ps ->
      let r = rel_of_pairs ps in
      (Rel.find_cycle r = None) = Rel.acyclic r)

let prop_scc_vs_acyclic =
  QCheck.Test.make ~name:"acyclic iff all SCCs trivial and no self-loops"
    ~count:500 gen_rel (fun ps ->
      let r = rel_of_pairs ps in
      let component, count = Rel.strongly_connected_components r in
      let trivial =
        count = Rel.size r
        && Array.for_all Fun.id
             (Array.init (Rel.size r) (fun v -> not (Rel.mem r v v)))
      in
      ignore component;
      Rel.acyclic r = trivial)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:500 gen_rel
    (fun ps ->
      let r = rel_of_pairs ps in
      Rel.equal r (Rel.transpose (Rel.transpose r)))

let prop_extensions_respect_order =
  QCheck.Test.make ~name:"linear extensions respect the relation" ~count:200
    gen_rel (fun ps ->
      let r = rel_of_pairs ps in
      if not (Rel.acyclic r) then true
      else begin
        let ok = ref true in
        let checked = ref 0 in
        ignore
          (Helpers.linear_extensions r ~f:(fun order ->
               incr checked;
               let pos = Array.make 6 0 in
               Array.iteri (fun i v -> pos.(v) <- i) order;
               Rel.iter_pairs
                 (fun a b -> if pos.(a) >= pos.(b) then ok := false)
                 r;
               !checked > 50));
        !ok
      end)

(* ---------------- differential ---------------- *)

(* Rel against the representation it replaced (one Bitset per row,
   test/helpers/ref_rel.ml), on relations of 0-130 elements: one-,
   two- and three-word rows, with the word boundaries drawn often. *)

module Ref = Smem_testlib.Ref_rel

let boundaries = [ 0; 1; 62; 63; 64; 126; 127; 128 ]

(* Either a random graph (self-loops included) or the ascending pairs
   of one plus up to two random edges, so that cycles are rare and
   long. *)
let gen_pairs n =
  let open QCheck.Gen in
  if n = 0 then return []
  else
    let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
    let* m = int_bound (3 * n) in
    let* edges = list_repeat m edge in
    let* dag = bool in
    if not dag then return edges
    else
      let* back = list_size (int_bound 2) edge in
      return
        (List.filter_map
           (fun (a, b) -> if a = b then None else Some (min a b, max a b))
           edges
        @ back)

let gen_case =
  let open QCheck.Gen in
  let* n = frequency [ (1, oneofl boundaries); (1, int_range 0 130) ] in
  let* ps = gen_pairs n in
  let* qs = gen_pairs n in
  let* keep =
    if n = 0 then return [] else list_size (int_bound n) (int_bound (n - 1))
  in
  return (n, ps, qs, keep)

let print_case (n, ps, qs, keep) =
  let pairs ps =
    String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ps)
  in
  Printf.sprintf "size %d\nr: %s\ns: %s\nkeep: %s" n (pairs ps) (pairs qs)
    (String.concat ";" (List.map string_of_int keep))

(* A result, or the fact that Invalid_argument was raised. *)
let outcome f =
  match f () with v -> Some v | exception Invalid_argument _ -> None
let raises f = Option.is_none (outcome f)

let collect iter =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc);
  List.rev !acc

let differential (n, ps, qs, keep) =
  let r = Rel.of_pairs n ps and r' = Ref.of_pairs n ps in
  let s = Rel.of_pairs n qs and s' = Ref.of_pairs n qs in
  let keep = Bitset.of_list n keep in
  let same a a' = Rel.size a = Ref.size a' && Rel.pairs a = Ref.pairs a' in
  let rs = Rel.union r s and rs' = Ref.union r' s' in
  let ids = List.init (n + 2) (fun i -> i - 1) in
  let every f = List.for_all (fun a -> List.for_all (f a) ids) ids in
  let mutated f f' =
    let a = Rel.copy r and a' = Ref.copy r' in
    every (fun x y ->
        outcome (fun () -> f a x y) = outcome (fun () -> f' a' x y))
    && same a a'
  in
  let into () =
    let a = Rel.copy r and a' = Ref.copy r' in
    Rel.union_into ~into:a s;
    Ref.union_into ~into:a' s';
    same a a'
  in
  let graphs =
    [ (r, r'); (rs, rs'); (Rel.transitive_closure r, Ref.transitive_closure r') ]
  in
  let on_graphs f = List.for_all (fun (g, g') -> f g g') graphs in
  let bigger = Rel.create (n + 1) and bigger' = Ref.create (n + 1) in
  let checks =
    [
      ("of_pairs", same r r');
      ("copy", same (Rel.copy r) (Ref.copy r'));
      ("union", same rs rs');
      ("union_into", into ());
      ("inter", same (Rel.inter r s) (Ref.inter r' s'));
      ("diff", same (Rel.diff r s) (Ref.diff r' s'));
      ("compose", same (Rel.compose r s) (Ref.compose r' s'));
      ("transpose", same (Rel.transpose r) (Ref.transpose r'));
      ("restrict", same (Rel.restrict rs keep) (Ref.restrict rs' keep));
      ( "transitive_closure",
        on_graphs (fun g g' ->
            same (Rel.transitive_closure g) (Ref.transitive_closure g')) );
      ( "mem",
        every (fun a b ->
            outcome (fun () -> Rel.mem r a b) = outcome (fun () -> Ref.mem r' a b))
      );
      ("add", mutated Rel.add Ref.add);
      ("remove", mutated Rel.remove Ref.remove);
      ( "iter_pairs",
        collect (fun f -> Rel.iter_pairs (fun a b -> f (a, b)) rs)
        = collect (fun f -> Ref.iter_pairs (fun a b -> f (a, b)) rs') );
      ( "iter_successors",
        List.for_all
          (fun a ->
            let row iter g = outcome (fun () -> collect (fun f -> iter f g a)) in
            row Rel.iter_successors rs = row Ref.iter_successors rs')
          ids );
      ("cardinal", on_graphs (fun g g' -> Rel.cardinal g = Ref.cardinal g'));
      ("is_empty", on_graphs (fun g g' -> Rel.is_empty g = Ref.is_empty g'));
      ( "equal",
        Rel.equal r rs = Ref.equal r' rs' && Rel.equal r r = Ref.equal r' r' );
      ( "subrel",
        Rel.subrel r rs = Ref.subrel r' rs'
        && Rel.subrel rs r = Ref.subrel rs' r' );
      ( "is_transitive",
        on_graphs (fun g g' -> Rel.is_transitive g = Ref.is_transitive g') );
      ( "irreflexive",
        on_graphs (fun g g' -> Rel.irreflexive g = Ref.irreflexive g') );
      ("acyclic", on_graphs (fun g g' -> Rel.acyclic g = Ref.acyclic g'));
      ( "acyclic_within",
        Rel.acyclic_within r s keep
        = Ref.acyclic (Ref.restrict rs' keep) );
      ( "reaches_within",
        let from = Bitset.of_list n (List.map fst qs) in
        let closed = Ref.transitive_closure (Ref.restrict rs' keep) in
        List.for_all
          (fun b ->
            Rel.reaches_within r s keep from b
            = (Bitset.mem keep b
              && (Bitset.mem from b
                 || List.exists
                      (fun a -> Bitset.mem keep a && Ref.mem closed a b)
                      (Bitset.elements from))))
          (List.filter (fun b -> b mod 5 = 0 || b = n - 1) (List.init n Fun.id))
      );
      ( "add_row",
        List.for_all
          (fun a ->
            let g = Rel.copy r and g' = Ref.copy r' in
            outcome (fun () -> Rel.add_row g a keep)
            = outcome (fun () ->
                  if a < 0 || a >= n then invalid_arg "Rel: out of range";
                  Bitset.iter (Ref.add g' a) keep)
            && same g g')
          [ -1; 0; n / 2; n - 1; n ] );
      ( "topological_sort",
        on_graphs (fun g g' ->
            Rel.topological_sort g = Ref.topological_sort g') );
      ( "find_cycle",
        on_graphs (fun g g' -> Rel.find_cycle g = Ref.find_cycle g') );
      ( "strongly_connected_components",
        on_graphs (fun g g' ->
            Rel.strongly_connected_components g
            = Ref.strongly_connected_components g') );
      ( "pp",
        Format.asprintf "%a" Rel.pp rs = Format.asprintf "%a" Ref.pp rs' );
      ( "size mismatch",
        List.for_all Fun.id
          [
            raises (fun () -> Rel.union r bigger);
            raises (fun () -> Rel.inter bigger r);
            raises (fun () -> Rel.diff r bigger);
            raises (fun () -> Rel.compose r bigger);
            raises (fun () -> Rel.equal r bigger);
            raises (fun () -> Rel.subrel bigger r);
            raises (fun () -> Rel.union_into ~into:(Rel.copy r) bigger);
            raises (fun () -> Rel.restrict r (Bitset.create (n + 1)));
            raises (fun () -> Ref.union r' bigger');
            raises (fun () -> Ref.inter bigger' r');
            raises (fun () -> Ref.diff r' bigger');
            raises (fun () -> Ref.compose r' bigger');
            raises (fun () -> Ref.equal r' bigger');
            raises (fun () -> Ref.subrel bigger' r');
            raises (fun () -> Ref.union_into ~into:(Ref.copy r') bigger');
            raises (fun () -> Ref.restrict r' (Bitset.create (n + 1)));
          ] );
      ( "negative size",
        outcome (fun () -> Rel.size (Rel.create (-1 - n)))
        = outcome (fun () -> Ref.size (Ref.create (-1 - n))) );
    ]
  in
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | None -> true
  | Some (name, _) ->
      QCheck.Test.fail_reportf "Rel.%s differs from the reference" name

let prop_differential =
  QCheck.Test.make
    ~name:"every operation agrees with the one-Bitset-per-row reference"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    differential

(* Bitset's iterators visit set bits only; a scan with mem is the
   reference. *)
let prop_bitset_iteration =
  let gen =
    QCheck.Gen.(
      let* n = frequency [ (1, oneofl boundaries); (1, int_range 0 130) ] in
      let* xs =
        if n = 0 then return []
        else list_size (int_bound n) (int_bound (n - 1))
      in
      return (n, xs))
  in
  QCheck.Test.make ~name:"bitset iteration visits exactly the members"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(pair int (list int)) gen)
    (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      let members = List.filter (Bitset.mem s) (List.init n Fun.id) in
      let next i = List.find_opt (fun x -> x >= i) members in
      collect (fun f -> Bitset.iter f s) = members
      && Bitset.elements s = members
      && Bitset.fold (fun x acc -> x :: acc) s [] = List.rev members
      && Bitset.cardinal s = List.length members
      && List.for_all
           (fun i -> Bitset.next s i = Option.value (next i) ~default:(-1))
           (List.init (n + 1) Fun.id))

let () =
  Alcotest.run "relation"
    [
      ( "bitset",
        [
          tc "basics" bitset_basics;
          tc "set operations" bitset_set_ops;
          tc "bounds checking" bitset_bounds;
        ] );
      ( "rel",
        [
          tc "basics and closure" rel_basics;
          tc "algebra" rel_algebra;
          tc "restrict" rel_restrict;
          tc "acyclicity and cycles" rel_acyclic;
          tc "topological sort" rel_topo;
          tc "linear extensions" rel_linear_extensions;
          tc "strongly connected components" rel_scc;
        ] );
      ("perm", [ tc "counts" perm_counts; tc "product" perm_product ]);
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_differential; prop_bitset_iteration ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_closure_idempotent;
            prop_closure_extensive;
            prop_acyclic_iff_topo;
            prop_acyclic_iff_irreflexive_closure;
            prop_find_cycle_consistent;
            prop_transpose_involution;
            prop_scc_vs_acyclic;
            prop_extensions_respect_order;
          ] );
    ]
