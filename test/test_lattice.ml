(* Tests of the lattice reconstruction — the paper's §4 and Figure 5 as
   executable assertions. *)

module Enumerate = Smem_lattice.Enumerate
module Classify = Smem_lattice.Classify
module Registry = Smem_core.Registry
module Model = Smem_core.Model

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let model key = Option.get (Registry.find key)

let enumerate_counts () =
  (* 1 proc, 1 op, 1 loc, values <= 1: w(x)1, r(x)0, r(x)1 -> 3. *)
  let c = { Enumerate.procs = [ 1 ]; nlocs = 1; max_value = 1; labeled = false } in
  check Alcotest.int "3 single-op histories" 3 (Enumerate.count c);
  let n = ref 0 in
  Enumerate.iter c ~f:(fun _ -> incr n);
  check Alcotest.int "iter matches count" 3 !n;
  (* labels double the choices *)
  let cl = { c with Enumerate.labeled = true } in
  check Alcotest.int "labels double" 6 (Enumerate.count cl);
  (* default scope *)
  check Alcotest.int "default scope size" 1296 (Enumerate.count Enumerate.default)

let enumerate_shapes () =
  let c = { Enumerate.procs = [ 2; 1 ]; nlocs = 1; max_value = 1; labeled = false } in
  Enumerate.iter c ~f:(fun h ->
      check Alcotest.int "procs" 2 (Smem_core.History.nprocs h);
      check Alcotest.int "p0 ops" 2
        (Array.length (Smem_core.History.proc_ops h 0));
      check Alcotest.int "p1 ops" 1
        (Array.length (Smem_core.History.proc_ops h 1)))

(* The headline: the classification over the standard scopes reproduces
   Figure 5 exactly. *)
let figure5 () =
  let m =
    Classify.classify_scopes ~models:Registry.comparable Classify.standard_scopes
  in
  let index key =
    let rec go i = function
      | [] -> Alcotest.failf "model %s missing" key
      | (mo : Model.t) :: rest -> if mo.Model.key = key then i else go (i + 1) rest
    in
    go 0 m.Classify.models
  in
  let rel a b = Classify.relation m (index a) (index b) in
  check Alcotest.bool "SC < TSO" true (rel "sc" "tso" = Classify.Stronger);
  check Alcotest.bool "TSO < PC" true (rel "tso" "pc" = Classify.Stronger);
  check Alcotest.bool "TSO < Causal" true (rel "tso" "causal" = Classify.Stronger);
  check Alcotest.bool "PC || Causal" true (rel "pc" "causal" = Classify.Incomparable);
  check Alcotest.bool "PC < PRAM" true (rel "pc" "pram" = Classify.Stronger);
  check Alcotest.bool "Causal < PRAM" true (rel "causal" "pram" = Classify.Stronger);
  (* Hasse diagram: exactly the edges of Figure 5. *)
  let edges =
    List.map
      (fun (i, j) ->
        ( (List.nth m.Classify.models i).Model.key,
          (List.nth m.Classify.models j).Model.key ))
      (Classify.hasse_edges m)
    |> List.sort compare
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "Figure 5 Hasse edges"
    [
      ("causal", "pram");
      ("pc", "pram");
      ("sc", "tso");
      ("tso", "causal");
      ("tso", "pc");
    ]
    edges;
  (* Witnesses exist for each strict separation and are real: allowed by
     the weaker, forbidden by the stronger. *)
  let witness_ok weaker stronger =
    match m.Classify.witness.(index weaker).(index stronger) with
    | None -> Alcotest.failf "no witness for %s \\ %s" weaker stronger
    | Some h ->
        let get key =
          match Registry.find key with Some mo -> mo | None -> assert false
        in
        check Alcotest.bool (weaker ^ " allows witness") true
          (Model.check (get weaker) h);
        check Alcotest.bool (stronger ^ " forbids witness") false
          (Model.check (get stronger) h)
  in
  witness_ok "tso" "sc";
  witness_ok "pc" "tso";
  witness_ok "causal" "tso";
  witness_ok "pram" "pc";
  witness_ok "pram" "causal";
  witness_ok "pc" "causal";
  witness_ok "causal" "pc"

(* Extended-family relations over the Figure-1 scope.  Only facts that
   hold both in-scope and in general are asserted. *)
let extended_family () =
  let models =
    List.map model [ "causal-coh"; "causal"; "coh"; "pram"; "slow"; "local" ]
  in
  let m = Classify.classify ~models Enumerate.default in
  let index key =
    let rec go i = function
      | [] -> Alcotest.failf "model %s missing" key
      | (mo : Model.t) :: rest -> if mo.Model.key = key then i else go (i + 1) rest
    in
    go 0 m.Classify.models
  in
  let rel a b = Classify.relation m (index a) (index b) in
  check Alcotest.bool "causal-coh ⊆ causal" true
    (match rel "causal-coh" "causal" with
    | Classify.Stronger | Classify.Equal -> true
    | _ -> false);
  check Alcotest.bool "causal-coh ⊆ coh" true
    (match rel "causal-coh" "coh" with
    | Classify.Stronger | Classify.Equal -> true
    | _ -> false);
  check Alcotest.bool "causal ⊆ pram" true
    (match rel "causal" "pram" with
    | Classify.Stronger | Classify.Equal -> true
    | _ -> false);
  check Alcotest.bool "pram ⊆ slow" true
    (match rel "pram" "slow" with
    | Classify.Stronger | Classify.Equal -> true
    | _ -> false);
  check Alcotest.bool "coh || pram" true (rel "coh" "pram" = Classify.Incomparable)

(* The projection edges Figure 5 gained so the service can infer
   cells (DESIGN.md "Figure 5 decides cells" proves each), checked on
   every history of the standard scopes.  Atomic -> SC is left to
   test_models' timed property: these histories carry no timing, and
   without it the two models coincide. *)
let projection_edges_exhaustive () =
  let edges =
    [
      ("sc", "wo");
      ("sc", "causal-coh");
      ("causal-coh", "causal");
      ("causal-coh", "pc-g");
      ("pram", "slow");
      ("slow", "local");
      ("tso", "tso-op");
      ("sc", "session(ryw,mr,mw,wfr)");
      ("causal", "causal-obj");
      ("causal-obj", "causal");
    ]
  in
  let histories = ref 0 in
  List.iter
    (fun scope ->
      Enumerate.iter scope ~f:(fun h ->
          incr histories;
          let verdicts = Hashtbl.create 8 in
          let allows key =
            match Hashtbl.find_opt verdicts key with
            | Some v -> v
            | None ->
                let v = Model.check (model key) h in
                Hashtbl.add verdicts key v;
                v
          in
          List.iter
            (fun (s, w) ->
              if allows s && not (allows w) then
                Alcotest.failf "%s allows and %s forbids %a" s w
                  Smem_core.History.pp h)
            edges))
    Classify.standard_scopes;
  check Alcotest.int "every history of the three scopes" 24697 !histories

(* SC -> RC_sc is guarded by the one condition its proof uses: no
   acquire reads a location holding both labeled and ordinary writes.
   On every labeled history of the Figure 1 scope the edge holds where
   the guard does, and every history SC allows and RC_sc forbids fails
   the guard (so the guard is not vacuous either). *)
let sc_rc_guard_exhaustive () =
  let module Figure5 = Smem_lattice.Figure5 in
  let scope =
    { Enumerate.procs = [ 2; 2 ]; nlocs = 2; max_value = 1; labeled = true }
  in
  let histories = ref 0 and guarded = ref 0 and separating = ref 0 in
  Enumerate.iter scope ~f:(fun h ->
      incr histories;
      let guard = Figure5.holds Figure5.Acquires_unmixed h in
      if guard then incr guarded;
      if Model.check (model "sc") h then begin
        let rc_sc = Model.check (model "rc-sc") h in
        if not rc_sc then begin
          incr separating;
          if guard then
            Alcotest.failf "the guard holds where sc allows and rc-sc forbids %a"
              Smem_core.History.pp h
        end;
        if guard && not (rc_sc && Model.check (model "rc-pc") h) then
          Alcotest.failf "sc allows, the guard holds, and rc-pc forbids %a"
            Smem_core.History.pp h
      end);
  check Alcotest.int "every history of the labeled scope" 20736 !histories;
  check Alcotest.int "the guard admits" 19776 !guarded;
  check Alcotest.int "sc allows and rc-sc forbids" 52 !separating

(* Classify recomputes Figure 5, so it must not use Figure 5 to skip a
   search: one Model.check per (history, model). *)
let classify_searches_every_cell () =
  let module Stats = Smem_core.Stats in
  let models = Registry.comparable in
  Stats.reset ();
  let m = Classify.classify ~models Enumerate.default in
  check Alcotest.int "one search per (history, model)"
    (m.Classify.total * List.length models)
    (Stats.snapshot ()).Stats.checks

let merge_is_sane () =
  let c1 = { Enumerate.procs = [ 1 ]; nlocs = 1; max_value = 1; labeled = false } in
  let models = [ model "sc"; model "pram" ] in
  let m1 = Classify.classify ~models c1 in
  let merged = Classify.merge m1 m1 in
  check Alcotest.int "totals add" (2 * m1.Classify.total) merged.Classify.total;
  check Alcotest.int "counts add"
    (2 * m1.Classify.allowed_counts.(0))
    merged.Classify.allowed_counts.(0);
  Alcotest.check_raises "model mismatch rejected"
    (Invalid_argument "Classify.merge: model lists differ") (fun () ->
      ignore (Classify.merge m1 (Classify.classify ~models:[ model "sc" ] c1)))

let dot_output () =
  let c = { Enumerate.procs = [ 1 ]; nlocs = 1; max_value = 1; labeled = false } in
  let m = Classify.classify ~models:[ model "sc"; model "pram" ] c in
  let dot = Classify.to_dot m in
  check Alcotest.bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph")

let distinguish_verdicts () =
  let get key =
    match Registry.find key with Some m -> m | None -> assert false
  in
  let scopes = Classify.standard_scopes in
  (match Smem_lattice.Distinguish.compare ~a:(get "sc") ~b:(get "tso") scopes with
  | Smem_lattice.Distinguish.A_stronger w ->
      check Alcotest.bool "witness allowed by tso" true
        (Model.check (get "tso") w);
      check Alcotest.bool "witness forbidden by sc" false
        (Model.check (get "sc") w)
  | _ -> Alcotest.fail "expected SC strictly stronger than TSO");
  (match Smem_lattice.Distinguish.compare ~a:(get "pc") ~b:(get "causal") scopes with
  | Smem_lattice.Distinguish.Incomparable (wa, wb) ->
      check Alcotest.bool "pc-only witness" true
        (Model.check (get "pc") wa && not (Model.check (get "causal") wa));
      check Alcotest.bool "causal-only witness" true
        (Model.check (get "causal") wb && not (Model.check (get "pc") wb))
  | _ -> Alcotest.fail "expected PC and causal incomparable");
  let tiny =
    [ { Enumerate.procs = [ 1 ]; nlocs = 1; max_value = 1; labeled = false } ]
  in
  match Smem_lattice.Distinguish.compare ~a:(get "sc") ~b:(get "pram") tiny with
  | Smem_lattice.Distinguish.Equal -> ()
  | _ -> Alcotest.fail "single-op histories cannot separate SC from PRAM"

let () =
  Alcotest.run "lattice"
    [
      ( "enumerate",
        [ tc "counts" enumerate_counts; tc "shapes" enumerate_shapes ] );
      ("figure 5", [ tc "relations, edges and witnesses" figure5 ]);
      ( "extended family",
        [
          tc "known containments hold in scope" extended_family;
          tc "projection edges hold on the standard scopes"
            projection_edges_exhaustive;
          tc "sc <= rc-sc wherever its guard holds (labeled scope)"
            sc_rc_guard_exhaustive;
        ] );
      ( "classify",
        [
          tc "merge" merge_is_sane;
          tc "dot" dot_output;
          tc "searches every cell" classify_searches_every_cell;
        ] );
      ("distinguish", [ tc "verdicts and witnesses" distinguish_verdicts ]);
    ]
