(* Tests of the little concurrent language and its explorer: expression
   evaluation, local stepping, layouts, and the mutual-exclusion results
   of §5 (Bakery safe on RC_sc, broken on RC_pc) plus the classical
   TSO failures of Peterson/Dekker. *)

module Ast = Smem_lang.Ast
module Exec = Smem_lang.Exec
module Explore = Smem_lang.Explore
module Programs = Smem_lang.Programs
module Machines = Smem_machine.Machines

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let machine key =
  match Machines.find key with
  | Some m -> m
  | None -> Alcotest.failf "unknown machine %s" key

(* ---------------- expressions and environments ---------------- *)

let env_semantics () =
  let env = Exec.Env.empty in
  check Alcotest.int "unset reads 0" 0 (Exec.Env.get env "r");
  let env = Exec.Env.set env "b" 2 in
  let env = Exec.Env.set env "a" 1 in
  let env = Exec.Env.set env "b" 3 in
  check Alcotest.int "get a" 1 (Exec.Env.get env "a");
  check Alcotest.int "overwrite b" 3 (Exec.Env.get env "b");
  (* canonical representation: insertion order doesn't matter *)
  let env2 = Exec.Env.set (Exec.Env.set Exec.Env.empty "a" 1) "b" 3 in
  check Alcotest.bool "canonical" true
    (Exec.Env.bindings env = Exec.Env.bindings env2)

let eval_expressions () =
  let env = Exec.Env.set Exec.Env.empty "x" 5 in
  let cases =
    [
      (Ast.Int 3, 3);
      (Ast.Reg "x", 5);
      (Ast.Add (Ast.Int 1, Ast.Reg "x"), 6);
      (Ast.Sub (Ast.Reg "x", Ast.Int 2), 3);
      (Ast.Mul (Ast.Int 2, Ast.Int 3), 6);
      (Ast.Eq (Ast.Reg "x", Ast.Int 5), 1);
      (Ast.Ne (Ast.Reg "x", Ast.Int 5), 0);
      (Ast.Lt (Ast.Int 1, Ast.Int 2), 1);
      (Ast.Le (Ast.Int 2, Ast.Int 2), 1);
      (Ast.And (Ast.Int 1, Ast.Int 0), 0);
      (Ast.Or (Ast.Int 1, Ast.Int 0), 1);
      (Ast.Not (Ast.Int 0), 1);
    ]
  in
  List.iteri
    (fun i (e, expected) ->
      check Alcotest.int (Printf.sprintf "case %d" i) expected (Exec.eval env e))
    cases

(* ---------------- layout ---------------- *)

let layout_flattening () =
  let program =
    { Ast.shared = [ ("flag", 2); ("turn", 1) ]; threads = [| [] |] }
  in
  let l = Ast.layout program in
  check Alcotest.int "nlocs" 3 (Ast.nlocs l);
  check Alcotest.int "flag[1]" 1 (Ast.loc_id l "flag" 1);
  check Alcotest.int "turn" 2 (Ast.loc_id l "turn" 0);
  check Alcotest.string "names" "flag[1]" (Ast.loc_names l).(1);
  check Alcotest.string "scalar name" "turn" (Ast.loc_names l).(2);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Ast.loc_id: flag[2] out of bounds") (fun () ->
      ignore (Ast.loc_id l "flag" 2))

(* ---------------- local stepping ---------------- *)

let stepping () =
  let program = { Ast.shared = [ ("x", 1) ]; threads = [| [] |] } in
  let layout = Ast.layout program in
  let cont =
    [
      Ast.Assign ("a", Ast.Int 2);
      Ast.If
        ( Ast.Eq (Ast.Reg "a", Ast.Int 2),
          [ Ast.store (Ast.var "x") (Ast.Reg "a") ],
          [] );
    ]
  in
  match Exec.step_to_action layout ~env:Exec.Env.empty ~cont ~fuel:100 with
  | Exec.At_action (Exec.A_store { loc; value; labeled }, _, rest) ->
      check Alcotest.int "loc" 0 loc;
      check Alcotest.int "value" 2 value;
      check Alcotest.bool "ordinary" false labeled;
      check Alcotest.int "continuation" 0 (List.length rest)
  | _ -> Alcotest.fail "expected a store action"

let stepping_loops () =
  let program = { Ast.shared = [ ("x", 1) ]; threads = [| [] |] } in
  let layout = Ast.layout program in
  (* a for loop that sums 1..3 into r, then terminates *)
  let cont =
    [
      Ast.For
        {
          var = "i";
          from_ = Ast.Int 1;
          to_ = Ast.Int 3;
          body = [ Ast.Assign ("r", Ast.Add (Ast.Reg "r", Ast.Reg "i")) ];
        };
    ]
  in
  (match Exec.step_to_action layout ~env:Exec.Env.empty ~cont ~fuel:100 with
  | Exec.Finished env -> check Alcotest.int "sum" 6 (Exec.Env.get env "r")
  | _ -> Alcotest.fail "expected termination");
  (* fuel exhaustion on a memory-free loop *)
  let spin = [ Ast.While (Ast.Int 1, [ Ast.Assign ("a", Ast.Int 1) ]) ] in
  match Exec.step_to_action layout ~env:Exec.Env.empty ~cont:spin ~fuel:50 with
  | Exec.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* ---------------- mutual exclusion ---------------- *)

let is_safe = function Explore.Safe _ -> true | _ -> false
let is_violation = function Explore.Violation _ -> true | _ -> false

let mutex_expect name program machine_key expect_safe () =
  ignore name;
  let verdict = Explore.check_mutex (machine machine_key) program in
  if expect_safe then
    check Alcotest.bool (machine_key ^ " safe") true (is_safe verdict)
  else check Alcotest.bool (machine_key ^ " violated") true (is_violation verdict)

let mutex_cases =
  [
    (* The §5 headline: the Bakery algorithm distinguishes RC_sc from
       RC_pc. *)
    tc "bakery(2) safe on sc" (mutex_expect "bakery" (Programs.bakery ~n:2 ()) "sc" true);
    tc "bakery(2) safe on rc-sc"
      (mutex_expect "bakery" (Programs.bakery ~n:2 ()) "rc-sc" true);
    tc "bakery(2) VIOLATED on rc-pc"
      (mutex_expect "bakery" (Programs.bakery ~n:2 ()) "rc-pc" false);
    tc "bakery(2) violated on tso"
      (mutex_expect "bakery" (Programs.bakery ~n:2 ()) "tso" false);
    tc "bakery(2) violated on pram"
      (mutex_expect "bakery" (Programs.bakery ~n:2 ()) "pram" false);
    tc "peterson safe on sc" (mutex_expect "peterson" (Programs.peterson ()) "sc" true);
    tc "peterson violated on tso"
      (mutex_expect "peterson" (Programs.peterson ()) "tso" false);
    tc "dekker safe on sc" (mutex_expect "dekker" (Programs.dekker ()) "sc" true);
    tc "dekker violated on tso"
      (mutex_expect "dekker" (Programs.dekker ()) "tso" false);
    tc "naive flags violated even on sc"
      (mutex_expect "naive" (Programs.naive_flags ()) "sc" false);
    tc "bakery(3) safe on sc"
      (mutex_expect "bakery" (Programs.bakery ~n:3 ()) "sc" true);
    (* All three read/write-only algorithms survive RC_sc and break on
       RC_pc: the §5 separation is not specific to the Bakery
       algorithm. *)
    tc "peterson safe on rc-sc"
      (mutex_expect "peterson" (Programs.peterson ()) "rc-sc" true);
    tc "peterson violated on rc-pc"
      (mutex_expect "peterson" (Programs.peterson ()) "rc-pc" false);
    tc "dekker safe on rc-sc"
      (mutex_expect "dekker" (Programs.dekker ()) "rc-sc" true);
    tc "dekker violated on rc-pc"
      (mutex_expect "dekker" (Programs.dekker ()) "rc-pc" false);
  ]

(* The converse of the §5 moral: a read-modify-write lock is safe on
   every machine, including the ones where the Bakery algorithm and
   Peterson's break. *)
let spinlock_cases =
  List.map
    (fun key ->
      tc
        (Printf.sprintf "tas spinlock safe on %s" key)
        (mutex_expect "spinlock" (Programs.tas_spinlock ()) key true))
    [ "sc"; "tso"; "pc-g"; "causal"; "pram"; "rc-sc"; "rc-pc" ]

(* Random scheduling almost never finds the violations exhaustive
   exploration proves: 1000 seeded runs per machine, each machine from a
   fresh generator, hit the rc-pc and tso ones once each. *)
let random_schedule_counts () =
  let program = Programs.bakery ~n:2 () in
  List.iter
    (fun (key, expected) ->
      let rand = Random.State.make [| 2026 |] in
      let violations = ref 0 in
      for _ = 1 to 1000 do
        let _, violated = Explore.run_random (machine key) program ~rand in
        if violated then incr violations
      done;
      check Alcotest.int (key ^ " violations in 1000 runs") expected
        !violations)
    [ ("sc", 0); ("rc-sc", 0); ("rc-pc", 1); ("tso", 1) ]

(* ---------------- liveness ---------------- *)

(* §5 recalls that Bakery under SC is free from deadlocks; here that is
   the property that every reachable state can still reach
   termination. *)
let deadlock_freedom () =
  let is_free prog m =
    match Explore.check_deadlock_freedom (machine m) prog with
    | Explore.Deadlock_free _ -> true
    | _ -> false
  in
  check Alcotest.bool "bakery(2) deadlock-free on sc" true
    (is_free (Programs.bakery ~n:2 ()) "sc");
  check Alcotest.bool "bakery(2) deadlock-free on rc-sc" true
    (is_free (Programs.bakery ~n:2 ()) "rc-sc");
  check Alcotest.bool "peterson deadlock-free on sc" true
    (is_free (Programs.peterson ()) "sc");
  check Alcotest.bool "dekker deadlock-free on sc" true
    (is_free (Programs.dekker ()) "sc");
  check Alcotest.bool "spinlock deadlock-free on rc-pc" true
    (is_free (Programs.tas_spinlock ()) "rc-pc");
  (* negative control: a spin on a flag nobody sets *)
  let stuck =
    {
      Ast.shared = [ ("x", 1) ];
      threads =
        [|
          [
            Ast.load "f" (Ast.var "x");
            Ast.While
              (Ast.Eq (Ast.Reg "f", Ast.Int 0), [ Ast.load "f" (Ast.var "x") ]);
          ];
        |];
    }
  in
  match Explore.check_deadlock_freedom (machine "sc") stuck with
  | Explore.Stuck n -> check Alcotest.bool "dead states found" true (n > 0)
  | _ -> Alcotest.fail "expected stuck states"

(* ---------------- concrete syntax ---------------- *)

let parse_ok src =
  match Smem_lang.Parse_prog.program_of_string src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Smem_lang.Parse_prog.pp_error e

let parse_err src =
  match Smem_lang.Parse_prog.program_of_string src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let prog_parse_basics () =
  let p =
    parse_ok
      "shared x
shared a[3]
thread 0 {
  r := 1 + 2 * 3
  store* x := r
         load v <- a[r - 6]
  enter
  exit
}
"
  in
  check Alcotest.int "one thread" 1 (Array.length p.Ast.threads);
  check Alcotest.int "two arrays" 2 (List.length p.Ast.shared);
  (match p.Ast.threads.(0) with
  | [ Ast.Assign ("r", e); Ast.Store { labeled = true; _ };
      Ast.Load { labeled = false; _ }; Ast.Cs_enter; Ast.Cs_exit ] ->
      check Alcotest.int "precedence" 7 (Exec.eval Exec.Env.empty e)
  | _ -> Alcotest.fail "unexpected statement shape");
  (* structured statements *)
  let p2 =
    parse_ok
      "shared x
thread 0 {
  if a == 0 { b := 1 } else { b := 2 }
  while        b != 0 { b := b - 1 }
  for i = 0 to 3 { c := c + i }
}
"
  in
  check Alcotest.int "three statements" 3 (List.length p2.Ast.threads.(0))

let prog_parse_errors () =
  let e = parse_err "thread 1 {
}
" in
  check Alcotest.int "thread numbering" 1 e.Smem_lang.Parse_prog.line;
  let e2 = parse_err "shared x
shared x
thread 0 {}
" in
  check Alcotest.int "duplicate shared" 2 e2.Smem_lang.Parse_prog.line;
  let e3 = parse_err "shared x
thread 0 {
  store x 1
}
" in
  check Alcotest.int "missing :=" 3 e3.Smem_lang.Parse_prog.line;
  let e4 = parse_err "" in
  check Alcotest.bool "empty input rejected" true (e4.Smem_lang.Parse_prog.line >= 1)

(* Printing then reparsing the whole program library preserves the AST
   and, more importantly, the behaviour. *)
let prog_roundtrip () =
  List.iter
    (fun (name, p) ->
      let printed = Smem_lang.Print_prog.to_string p in
      let p' = parse_ok printed in
      check Alcotest.bool (name ^ " AST round-trips") true (p = p'))
    [
      ("bakery", Programs.bakery ~n:2 ());
      ("bakery3", Programs.bakery ~n:3 ());
      ("peterson", Programs.peterson ());
      ("dekker", Programs.dekker ());
      ("naive", Programs.naive_flags ());
      ("spinlock", Programs.tas_spinlock ());
    ]

(* ---------------- races and the properly-labeled condition ---------------- *)

let race_verdicts () =
  let is_free p =
    match Smem_lang.Races.find_race p with
    | Smem_lang.Races.Race_free _ -> true
    | _ -> false
  in
  check Alcotest.bool "bakery labeled is properly labeled" true
    (is_free (Programs.bakery ~n:2 ()));
  check Alcotest.bool "bakery unlabeled races" false
    (is_free (Programs.bakery ~labeled:false ~n:2 ()));
  check Alcotest.bool "peterson labeled is properly labeled" true
    (is_free (Programs.peterson ()));
  check Alcotest.bool "peterson unlabeled races" false
    (is_free (Programs.peterson ~labeled:false ()));
  check Alcotest.bool "dekker labeled is properly labeled" true
    (is_free (Programs.dekker ()));
  check Alcotest.bool "tas spinlock is race-free" true
    (is_free (Programs.tas_spinlock ()));
  (* properly labeled does not mean correct: the naive protocol is
     race-free when labeled yet violates mutual exclusion even on SC. *)
  check Alcotest.bool "naive labeled is race-free" true
    (is_free (Programs.naive_flags ()));
  match Smem_lang.Races.find_race (Programs.peterson ~labeled:false ()) with
  | Smem_lang.Races.Race (a, b) ->
      check Alcotest.bool "race is conflicting" true
        (a.Smem_lang.Races.loc = b.Smem_lang.Races.loc);
      check Alcotest.bool "race has an ordinary participant" true
        ((not a.Smem_lang.Races.labeled) || not b.Smem_lang.Races.labeled)
  | _ -> Alcotest.fail "expected a race"

(* The DRF guarantee of §1 (Gibbons-Merritt-Gharachorloo, for RC_sc):
   properly labeled programs behave as on SC.  Checked here on the
   mutual-exclusion verdicts of every properly labeled program in the
   library, on the RC_sc machine. *)
let drf_guarantee () =
  let sc_verdict p = Explore.check_mutex (machine "sc") p in
  let rcsc_verdict p = Explore.check_mutex (machine "rc-sc") p in
  let same p =
    match (sc_verdict p, rcsc_verdict p) with
    | Explore.Safe _, Explore.Safe _ -> true
    | Explore.Violation _, Explore.Violation _ -> true
    | _ -> false
  in
  List.iter
    (fun (name, p) ->
      check Alcotest.bool
        (name ^ ": properly labeled implies same verdict on rc-sc")
        true
        (Smem_lang.Races.properly_labeled p && same p))
    [
      ("bakery", Programs.bakery ~n:2 ());
      ("peterson", Programs.peterson ());
      ("dekker", Programs.dekker ());
      ("naive", Programs.naive_flags ());
      ("spinlock", Programs.tas_spinlock ());
    ]

let string_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let violation_trace_structure () =
  match Explore.check_mutex (machine "tso") (Programs.peterson ()) with
  | Explore.Violation trace ->
      let enters =
        List.filter (fun s -> string_contains s "enter critical") trace
      in
      check Alcotest.bool "two entries" true (List.length enters >= 2)
  | _ -> Alcotest.fail "expected a violation"

(* ---------------- the unreduced explorer ---------------- *)

(* Every enabled transition of every reachable state, memoized on
   states: the differential oracle for the DPOR-backed
   {!Explore.check_mutex} and the anchor of the pinned state/transition
   counts.  Returns the verdict and the transitions traversed (revisits
   included); [max_transitions] bounds the work, so [State_limit]
   accounts for explored transitions, not just distinct states. *)

exception Found of string list

let check_mutex_naive ?(max_states = 2_000_000) ?(max_transitions = 20_000_000)
    ?(fuel = 10_000) (module M : Smem_machine.Machine_sig.MACHINE) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let visited = Hashtbl.create 65_537 in
  let states = ref 0 in
  let transitions = ref 0 in
  let limit_hit = ref false in
  let rec explore machine threads path =
    incr transitions;
    let key =
      Exec.digest_key
        (machine, Array.map (fun t -> Exec.(t.env, t.cont, t.in_cs)) threads)
    in
    if Hashtbl.mem visited key || !limit_hit then ()
    else begin
      incr states;
      if !states > max_states || !transitions > max_transitions then
        limit_hit := true
      else begin
        Hashtbl.add visited key ();
        let step_thread i (t : Exec.thread) =
          if not t.finished then
            let next machine' t' path' =
              let threads' = Array.copy threads in
              threads'.(i) <- t';
              explore machine' threads' path'
            in
            match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
            | Exec.Out_of_fuel -> limit_hit := true
            | Exec.Finished env -> next machine { t with env; finished = true } path
            | Exec.At_action (action, env, cont) ->
                let path' = Smem_lang.Dpor.describe_action i action :: path in
                if
                  action = Exec.A_enter
                  && Array.exists (fun u -> u.Exec.in_cs) threads
                then raise (Found (List.rev path'));
                let machine', t', _ =
                  Exec.perform (module M) machine ~proc:i t action env cont
                in
                next machine' t' path'
        in
        Array.iteri step_thread threads;
        List.iter
          (fun machine' ->
            explore machine' threads (".: internal step" :: path))
          (M.internal machine)
      end
    end
  in
  let verdict =
    try
      explore
        (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
        (Exec.initial_threads program)
        [];
      if !limit_hit then Explore.State_limit else Explore.Safe !states
    with Found trace -> Explore.Violation trace
  in
  (verdict, !transitions)

(* ---------------- DPOR and the fold vs. naive enumeration ---------------- *)

(* The two differential oracles.  fold_traces must emit the same *set*
   of (history class, final registers) pairs as the naive
   full-interleaving enumeration below; check_mutex must return the
   same verdict as the unreduced enumerator above on every (program,
   machine) cell. *)

let outcome_key (h, envs) =
  (Smem_core.Canon.digest h, Array.to_list (Array.map Exec.Env.bindings envs))

let fold_set ?(max_transitions = 100_000) m p =
  Explore.fold_traces ~max_transitions m p ~init:[] ~f:(fun acc o ->
      outcome_key o :: acc)
  |> Result.map (List.sort_uniq compare)

(* Every maximal interleaving of a loop-free program, with no
   memoization: the set of their outcomes, or [None] once more than
   [max_transitions] transitions have been executed. *)
let naive_set ?(max_transitions = 100_000) ?(fuel = 10_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let transitions = ref 0 in
  let outcomes = ref [] in
  let exception Budget in
  let rec explore machine threads trace =
    if Array.for_all (fun t -> t.Exec.finished) threads then
      let h = Exec.history layout ~nthreads (List.rev trace) in
      let envs = Array.map (fun t -> t.Exec.env) threads in
      outcomes := outcome_key (h, envs) :: !outcomes
    else begin
      let next machine' threads' trace' =
        incr transitions;
        if !transitions > max_transitions then raise Budget;
        explore machine' threads' trace'
      in
      Array.iteri
        (fun i (t : Exec.thread) ->
          if not t.finished then
            let threads' = Array.copy threads in
            match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
            | Exec.Out_of_fuel -> Alcotest.fail "naive_set: out of local fuel"
            | Exec.Finished env ->
                threads'.(i) <- { t with env; finished = true };
                next machine threads' trace
            | Exec.At_action (action, env, cont) ->
                let machine', t', event =
                  Exec.perform (module M) machine ~proc:i t action env cont
                in
                threads'.(i) <- t';
                next machine' threads'
                  (match event with Some e -> (i, e) :: trace | None -> trace))
        threads;
      List.iter (fun m' -> next m' threads trace) (M.internal machine)
    end
  in
  match
    explore
      (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
      (Exec.initial_threads program)
      []
  with
  | () -> Some (List.sort_uniq compare !outcomes)
  | exception Budget -> None

(* The property's program generator, shared with the pinned cases. *)
let random_program (seed, len, nprocs) =
  let rand = Random.State.make [| 2026; seed |] in
  let labels = [| `No; `Mixed; `Separated |].(seed mod 3) in
  Programs.random ~rand ~nprocs ~nlocs:2 ~len ~labels ()

(* Shrinking happens on the scalar parameters (seed, size, machine
   index): QCheck walks them toward the range floors, so a failure
   reports the smallest program shape that still disagrees. *)
let dpor_traces_agree =
  QCheck.Test.make ~name:"fold_traces: reduced = naive (set of outcomes)"
    ~count:40
    QCheck.(
      quad (0 -- 10_000) (1 -- 2) (2 -- 3)
        (0 -- (List.length Machines.all - 1)))
    (fun (seed, len, nprocs, mi) ->
      let p = random_program (seed, len, nprocs) in
      let m = List.nth Machines.all mi in
      match naive_set m p with
      (* a case too big for the naive side is discarded, not failed:
         the comparison needs both enumerations to finish *)
      | None -> QCheck.assume_fail ()
      | Some naive ->
          (* the memoized fold never executes more transitions than
             the naive walk, so its budget cannot be the one that fails *)
          fold_set m p = Ok naive)

(* Cases where a sleep-set reduction of the fold once dropped
   outcomes.  The random programs are the property's own (seed, len,
   nprocs) cases on sc, checked against the naive set and its size.
   The seqlock cells once exhausted the corpus's 50_000-transition
   budget; they must finish within it, with the naive outcome counts
   (too slow to enumerate here). *)
let fold_pinned () =
  let count name expected = function
    | Ok l -> check Alcotest.int (name ^ ": outcomes") expected (List.length l)
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  List.iter
    (fun (seed, len, nprocs, expected) ->
      let name = Printf.sprintf "random (%d, %d, %d) on sc" seed len nprocs in
      let p = random_program (seed, len, nprocs) in
      let fold = fold_set (machine "sc") p in
      count name expected fold;
      check Alcotest.bool (name ^ ": fold = naive") true
        (Result.to_option fold = naive_set (machine "sc") p))
    [ (0, 2, 3, 19); (13, 2, 3, 30); (105, 2, 3, 6); (3974, 2, 3, 22) ];
  List.iter
    (fun (name, p, key, expected) ->
      count (name ^ " on " ^ key) expected
        (fold_set ~max_transitions:50_000 (machine key) p))
    [
      ("seqlock", Programs.seqlock (), "slow", 24);
      ("seqlock", Programs.seqlock (), "local", 28);
      ("seqlock-u", Programs.seqlock ~labeled:false (), "slow", 24);
      ("seqlock-u", Programs.seqlock ~labeled:false (), "local", 28);
    ]

let same_verdict a b =
  match (a, b) with
  | Explore.Safe _, Explore.Safe _ -> true
  | Explore.Violation _, Explore.Violation _ -> true
  | Explore.State_limit, Explore.State_limit -> true
  | _ -> false

let dpor_mutex_matrix () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun m ->
          let naive, _ = check_mutex_naive m p in
          let reduced = Explore.check_mutex m p in
          check Alcotest.bool
            (Printf.sprintf "%s on %s: DPOR verdict = naive" name
               (Machines.name m))
            true
            (same_verdict naive reduced))
        Machines.all)
    [
      ("bakery2", Programs.bakery ~n:2 ());
      ("peterson", Programs.peterson ());
      ("dekker", Programs.dekker ());
      ("naive-flags", Programs.naive_flags ());
      ("seqlock", Programs.seqlock ());
      ("spinlock", Programs.tas_spinlock ());
    ]

(* The headline acceptance number: on a weak machine the reduced
   exploration of bakery(2) does at least 10x fewer transitions than
   the naive enumeration. *)
let dpor_reduction_ratio () =
  let m = machine "local" in
  let p = Programs.bakery ~n:2 () in
  let _, naive_tr = check_mutex_naive m p in
  let _, stats = Explore.check_mutex_stats m p in
  let reduced_tr = max 1 stats.Smem_lang.Dpor.transitions in
  check Alcotest.bool
    (Printf.sprintf "bakery2/local: %d naive vs %d reduced transitions"
       naive_tr reduced_tr)
    true
    (naive_tr >= 10 * reduced_tr)

(* Exact explored-state counts for the two classic loop-free shapes,
   pinned per machine: any change to stepping, machine transitions, or
   the transition-accounting fix shows up as a diff here.  The DPOR
   side prunes at the root (no critical sections anywhere), so its
   pinned count is 1 state, 0 transitions. *)
let pinned_counts () =
  let expect_naive =
    [
      ( "mp",
        Programs.mp (),
        [
          ("sc", 13, 27); ("tso", 23, 57); ("pc-g", 23, 57); ("causal", 23, 57);
          ("pram", 23, 57); ("slow", 29, 77); ("local", 29, 77);
          ("rc-sc", 16, 36); ("rc-pc", 23, 57);
        ] );
      ( "sb",
        Programs.sb (),
        [
          ("sc", 13, 27); ("tso", 34, 93); ("pc-g", 34, 93); ("causal", 42, 117);
          ("pram", 34, 93); ("slow", 34, 93); ("local", 34, 93);
          ("rc-sc", 34, 93); ("rc-pc", 34, 93);
        ] );
    ]
  in
  List.iter
    (fun (name, p, cells) ->
      List.iter
        (fun (key, states, transitions) ->
          let verdict, tr = check_mutex_naive (machine key) p in
          (match verdict with
          | Explore.Safe n ->
              check Alcotest.int
                (Printf.sprintf "%s/%s naive states" name key)
                states n
          | _ -> Alcotest.failf "%s/%s: expected Safe" name key);
          check Alcotest.int
            (Printf.sprintf "%s/%s naive transitions" name key)
            transitions tr;
          let reduced, stats = Explore.check_mutex_stats (machine key) p in
          (match reduced with
          | Explore.Safe n ->
              check Alcotest.int
                (Printf.sprintf "%s/%s reduced states" name key)
                1 n
          | _ -> Alcotest.failf "%s/%s: expected Safe (reduced)" name key);
          check Alcotest.int
            (Printf.sprintf "%s/%s reduced transitions" name key)
            0
            stats.Smem_lang.Dpor.transitions)
        cells)
    expect_naive

let random_runs_record_histories () =
  let rand = Random.State.make [| 42 |] in
  let h, violated = Explore.run_random (machine "sc") (Programs.peterson ()) ~rand in
  check Alcotest.bool "no violation on sc" false violated;
  check Alcotest.int "two processors" 2 (Smem_core.History.nprocs h);
  check Alcotest.bool "ops recorded" true (Smem_core.History.nops h > 0);
  (* the recorded history is labeled throughout (peterson ~labeled:true) *)
  check Alcotest.bool "labels recorded" true (Smem_core.History.has_labeled h)

let () =
  Alcotest.run "lang"
    [
      ( "exec",
        [
          tc "environments" env_semantics;
          tc "expressions" eval_expressions;
          tc "layout" layout_flattening;
          tc "stepping to actions" stepping;
          tc "loops and fuel" stepping_loops;
        ] );
      ( "mutual exclusion",
        mutex_cases @ spinlock_cases
        @ [
            tc "bakery(2) random schedules, seed 2026" random_schedule_counts;
          ] );
      ( "explorer",
        [
          tc "violation traces" violation_trace_structure;
          tc "random runs record histories" random_runs_record_histories;
        ] );
      ( "dpor",
        [
          QCheck_alcotest.to_alcotest dpor_traces_agree;
          tc "fold_traces: pinned lost outcomes" fold_pinned;
          tc "mutex verdict matrix = naive" dpor_mutex_matrix;
          tc "bakery2 reduction >= 10x" dpor_reduction_ratio;
          tc "pinned mp/sb counts" pinned_counts;
        ] );
      ("liveness", [ tc "deadlock freedom" deadlock_freedom ]);
      ( "races",
        [
          tc "verdicts" race_verdicts;
          tc "DRF guarantee on rc-sc" drf_guarantee;
        ] );
      ( "syntax",
        [
          tc "parsing" prog_parse_basics;
          tc "parse errors" prog_parse_errors;
          tc "program library round-trips" prog_roundtrip;
        ] );
    ]
