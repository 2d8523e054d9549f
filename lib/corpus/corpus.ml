module H = Smem_core.History
module Canon = Smem_core.Canon
module Test = Smem_litmus.Test
module Programs = Smem_lang.Programs
module Explore = Smem_lang.Explore
module Machines = Smem_machine.Machines

let version = "smem-corpus/1"

(* ------------------------------------------------------------------ *)
(* Candidate extraction                                                *)
(* ------------------------------------------------------------------ *)

(* A prefix of a recorded history in execution order is itself a
   history: ids are dense by construction and each processor's indices
   stay dense because the recording order refines program order.  This
   is how long cyclic runs (Bakery, spinlock stress) contribute small
   checkable tests. *)
let prefix h k =
  let ops = H.ops h in
  if k >= Array.length ops then None
  else
    let loc_names = Array.init (H.nlocs h) (H.loc_name h) in
    match
      H.of_ops ~nprocs:(H.nprocs h) ~loc_names
        (Array.to_list (Array.sub ops 0 k))
    with
    | p -> Some p
    | exception Invalid_argument _ -> None

type acc = {
  mutable n : int;
  target : int;
  max_ops : int;
  seen : (string, unit) Hashtbl.t;
  mutable out : (H.t * string) list;  (* canonical history, source doc *)
}

exception Enough

let add acc ~doc h =
  let nops = H.nops h in
  if nops >= 2 && nops <= acc.max_ops then begin
    (* Most candidates are duplicates: only an unseen one is
       canonicalized (its digest is its canonical copy's, by
       idempotence). *)
    let d = Canon.digest h in
    if not (Hashtbl.mem acc.seen d) then begin
      Hashtbl.add acc.seen d ();
      acc.out <- (Canon.canonicalize h, doc) :: acc.out;
      acc.n <- acc.n + 1;
      if acc.n >= acc.target then raise Enough
    end
  end

let prefix_sizes = [ 4; 6; 8; 10; 12 ]

let add_with_prefixes acc ~doc h =
  List.iter
    (fun k ->
      match prefix h k with
      | Some p -> add acc ~doc:(Printf.sprintf "%s prefix=%d" doc k) p
      | None -> ())
    prefix_sizes;
  add acc ~doc h

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

(* Upper bound on the memory accesses a complete execution of a
   loop-free program performs ([If] counts its larger arm, [For] its
   literal trip count when constant). *)
let static_accesses (p : Smem_lang.Ast.program) =
  let open Smem_lang.Ast in
  let rec stmt = function
    | Load _ | Store _ | Tas _ -> 1
    | Assign _ | Cs_enter | Cs_exit -> 0
    | If (_, a, b) -> max (block a) (block b)
    | While (_, body) -> 100 + block body (* unbounded: effectively reject *)
    | For { from_ = Int a; to_ = Int b; body; _ } ->
        max 0 (b - a + 1) * block body
    | For { body; _ } -> 100 + block body
  and block stmts = List.fold_left (fun n s -> n + stmt s) 0 stmts in
  Array.fold_left (fun n t -> n + block t) 0 p.threads

let loop_free_sources () =
  [
    ("mp", Programs.mp ());
    ("mp-u", Programs.mp ~labeled:false ());
    ("sb", Programs.sb ());
    ("sb-l", Programs.sb ~labeled:true ());
    ("seqlock", Programs.seqlock ());
    ("seqlock-u", Programs.seqlock ~labeled:false ());
  ]

let cyclic_sources () =
  [
    ("bakery2", Programs.bakery ~n:2 ());
    ("bakery2u", Programs.bakery ~n:2 ~labeled:false ());
    ("bakery3", Programs.bakery ~n:3 ());
    ("peterson", Programs.peterson ());
    ("dekker", Programs.dekker ());
    ("naive-flags", Programs.naive_flags ());
    ("spinlock", Programs.tas_spinlock ());
    ("spinlock3", Programs.spinlock_stress ());
  ]

let generate ?(seed = 42) ?(count = 1000) ?(max_ops = 12) ?(expect = []) () =
  let acc =
    { n = 0; target = count; max_ops; seen = Hashtbl.create 4096; out = [] }
  in
  let machines = Machines.all in
  (try
     (* Every outcome of the loop-free shapes on every machine: these
        carry the model-separating outcomes (stale reads, torn seqlock
        snapshots) and seed the corpus with the classic weak-memory
        behaviors.  A fold error here would silently drop some of them,
        so it is fatal. *)
     List.iter
       (fun (pname, p) ->
         List.iter
           (fun m ->
             let doc = Printf.sprintf "%s/%s" pname (Machines.name m) in
             match
               Explore.fold_traces ~max_transitions:50_000 m p ~init:()
                 ~f:(fun () (h, _envs) -> add acc ~doc h)
             with
             | Ok () -> ()
             | Error msg ->
                 failwith (Printf.sprintf "Corpus.generate: %s: %s" doc msg))
           machines)
       (loop_free_sources ());
     (* Two unbounded sources, interleaved in rounds until the target
        is met: seeded random schedules of the cyclic algorithms
        (prefixes included — a Bakery run's first dozen operations are
        a perfectly good small test), and random loop-free programs
        enumerated exhaustively.  PRNGs are keyed by (seed, stage,
        indices) so the sequence is reproducible and independent of
        list lengths elsewhere. *)
     let cyclic = cyclic_sources () in
     let nmachines = List.length machines in
     let stale_rounds = ref 0 in
     let round = ref 0 in
     while !stale_rounds < 3 do
       let before = acc.n in
       for run = 16 * !round to (16 * !round) + 15 do
         List.iteri
           (fun pi (pname, p) ->
             List.iteri
               (fun mi m ->
                 let rand = Random.State.make [| seed; 1; pi; mi; run |] in
                 let doc =
                   Printf.sprintf "%s/%s run=%d" pname (Machines.name m) run
                 in
                 let h, _violated =
                   Explore.run_random ~max_steps:200 m p ~rand
                 in
                 add_with_prefixes acc ~doc h)
               machines)
           cyclic
       done;
       for i = 200 * !round to (200 * !round) + 199 do
         let rand = Random.State.make [| seed; 2; i |] in
         let nprocs = 2 + (i mod 3) in
         let nlocs = 2 + (i mod 4) in
         let len = 1 + (i mod 3) in
         let labels = [| `No; `Mixed; `Separated |].(i mod 3) in
         let p = Programs.random ~rand ~nprocs ~nlocs ~len ~labels () in
         (* Programs that cannot complete within [max_ops] accesses are
            skipped before exploration, so saturated sweeps stay
            cheap.  A program over the transition budget keeps the
            outcomes found so far and is otherwise skipped: unlike the
            fixed shapes above, no one random program is load-bearing. *)
         if static_accesses p <= max_ops + 2 then begin
           let m = List.nth machines (i mod nmachines) in
           let doc = Printf.sprintf "rand=%d/%s" i (Machines.name m) in
           ignore
             (Explore.fold_traces ~max_transitions:10_000 m p ~init:()
                ~f:(fun () (h, _envs) -> add acc ~doc h))
         end
       done;
       incr round;
       (* three consecutive dry rounds: the space under [max_ops] has
          saturated below [count]; return what exists *)
       if acc.n = before then incr stale_rounds else stale_rounds := 0
     done
   with Enough -> ());
  let tests = List.rev acc.out in
  List.mapi
    (fun i (h, doc) ->
      let expectations =
        List.map
          (fun (m : Smem_core.Model.t) ->
            ( m.Smem_core.Model.key,
              match m.Smem_core.Model.witness h with
              | Some _ -> Test.Allowed
              | None -> Test.Forbidden ))
          expect
      in
      Test.of_history
        ~name:(Printf.sprintf "c%05d" i)
        ~doc ~expect:expectations h)
    tests

(* ------------------------------------------------------------------ *)
(* Artifact                                                            *)
(* ------------------------------------------------------------------ *)

let to_string ~seed tests =
  let b = Buffer.create 65_536 in
  Buffer.add_string b
    (Printf.sprintf "# %s seed=%d count=%d\n" version seed (List.length tests));
  List.iter
    (fun t ->
      Buffer.add_char b '\n';
      Buffer.add_string b (Smem_litmus.Print.to_string t))
    tests;
  Buffer.contents b

let parse s =
  let header =
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let expected = "# " ^ version in
  if
    String.length header < String.length expected
    || String.sub header 0 (String.length expected) <> expected
  then
    Error
      (Printf.sprintf "not a %s artifact (header %S)" version
         (if String.length header > 40 then String.sub header 0 40 else header))
  else
    match Smem_litmus.Parse.tests_of_string s with
    | Ok tests -> Ok tests
    | Error e -> Error (Format.asprintf "%a" Smem_litmus.Parse.pp_error e)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      parse s
