open Ast

let reg r = Ast.Reg r

(* Lamport's Bakery algorithm, one entry per processor (Figure 6 of the
   paper).  The entry/exit protocol accesses only choosing[] and
   number[], which are the labeled (synchronization) variables. *)
let bakery ?(labeled = true) ~n () =
  let thread i =
    let choosing k = elt "choosing" k in
    let number k = elt "number" k in
    [
      store ~labeled (choosing (Int i)) (Int 1);
      Assign ("mine", Int 0);
      For
        {
          var = "j";
          from_ = Int 0;
          to_ = Int (n - 1);
          body =
            [
              load ~labeled "tmp" (number (reg "j"));
              If (Lt (reg "mine", reg "tmp"), [ Assign ("mine", reg "tmp") ], []);
            ];
        };
      Assign ("mine", Add (reg "mine", Int 1));
      store ~labeled (number (Int i)) (reg "mine");
      store ~labeled (choosing (Int i)) (Int 0);
      For
        {
          var = "j";
          from_ = Int 0;
          to_ = Int (n - 1);
          body =
            [
              If
                ( Ne (reg "j", Int i),
                  [
                    load ~labeled "c" (choosing (reg "j"));
                    While
                      ( Ne (reg "c", Int 0),
                        [ load ~labeled "c" (choosing (reg "j")) ] );
                    load ~labeled "other" (number (reg "j"));
                    While
                      ( And
                          ( Ne (reg "other", Int 0),
                            Or
                              ( Lt (reg "other", reg "mine"),
                                And
                                  ( Eq (reg "other", reg "mine"),
                                    Lt (reg "j", Int i) ) ) ),
                        [ load ~labeled "other" (number (reg "j")) ] );
                  ],
                  [] );
            ];
        };
      Cs_enter;
      Cs_exit;
      store ~labeled (number (Int i)) (Int 0);
    ]
  in
  {
    shared = [ ("choosing", n); ("number", n) ];
    threads = Array.init n thread;
  }

let peterson ?(labeled = true) () =
  let thread i =
    let j = 1 - i in
    [
      store ~labeled (elt "flag" (Int i)) (Int 1);
      store ~labeled (var "turn") (Int j);
      load ~labeled "f" (elt "flag" (Int j));
      load ~labeled "t" (var "turn");
      While
        ( And (Eq (reg "f", Int 1), Eq (reg "t", Int j)),
          [
            load ~labeled "f" (elt "flag" (Int j));
            load ~labeled "t" (var "turn");
          ] );
      Cs_enter;
      Cs_exit;
      store ~labeled (elt "flag" (Int i)) (Int 0);
    ]
  in
  { shared = [ ("flag", 2); ("turn", 1) ]; threads = Array.init 2 thread }

let dekker ?(labeled = true) () =
  let thread i =
    let j = 1 - i in
    [
      store ~labeled (elt "flag" (Int i)) (Int 1);
      load ~labeled "f" (elt "flag" (Int j));
      While
        ( Eq (reg "f", Int 1),
          [
            load ~labeled "t" (var "turn");
            If
              ( Ne (reg "t", Int i),
                [
                  store ~labeled (elt "flag" (Int i)) (Int 0);
                  load ~labeled "t" (var "turn");
                  While
                    ( Ne (reg "t", Int i),
                      [ load ~labeled "t" (var "turn") ] );
                  store ~labeled (elt "flag" (Int i)) (Int 1);
                ],
                [] );
            load ~labeled "f" (elt "flag" (Int j));
          ] );
      Cs_enter;
      Cs_exit;
      store ~labeled (var "turn") (Int j);
      store ~labeled (elt "flag" (Int i)) (Int 0);
    ]
  in
  { shared = [ ("flag", 2); ("turn", 1) ]; threads = Array.init 2 thread }

let tas_spinlock () =
  let thread _ =
    [
      Tas { reg = "got"; dst = var "lock" };
      While (Ne (reg "got", Int 0), [ Tas { reg = "got"; dst = var "lock" } ]);
      Cs_enter;
      Cs_exit;
      store ~labeled:true (var "lock") (Int 0);
    ]
  in
  { shared = [ ("lock", 1) ]; threads = Array.init 2 thread }

(* Random loop-free programs for differential fuzzing.  Structured
   control flow (bounded [For] loops, [If] on loaded values) exercises
   the interpreter paths straight-line Driver programs cannot, while
   guaranteeing termination on every machine.  Write values are drawn
   from a per-program counter so reads-from maps stay near-unambiguous
   and the axiomatic replay of the recorded trace is cheap. *)
let random ~rand ?(nprocs = 2) ?(nlocs = 3) ?(len = 3) ?(labels = `Separated)
    () =
  let pool = [| "x"; "y"; "z"; "u"; "v"; "w" |] in
  if nlocs < 1 || nlocs > Array.length pool then
    invalid_arg "Programs.random: between 1 and 6 locations";
  if nprocs < 1 then invalid_arg "Programs.random: at least one thread";
  let next_value = ref 0 in
  let fresh_value () =
    incr next_value;
    !next_value
  in
  let pick_loc () = Random.State.int rand nlocs in
  let labeled_for loc =
    match labels with
    | `No -> false
    | `Mixed -> Random.State.bool rand
    | `Separated -> loc = nlocs - 1
  in
  let thread t =
    let next_reg = ref 0 in
    let fresh_reg () =
      incr next_reg;
      Printf.sprintf "r%d_%d" t !next_reg
    in
    let access () =
      let loc = pick_loc () in
      let labeled = labeled_for loc in
      if Random.State.bool rand then
        store ~labeled (var pool.(loc)) (Int (fresh_value ()))
      else load ~labeled (fresh_reg ()) (var pool.(loc))
    in
    let group () =
      match Random.State.int rand 10 with
      | 0 | 1 ->
          (* Two-iteration loop; the written value varies with the
             loop register so both iterations stay distinguishable. *)
          let loc = pick_loc () in
          let i = fresh_reg () in
          let base = fresh_value () in
          ignore (fresh_value ());
          [
            For
              {
                var = i;
                from_ = Int 0;
                to_ = Int 1;
                body =
                  [
                    store ~labeled:(labeled_for loc) (var pool.(loc))
                      (Add (Int base, Reg i));
                  ];
              };
          ]
      | 2 ->
          (* Branch on an observed value; both arms terminate.  The
             draws are let-bound so the PRNG consumption order is fixed
             (constructor arguments have no specified order). *)
          let loc = pick_loc () in
          let r = fresh_reg () in
          let ld = load ~labeled:(labeled_for loc) r (var pool.(loc)) in
          let then_ = access () in
          let else_ = access () in
          [ ld; If (Eq (Reg r, Int 0), [ then_ ], [ else_ ]) ]
      | _ -> [ access () ]
    in
    (* built by an explicit loop: the PRNG consumption order is part of
       the reproducibility contract, and [List.init] does not specify
       its application order *)
    let rec build k acc =
      if k = 0 then List.concat (List.rev acc)
      else build (k - 1) (group () :: acc)
    in
    build len []
  in
  let rec threads k acc =
    if k = 0 then Array.of_list (List.rev acc)
    else threads (k - 1) (thread (nprocs - k) :: acc)
  in
  {
    shared = List.init nlocs (fun l -> (pool.(l), 1));
    threads = threads nprocs [];
  }

(* Message passing: the handshake behind every producer/consumer
   protocol.  The data write is ordinary; the flag carries the
   synchronization (labeled by default).  Loop-free, so it doubles as a
   corpus seed for {!Explore.fold_traces} and as the anchor of the pinned
   explored-state regression tests. *)
let mp ?(labeled = true) () =
  {
    shared = [ ("data", 1); ("flag", 1) ];
    threads =
      [|
        [
          store ~labeled:false (var "data") (Int 1);
          store ~labeled (var "flag") (Int 1);
        ];
        [
          load ~labeled "f" (var "flag");
          load ~labeled:false "d" (var "data");
        ];
      |];
  }

(* Store buffering: the Dekker core.  Plain accesses by default — the
   shape whose both-read-zero outcome separates SC from every buffered
   machine. *)
let sb ?(labeled = false) () =
  {
    shared = [ ("x", 1); ("y", 1) ];
    threads =
      [|
        [ store ~labeled (var "x") (Int 1); load ~labeled "r0" (var "y") ];
        [ store ~labeled (var "y") (Int 1); load ~labeled "r1" (var "x") ];
      |];
  }

(* A seqlock round: the writer bumps the sequence number to odd, updates
   both data elements, bumps it to even; the reader takes one snapshot
   attempt (sequence, data, data, sequence) and judges its own validity
   afterwards — loop-free by construction, so the full interleaving set
   is finite and the snapshot-torn outcomes land in the corpus. *)
let seqlock ?(labeled = true) () =
  {
    shared = [ ("seq", 1); ("d", 2) ];
    threads =
      [|
        [
          store ~labeled (var "seq") (Int 1);
          store ~labeled:false (elt "d" (Int 0)) (Int 1);
          store ~labeled:false (elt "d" (Int 1)) (Int 2);
          store ~labeled (var "seq") (Int 2);
        ];
        [
          load ~labeled "s1" (var "seq");
          load ~labeled:false "a" (elt "d" (Int 0));
          load ~labeled:false "b" (elt "d" (Int 1));
          load ~labeled "s2" (var "seq");
        ];
      |];
  }

(* The test-and-set spinlock under load: [nprocs] threads each take the
   lock [rounds] times.  Stress configuration for the corpus pipeline
   and the DPOR explorer — read-modify-writes serialize at the home
   copy, so the lock is correct on every machine in the catalogue. *)
let spinlock_stress ?(nprocs = 3) ?(rounds = 2) () =
  let thread _ =
    [
      For
        {
          var = "k";
          from_ = Int 0;
          to_ = Int (rounds - 1);
          body =
            [
              Tas { reg = "got"; dst = var "lock" };
              While
                ( Ne (reg "got", Int 0),
                  [ Tas { reg = "got"; dst = var "lock" } ] );
              Cs_enter;
              Cs_exit;
              store ~labeled:true (var "lock") (Int 0);
            ];
        };
    ]
  in
  { shared = [ ("lock", 1) ]; threads = Array.init nprocs thread }

let naive_flags ?(labeled = true) () =
  let thread i =
    let j = 1 - i in
    [
      load ~labeled "f" (elt "flag" (Int j));
      While (Eq (reg "f", Int 1), [ load ~labeled "f" (elt "flag" (Int j)) ]);
      store ~labeled (elt "flag" (Int i)) (Int 1);
      Cs_enter;
      Cs_exit;
      store ~labeled (elt "flag" (Int i)) (Int 0);
    ]
  in
  { shared = [ ("flag", 2) ]; threads = Array.init 2 thread }
