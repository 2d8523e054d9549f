(** Partial-order-reduced exploration of Lang programs.

    Two reducers share one dependence analysis:

    - {!check_mutex_stats} — a stateful safety checker for cyclic
      programs (spin-lock style algorithms).  It combines
      ample-singleton persistent sets (computed from static future
      footprints, in the style of SPIN), sleep sets threaded through
      the DFS, covering-based state memoization (a revisited state is
      skipped only when some previously recorded sleep set is a subset
      of the current one), and the stack proviso against the ignoring
      problem.  It preserves the mutual-exclusion verdict, not the
      reachable state set: in particular exploration is cut off once
      every thread has finished, skipping the post-termination
      message-drain lattice.

    - {!fold_traces} — a stateless Flanagan–Godefroid DPOR enumerator
      for loop-free programs.  Backtrack sets are seeded from
      dynamically detected races (vector clocks over the path), sleep
      sets prune equivalent interleavings, and every maximal execution
      calls [f] with the history it produced.  With [~reduced:false]
      it degenerates into the naive full-interleaving enumerator, which
      the test suite uses as the differential oracle.

    Internal machine steps (buffer flushes, message deliveries) are
    treated as a pseudo-process that is never reduced: both modes
    expand every internal successor, and dependence between an access
    and the internal process is approximated through
    {!Smem_machine.Machine_sig.MACHINE.internal_locs}. *)

module H = Smem_core.History
module Op = Smem_core.Op

type verdict = Safe of int | Violation of string list | State_limit

type stats = {
  states : int;  (** distinct states expanded *)
  transitions : int;  (** transitions executed (threads + internal) *)
  ample_hits : int;  (** states expanded through a singleton ample set *)
  full_expansions : int;  (** states where every enabled transition ran *)
  sleep_skips : int;  (** transitions pruned by sleep sets *)
  covering_skips : int;  (** revisits pruned by the covering rule *)
  proviso_fallbacks : int;  (** ample choices vetoed by the stack proviso *)
  env_deferrals : int;  (** states whose delivery fan-out was postponed *)
  enter_prunes : int;  (** states pruned because no CS entry lies ahead *)
}

let pp_stats ppf s =
  Format.fprintf ppf
    "states=%d transitions=%d ample=%d full=%d sleep-skips=%d \
     covering-skips=%d proviso-fallbacks=%d env-deferrals=%d enter-prunes=%d"
    s.states s.transitions s.ample_hits s.full_expansions s.sleep_skips
    s.covering_skips s.proviso_fallbacks s.env_deferrals s.enter_prunes

type thread = { env : Exec.Env.t; cont : Ast.stmt list; in_cs : bool; finished : bool }

let initial_threads program =
  Array.map
    (fun code -> { env = Exec.Env.empty; cont = code; in_cs = false; finished = false })
    program.Ast.threads

let describe_action thread_id = function
  | Exec.A_load { reg; loc; labeled } ->
      Printf.sprintf "t%d: %s <- load loc%d%s" thread_id reg loc
        (if labeled then " (labeled)" else "")
  | Exec.A_store { loc; value; labeled } ->
      Printf.sprintf "t%d: store loc%d := %d%s" thread_id loc value
        (if labeled then " (labeled)" else "")
  | Exec.A_tas { reg; loc } ->
      Printf.sprintf "t%d: %s <- test-and-set loc%d" thread_id reg loc
  | Exec.A_enter -> Printf.sprintf "t%d: enter critical section" thread_id
  | Exec.A_exit -> Printf.sprintf "t%d: exit critical section" thread_id

(* ------------------------------------------------------------------ *)
(* Dependence                                                          *)
(* ------------------------------------------------------------------ *)

(* The next visible transition of a thread, abstracted for dependence
   purposes.  [Internal] stands for a machine step and only ever
   appears on path entries of the stateless enumerator. *)
type act = Access of Races.access | Marker | Fin | Internal

(* A hot access mutates global machine state beyond its own location:
   labeled operations flush or perform pending work (the RC machines),
   and read-modify-writes act at the serialization point. *)
let hot (a : Races.access) = a.labeled || a.kind = `Rmw

(* Dependence of two thread accesses, relative to [fset] — the
   locations with internal work pending ({!MACHINE.internal_locs}).  A
   hot access may force deliveries at any pending location, so it is
   dependent with accesses to those locations even when the plain
   same-location rule would not fire.  Note this is deliberately not
   {!Races.conflicting}: that relation exempts labeled-labeled pairs
   (race semantics), which is wrong for commutation. *)
let dep_access fset (a : Races.access) (b : Races.access) =
  (a.loc = b.loc && (a.kind <> `Read || b.kind <> `Read || hot a || hot b))
  || (hot a && List.mem b.loc fset)
  || (hot b && List.mem a.loc fset)

(* Critical-section markers are the "visible" transitions of the mutex
   property: their mutual order must be preserved, so they are
   pairwise dependent across threads and independent of memory. *)
let dep_act fset x y =
  match (x, y) with
  | Fin, _ | _, Fin -> false
  | Marker, Marker -> true
  | Marker, (Access _ | Internal) | (Access _ | Internal), Marker -> false
  | Internal, Internal -> true
  | Access a, Access b -> dep_access fset a b
  | Access _, Internal | Internal, Access _ ->
      (* resolved through dep_env, which knows the machine flag *)
      true

(* Dependence of a thread transition with an internal step, given the
   pending-work footprint [fset] at the internal step's source state.
   [wdoi] is {!MACHINE.write_depends_on_internal}. *)
let dep_env ~wdoi fset = function
  | Fin | Marker -> false
  | Internal -> true
  | Access a ->
      hot a || List.mem a.loc fset || (wdoi && a.kind <> `Read)

(* ------------------------------------------------------------------ *)
(* Static future footprints (ample-set side conditions)                *)
(* ------------------------------------------------------------------ *)

type fp = {
  f_reads : bool array;  (* locations the thread may still read *)
  f_writes : bool array;  (* locations it may still write (incl. tas) *)
  f_hots : bool array;  (* locations it may still access hot *)
  mutable f_cs : bool;  (* a CS marker may still occur *)
  mutable f_enter : bool;  (* a CS entry specifically may still occur *)
  mutable f_any_write : bool;
  mutable f_any_hot : bool;
}

let fp_empty nlocs =
  {
    f_reads = Array.make nlocs false;
    f_writes = Array.make nlocs false;
    f_hots = Array.make nlocs false;
    f_cs = false;
    f_enter = false;
    f_any_write = false;
    f_any_hot = false;
  }

(* Locations a shared reference may denote: exact for constant indices,
   the whole array otherwise. *)
let locs_of_shared layout shared_decls (s : Ast.shared) =
  match List.assoc_opt s.Ast.array shared_decls with
  | None -> []
  | Some size -> (
      match s.Ast.index with
      | Ast.Int k when k >= 0 && k < size -> [ Ast.loc_id layout s.Ast.array k ]
      | _ -> List.init size (fun i -> Ast.loc_id layout s.Ast.array i))

let footprint_fn layout shared_decls nlocs =
  let memo : (Ast.stmt list, fp) Hashtbl.t = Hashtbl.create 255 in
  let rec add fp = function
    | Ast.Assign _ -> ()
    | Ast.Load { src; labeled; _ } ->
        List.iter
          (fun l ->
            fp.f_reads.(l) <- true;
            if labeled then begin
              fp.f_hots.(l) <- true;
              fp.f_any_hot <- true
            end)
          (locs_of_shared layout shared_decls src)
    | Ast.Store { dst; labeled; _ } ->
        fp.f_any_write <- true;
        List.iter
          (fun l ->
            fp.f_writes.(l) <- true;
            if labeled then begin
              fp.f_hots.(l) <- true;
              fp.f_any_hot <- true
            end)
          (locs_of_shared layout shared_decls dst)
    | Ast.If (_, a, b) ->
        List.iter (add fp) a;
        List.iter (add fp) b
    | Ast.While (_, body) -> List.iter (add fp) body
    | Ast.For { body; _ } -> List.iter (add fp) body
    | Ast.Tas { dst; _ } ->
        fp.f_any_write <- true;
        fp.f_any_hot <- true;
        List.iter
          (fun l ->
            fp.f_reads.(l) <- true;
            fp.f_writes.(l) <- true;
            fp.f_hots.(l) <- true)
          (locs_of_shared layout shared_decls dst)
    | Ast.Cs_enter ->
        fp.f_cs <- true;
        fp.f_enter <- true
    | Ast.Cs_exit -> fp.f_cs <- true
  in
  fun cont ->
    match Hashtbl.find_opt memo cont with
    | Some fp -> fp
    | None ->
        let fp = fp_empty nlocs in
        List.iter (add fp) cont;
        Hashtbl.add memo cont fp;
        fp

(* ------------------------------------------------------------------ *)
(* Shared DFS plumbing                                                 *)
(* ------------------------------------------------------------------ *)

type next =
  | N_fin of Exec.Env.t  (* the thread's next transition is to finish *)
  | N_act of Exec.action * Exec.Env.t * Ast.stmt list

exception Found of string list
exception Fuel_out

let next_of layout ~fuel (t : thread) =
  match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
  | Exec.Out_of_fuel -> raise Fuel_out
  | Exec.Finished env -> N_fin env
  | Exec.At_action (action, env, cont) -> N_act (action, env, cont)

let act_of_next proc = function
  | N_fin _ -> Fin
  | N_act (action, _, _) -> (
      match Races.access_of_action proc action with
      | Some a -> Access a
      | None -> Marker)

let rec lowest_bit m i = if m land (1 lsl i) <> 0 then i else lowest_bit m (i + 1)

(* Visited-state keys are MD5 digests of the marshaled state.  Hashing
   the structure directly degenerates badly: [Hashtbl.hash] only looks
   at a bounded prefix of a value, so the deep (machine, threads) tuples
   of the channel machines collide en masse and bucket scans fall back
   to full structural equality — quadratic overall.  Digest keys make
   both hashing and equality O(state size). *)
let digest_key v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

(* Drop from a sleep mask every thread whose pending action is
   dependent with [taken] (it must be re-explored after the swap). *)
let filter_sleep sleep acts nthreads pred =
  let out = ref 0 in
  for j = 0 to nthreads - 1 do
    if sleep land (1 lsl j) <> 0 && pred acts.(j) then out := !out lor (1 lsl j)
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Mode B: stateful ample + sleep safety checker for cyclic programs   *)
(* ------------------------------------------------------------------ *)

let check_mutex_stats ?(max_states = 2_000_000) ?(max_transitions = 20_000_000)
    ?(fuel = 10_000) (module M : Smem_machine.Machine_sig.MACHINE) program =
  let layout = Ast.layout program in
  let nlocs = max 1 (Ast.nlocs layout) in
  let nthreads = Array.length program.Ast.threads in
  let wdoi = M.write_depends_on_internal in
  let footprint = footprint_fn layout program.Ast.shared nlocs in
  let visited : (Digest.t, int list ref) Hashtbl.t = Hashtbl.create 65_537 in
  let on_stack = Hashtbl.create 1_023 in
  let states = ref 0 in
  let transitions = ref 0 in
  let ample_hits = ref 0 in
  let full_expansions = ref 0 in
  let sleep_skips = ref 0 in
  let covering_skips = ref 0 in
  let proviso_fallbacks = ref 0 in
  let env_deferrals = ref 0 in
  let enter_prunes = ref 0 in
  let limit = ref false in
  let key_of machine threads =
    digest_key (machine, Array.map (fun t -> (t.env, t.cont, t.in_cs)) threads)
  in
  (* [prefer] rotates the DFS child order: the first thread tried at a
     state is the successor of the thread that just moved, so the first
     path explored is a round-robin interleaving.  On the buffered
     machines mutual-exclusion violations live in exactly those tightly
     alternating schedules (each thread reading the others' stale
     copies), so the rotation finds counterexamples near the top of the
     stack instead of after exhausting the run-one-thread-to-completion
     subtree.  Purely a search-order heuristic: sleep sets and covering
     memoization are order-agnostic, so the verdict is unchanged. *)
  let rec explore machine threads path sleep prefer =
    if !limit then ()
    else begin
      let key = key_of machine threads in
      let masks =
        match Hashtbl.find_opt visited key with
        | Some masks -> masks
        | None ->
            let masks = ref [] in
            Hashtbl.add visited key masks;
            masks
      in
      (* Covering rule: a previous visit with sleep set [m] explored
         every transition outside [m]; if [m] is a subset of the
         current sleep set, everything we would explore now was
         explored then. *)
      if List.exists (fun m -> m land sleep = m) !masks then incr covering_skips
      else begin
        masks := sleep :: !masks;
        incr states;
        if !states > max_states || !transitions > max_transitions then limit := true
        else if Array.for_all (fun t -> t.finished) threads then
          (* Verdict cutoff: no thread can enter a critical section any
             more, so the remaining message-drain lattice is irrelevant
             to mutual exclusion. *)
          ()
        else begin
          match
            Array.map
              (fun t -> if t.finished then None else Some (next_of layout ~fuel t))
              threads
          with
          | exception Fuel_out -> limit := true
          | nexts ->
              let acts =
                Array.mapi
                  (fun i -> function None -> Fin | Some n -> act_of_next i n)
                  nexts
              in
              let fset = M.internal_locs machine in
              let fps =
                Array.mapi
                  (fun i (t : thread) ->
                    match nexts.(i) with
                    | None | Some (N_fin _) -> fp_empty nlocs
                    | Some (N_act _) -> footprint t.cont)
                  threads
              in
              if not (Array.exists (fun fp -> fp.f_enter) fps) then
                (* Verdict cutoff: no thread can ever enter a critical
                   section from here, so no violation lies ahead. *)
                incr enter_prunes
              else
                expand machine threads path sleep prefer key nexts acts fset
                  fps
        end
      end
    end
  and exec_thread machine threads path i = function
    | N_fin env ->
        let threads' = Array.copy threads in
        threads'.(i) <- { (threads.(i)) with env; finished = true };
        (machine, threads', path)
    | N_act (action, env, cont) -> (
        let t = threads.(i) in
        let path' = describe_action i action :: path in
        let with_thread machine' env' in_cs =
          let threads' = Array.copy threads in
          threads'.(i) <- { t with env = env'; cont; in_cs };
          (machine', threads', path')
        in
        match action with
        | Exec.A_load { reg; loc; labeled } ->
            let v, machine' = M.read machine ~proc:i ~loc ~labeled in
            with_thread machine' (Exec.Env.set env reg v) t.in_cs
        | Exec.A_store { loc; value; labeled } ->
            with_thread (M.write machine ~proc:i ~loc ~value ~labeled) env t.in_cs
        | Exec.A_tas { reg; loc } ->
            let old, machine' = M.test_and_set machine ~proc:i ~loc in
            with_thread machine' (Exec.Env.set env reg old) t.in_cs
        | Exec.A_enter ->
            if Array.exists (fun (u : thread) -> u.in_cs) threads then
              raise (Found (List.rev path'));
            with_thread machine env true
        | Exec.A_exit -> with_thread machine env false)
  and expand machine threads path sleep prefer key nexts acts fset fps =
    (* Ample side conditions.  [fbig] over-approximates the pending
       footprint at every future state of an execution in which the
       candidate thread never moves: work pending now plus anything
       the other threads may still write. *)
    let others_any_write = Array.make nthreads false in
    Array.iteri
      (fun i (t : thread) ->
        if (not t.finished) && fps.(i).f_any_write then
          for j = 0 to nthreads - 1 do
            if j <> i then others_any_write.(j) <- true
          done)
      threads;
    let fbig_for i =
      let fbig = Array.make nlocs false in
      if not M.synchronous then begin
        List.iter (fun l -> fbig.(l) <- true) fset;
        Array.iteri
          (fun j (t : thread) ->
            if j <> i && not t.finished then
              Array.iteri
                (fun l w -> if w then fbig.(l) <- true)
                fps.(j).f_writes)
          threads
      end;
      fbig
    in
    let singleton_ok i =
      match acts.(i) with
      | Internal -> false
      | Fin -> true
      | Marker ->
          (* dependent only with other CS markers *)
          Array.for_all
            (fun j ->
              j = i || threads.(j).finished || not fps.(j).f_cs)
            (Array.init nthreads Fun.id)
      | Access a ->
          let fbig = fbig_for i in
          let others_ok =
            Array.for_all
              (fun j ->
                j = i || threads.(j).finished
                ||
                let fp = fps.(j) in
                let same_loc =
                  if (not (hot a)) && a.kind = `Read then
                    fp.f_writes.(a.loc) || fp.f_hots.(a.loc)
                  else fp.f_reads.(a.loc) || fp.f_writes.(a.loc)
                in
                let cross_mine =
                  hot a
                  && Array.exists
                       (fun l -> fbig.(l) && (fp.f_reads.(l) || fp.f_writes.(l)))
                       (Array.init (Array.length fbig) Fun.id)
                in
                let cross_theirs = fp.f_any_hot && fbig.(a.loc) in
                not (same_loc || cross_mine || cross_theirs))
              (Array.init nthreads Fun.id)
          in
          let env_possible =
            (not M.synchronous) && (fset <> [] || others_any_write.(i))
          in
          let env_ok =
            if hot a then not env_possible
            else if wdoi && a.kind <> `Read then not env_possible
            else not fbig.(a.loc)
          in
          others_ok && env_ok
    in
    let candidates =
      List.filter
        (fun i -> (not threads.(i).finished) && singleton_ok i)
        (List.init nthreads Fun.id)
    in
    let full_expand () =
      incr full_expansions;
      Hashtbl.add on_stack key ();
      let cur_sleep = ref sleep in
      for k = 0 to nthreads - 1 do
        let i = (prefer + k) mod nthreads in
        if not threads.(i).finished then
          if !cur_sleep land (1 lsl i) <> 0 then incr sleep_skips
          else begin
            (match nexts.(i) with
            | None -> ()
            | Some n ->
                incr transitions;
                let machine', threads', path' = exec_thread machine threads path i n in
                let child_sleep =
                  filter_sleep !cur_sleep acts nthreads (fun aj ->
                      not (dep_act fset aj acts.(i)))
                in
                explore machine' threads' path' child_sleep
                  ((i + 1) mod nthreads));
            cur_sleep := !cur_sleep lor (1 lsl i)
          end
      done;
      let deliveries = if M.synchronous then [] else M.internal machine in
      (* Env deferral: when every unfinished thread's next access is
         independent of all pending internal work ([fset] bounds the
         footprint of every env-only future), the thread transitions
         form a persistent set on their own and the delivery lattice
         need not be branched on here — deliveries still happen, just
         later, interleaved after the next dependent access. *)
      let env_needed =
        deliveries <> [] && Array.exists (fun a -> dep_env ~wdoi fset a) acts
      in
      if deliveries <> [] && not env_needed then incr env_deferrals
      else begin
        let env_base = !cur_sleep in
        List.iter
          (fun machine' ->
            incr transitions;
            let child_sleep =
              filter_sleep env_base acts nthreads (fun aj ->
                  not (dep_env ~wdoi fset aj))
            in
            explore machine' threads (".: internal step" :: path) child_sleep
              prefer)
          deliveries
      end;
      Hashtbl.remove on_stack key
    in
    match candidates with
    | [] -> full_expand ()
    | _ when List.exists (fun i -> sleep land (1 lsl i) <> 0) candidates ->
        (* A persistent singleton is asleep: with ample = {that thread}
           the sleep-restricted expansion is empty, and every execution
           from here was covered when the thread was explored at the
           ancestor that put it to sleep. *)
        incr sleep_skips
    | _ ->
        let i =
          match List.find_opt (fun i -> acts.(i) = Fin) candidates with
          | Some i -> i
          | None -> List.hd candidates
        in
        let n = Option.get nexts.(i) in
        incr transitions;
        let machine', threads', path' = exec_thread machine threads path i n in
        if Hashtbl.mem on_stack (key_of machine' threads') then begin
          (* Stack proviso: taking only this transition would close a
             cycle along which the other threads are ignored. *)
          incr proviso_fallbacks;
          (* the transition just executed is re-run by full_expand *)
          full_expand ()
        end
        else begin
          incr ample_hits;
          Hashtbl.add on_stack key ();
          let child_sleep =
            filter_sleep sleep acts nthreads (fun aj ->
                not (dep_act fset aj acts.(i)))
          in
          explore machine' threads' path' child_sleep ((i + 1) mod nthreads);
          Hashtbl.remove on_stack key
        end
  in
  let verdict =
    try
      explore
        (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
        (initial_threads program)
        [] 0 0;
      if !limit then State_limit else Safe !states
    with Found trace -> Violation trace
  in
  ( verdict,
    {
      states = !states;
      transitions = !transitions;
      ample_hits = !ample_hits;
      full_expansions = !full_expansions;
      sleep_skips = !sleep_skips;
      covering_skips = !covering_skips;
      proviso_fallbacks = !proviso_fallbacks;
      env_deferrals = !env_deferrals;
      enter_prunes = !enter_prunes;
    } )

(* ------------------------------------------------------------------ *)
(* Mode A: stateless DPOR trace enumeration for loop-free programs     *)
(* ------------------------------------------------------------------ *)

let rec stmt_loop_free = function
  | Ast.While _ -> false
  | Ast.If (_, a, b) ->
      List.for_all stmt_loop_free a && List.for_all stmt_loop_free b
  | Ast.For { body; _ } -> List.for_all stmt_loop_free body
  | Ast.Assign _ | Ast.Load _ | Ast.Store _ | Ast.Tas _ | Ast.Cs_enter
  | Ast.Cs_exit ->
      true

let loop_free program =
  Array.for_all (List.for_all stmt_loop_free) program.Ast.threads

type frame = { mutable backtrack : int; mutable donebits : int }

type entry = {
  e_proc : int;  (* nthreads = the internal pseudo-process *)
  e_act : act;
  e_fset : int list;  (* pending footprint at the entry's source state *)
  e_clock : int array;  (* all-zero for internal entries *)
  e_frame : frame;  (* frame of the entry's source state *)
}

let clock_le a b = Array.for_all2 ( <= ) a b

let fold_traces ?(reduced = true) ?(max_transitions = 2_000_000) ?(fuel = 10_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program ~init ~f =
  if not (loop_free program) then
    Error "Dpor.fold_traces: program has unbounded loops"
  else begin
    let layout = Ast.layout program in
    let nthreads = Array.length program.Ast.threads in
    let wdoi = M.write_depends_on_internal in
    let transitions = ref 0 in
    let acc = ref init in
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    let emit threads trace =
      let next_index = Array.make nthreads 0 in
      let ops =
        List.rev trace
        |> List.mapi (fun id (proc, kind, loc, value, labeled) ->
               let index = next_index.(proc) in
               next_index.(proc) <- index + 1;
               {
                 Op.id;
                 proc;
                 index;
                 kind;
                 loc;
                 value;
                 attr = (if labeled then Op.Labeled else Op.Ordinary);
               })
      in
      let history =
        H.of_ops ~nprocs:nthreads ~loc_names:(Ast.loc_names layout) ops
      in
      acc := f !acc (history, Array.map (fun (t : thread) -> t.env) threads)
    in
    let rec explore machine threads clocks entries trace sleep =
      if !err <> None then ()
      else begin
        match
          Array.map
            (fun t -> if t.finished then None else Some (next_of layout ~fuel t))
            threads
        with
        | exception Fuel_out -> fail "Dpor.fold_traces: thread ran out of local fuel"
        | nexts ->
            if Array.for_all (( = ) None) nexts then
              (* Every thread finished: the history is complete, and
                 draining the remaining internal work cannot change it. *)
              emit threads trace
            else begin
              let acts =
                Array.mapi
                  (fun i -> function None -> Fin | Some n -> act_of_next i n)
                  nexts
              in
              let fset = M.internal_locs machine in
              (* Race detection: for each runnable thread [p], every
                 earlier entry that is dependent with [p]'s next
                 transition and not ordered before [p] by happens-before
                 marks [p] for backtracking at the entry's source state.
                 Internal entries carry no ordering (their clocks are
                 bottom), so dependence alone fires the race. *)
              if reduced then
                for p = 0 to nthreads - 1 do
                  match acts.(p) with
                  | Fin | Internal -> ()
                  | ap ->
                    List.iter
                      (fun e ->
                        if e.e_proc <> p then
                          let dependent =
                            if e.e_proc = nthreads then dep_env ~wdoi e.e_fset ap
                            else
                              dep_act e.e_fset e.e_act ap
                              || dep_act fset e.e_act ap
                          in
                          if
                            dependent
                            && (e.e_proc = nthreads
                               || not (clock_le e.e_clock clocks.(p)))
                          then e.e_frame.backtrack <- e.e_frame.backtrack lor (1 lsl p))
                      entries
              done;
              let seed =
                if not reduced then
                  Array.to_list (Array.mapi (fun i n -> (i, n)) nexts)
                  |> List.fold_left
                       (fun m (i, n) -> if n = None then m else m lor (1 lsl i))
                       0
                else begin
                  let rec first i =
                    if i >= nthreads then 0
                    else if nexts.(i) <> None && sleep land (1 lsl i) = 0 then
                      1 lsl i
                    else first (i + 1)
                  in
                  first 0
                end
              in
              let frame = { backtrack = seed; donebits = 0 } in
              let cur_sleep = ref sleep in
              let env_done = ref false in
              let continue = ref true in
              while !continue && !err = None do
                let avail =
                  frame.backtrack land lnot frame.donebits
                  land (if reduced then lnot !cur_sleep else -1)
                in
                if avail = 0 then
                  if !env_done then continue := false
                  else begin
                    (* Internal steps are never reduced: expand every
                       machine successor once, after the currently
                       scheduled threads.  Backtrack additions made
                       inside these subtrees re-arm the thread loop. *)
                    env_done := true;
                    let env_base = !cur_sleep in
                    List.iter
                      (fun machine' ->
                        incr transitions;
                        if !transitions > max_transitions then
                          fail "Dpor.fold_traces: transition budget exhausted"
                        else
                          let child_sleep =
                            if reduced then
                              filter_sleep env_base acts nthreads (fun aj ->
                                  not (dep_env ~wdoi fset aj))
                            else 0
                          in
                          let e =
                            {
                              e_proc = nthreads;
                              e_act = Internal;
                              e_fset = fset;
                              e_clock = Array.make nthreads 0;
                              e_frame = frame;
                            }
                          in
                          explore machine' threads clocks (e :: entries) trace
                            child_sleep)
                      (M.internal machine)
                  end
                else begin
                  let p = lowest_bit avail 0 in
                  frame.donebits <- frame.donebits lor (1 lsl p);
                  incr transitions;
                  if !transitions > max_transitions then
                    fail "Dpor.fold_traces: transition budget exhausted"
                  else begin
                    (match Option.get nexts.(p) with
                    | N_fin env ->
                        let threads' = Array.copy threads in
                        threads'.(p) <- { (threads.(p)) with env; finished = true };
                        explore machine threads' clocks entries trace !cur_sleep
                    | N_act (action, env, cont) ->
                        let t = threads.(p) in
                        let new_clock = Array.copy clocks.(p) in
                        List.iter
                          (fun e ->
                            let dependent =
                              if e.e_proc = nthreads then false
                              else
                                dep_act e.e_fset e.e_act acts.(p)
                                || dep_act fset e.e_act acts.(p)
                            in
                            if dependent then
                              Array.iteri
                                (fun q c ->
                                  if c > new_clock.(q) then new_clock.(q) <- c)
                                e.e_clock)
                          entries;
                        new_clock.(p) <- new_clock.(p) + 1;
                        let clocks' = Array.copy clocks in
                        clocks'.(p) <- new_clock;
                        let e =
                          {
                            e_proc = p;
                            e_act = acts.(p);
                            e_fset = fset;
                            e_clock = new_clock;
                            e_frame = frame;
                          }
                        in
                        let entries' = e :: entries in
                        let record kind loc value labeled =
                          (p, kind, loc, value, labeled) :: trace
                        in
                        let child_sleep =
                          if reduced then
                            filter_sleep !cur_sleep acts nthreads (fun aj ->
                                not (dep_act fset aj acts.(p)))
                          else 0
                        in
                        let continue_with machine' env' in_cs trace' =
                          let threads' = Array.copy threads in
                          threads'.(p) <- { t with env = env'; cont; in_cs };
                          explore machine' threads' clocks' entries' trace'
                            child_sleep
                        in
                        (match action with
                        | Exec.A_load { reg; loc; labeled } ->
                            let v, machine' = M.read machine ~proc:p ~loc ~labeled in
                            continue_with machine'
                              (Exec.Env.set env reg v)
                              t.in_cs
                              (record Op.Read loc v labeled)
                        | Exec.A_store { loc; value; labeled } ->
                            continue_with
                              (M.write machine ~proc:p ~loc ~value ~labeled)
                              env t.in_cs
                              (record Op.Write loc value labeled)
                        | Exec.A_tas { reg; loc } ->
                            let old, machine' = M.test_and_set machine ~proc:p ~loc in
                            (* recorded as the write it performs (paper
                               footnote 4), mirroring Explore.run_random *)
                            continue_with machine'
                              (Exec.Env.set env reg old)
                              t.in_cs
                              (record Op.Write loc 1 true)
                        | Exec.A_enter -> continue_with machine env true trace
                        | Exec.A_exit -> continue_with machine env false trace));
                    if reduced then cur_sleep := !cur_sleep lor (1 lsl p)
                  end
                end
              done
            end
      end
    in
    explore
      (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
      (initial_threads program)
      (Array.init nthreads (fun _ -> Array.make nthreads 0))
      [] [] 0;
    match !err with None -> Ok !acc | Some msg -> Error msg
  end
