(** Partial-order-reduced checking of mutual exclusion on Lang
    programs: a stateful safety checker for cyclic programs (spin-lock
    style algorithms).  It combines ample-singleton persistent sets
    (computed from static future footprints, in the style of SPIN),
    sleep sets threaded through the DFS, covering-based state
    memoization (a revisited state is skipped only when some previously
    recorded sleep set is a subset of the current one), and the stack
    proviso against the ignoring problem.  It preserves the
    mutual-exclusion verdict, not the reachable state set: in particular
    exploration is cut off once every thread has finished, skipping the
    post-termination message-drain lattice.

    Internal machine steps (buffer flushes, message deliveries) are
    treated as a pseudo-process that is never slept: a full expansion
    either expands every internal successor or, when no thread's next
    access depends on the pending work, defers them all; dependence
    between an access and the internal process is approximated through
    {!Smem_machine.Machine_sig.MACHINE.internal_locs}. *)

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
   purposes. *)
type act = Access of Races.access | Marker | Fin

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
  | Marker, Access _ | Access _, Marker -> false
  | Access a, Access b -> dep_access fset a b

(* Dependence of a thread transition with an internal step, given the
   pending-work footprint [fset] at the internal step's source state.
   [wdoi] is {!MACHINE.write_depends_on_internal}. *)
let dep_env ~wdoi fset = function
  | Fin | Marker -> false
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
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

type next =
  | N_fin of Exec.Env.t  (* the thread's next transition is to finish *)
  | N_act of Exec.action * Exec.Env.t * Ast.stmt list

exception Found of string list
exception Fuel_out

let next_of layout ~fuel (t : Exec.thread) =
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

(* Drop from a sleep mask every thread whose pending action is
   dependent with [taken] (it must be re-explored after the swap). *)
let filter_sleep sleep acts nthreads pred =
  let out = ref 0 in
  for j = 0 to nthreads - 1 do
    if sleep land (1 lsl j) <> 0 && pred acts.(j) then out := !out lor (1 lsl j)
  done;
  !out

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
    Exec.digest_key
      (machine, Array.map (fun t -> Exec.(t.env, t.cont, t.in_cs)) threads)
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
        else if Array.for_all (fun t -> t.Exec.finished) threads then
          (* Verdict cutoff: no thread can enter a critical section any
             more, so the remaining message-drain lattice is irrelevant
             to mutual exclusion. *)
          ()
        else begin
          match
            Array.map
              (fun t ->
                if t.Exec.finished then None else Some (next_of layout ~fuel t))
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
                  (fun i (t : Exec.thread) ->
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
  and exec_thread machine (threads : Exec.thread array) path i next =
    let t = threads.(i) in
    let machine', t', path' =
      match next with
      | N_fin env -> (machine, { t with env; finished = true }, path)
      | N_act (action, env, cont) ->
          let path' = describe_action i action :: path in
          if action = Exec.A_enter && Array.exists (fun u -> u.Exec.in_cs) threads
          then raise (Found (List.rev path'));
          let machine', t', _ =
            Exec.perform (module M) machine ~proc:i t action env cont
          in
          (machine', t', path')
    in
    let threads' = Array.copy threads in
    threads'.(i) <- t';
    (machine', threads', path')
  and expand machine threads path sleep prefer key nexts acts fset fps =
    (* Ample side conditions.  [fbig] over-approximates the pending
       footprint at every future state of an execution in which the
       candidate thread never moves: work pending now plus anything
       the other threads may still write. *)
    let others_any_write = Array.make nthreads false in
    Array.iteri
      (fun i (t : Exec.thread) ->
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
          (fun j (t : Exec.thread) ->
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
        (Exec.initial_threads program)
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
