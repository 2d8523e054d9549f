module H = Smem_core.History
module Op = Smem_core.Op

type verdict = Safe of int | Violation of string list | State_limit

type thread = { env : Exec.Env.t; cont : Ast.stmt list; in_cs : bool; finished : bool }

let initial_threads program =
  Array.map
    (fun code -> { env = Exec.Env.empty; cont = code; in_cs = false; finished = false })
    program.Ast.threads

(* The checker is DPOR-backed (ample singletons + sleep sets + covering
   memoization, see {!Dpor}); the test suite keeps an unreduced
   enumerator as its differential oracle. *)
let check_mutex ?max_states ?max_transitions ?fuel m program =
  let verdict, _stats = Dpor.check_mutex_stats ?max_states ?max_transitions ?fuel m program in
  match verdict with
  | Dpor.Safe n -> Safe n
  | Dpor.Violation trace -> Violation trace
  | Dpor.State_limit -> State_limit

let check_mutex_stats ?max_states ?max_transitions ?fuel m program =
  let verdict, stats = Dpor.check_mutex_stats ?max_states ?max_transitions ?fuel m program in
  let verdict =
    match verdict with
    | Dpor.Safe n -> Safe n
    | Dpor.Violation trace -> Violation trace
    | Dpor.State_limit -> State_limit
  in
  (verdict, stats)

type liveness = Deadlock_free of int | Stuck of int | Liveness_state_limit

let check_deadlock_freedom ?(max_states = 2_000_000) ?(fuel = 10_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  (* Forward pass: build the reachable state graph.  A state is keyed by
     the machine plus each thread's (env, cont, finished). *)
  let key_of machine threads =
    Dpor.digest_key
      (machine, Array.map (fun t -> (t.env, t.cont, t.finished)) threads)
  in
  let successors = Hashtbl.create 65_537 in
  let terminal = Hashtbl.create 97 in
  let limit = ref false in
  let rec explore machine threads =
    let key = key_of machine threads in
    if Hashtbl.mem successors key || !limit then ()
    else if Hashtbl.length successors >= max_states then limit := true
    else begin
      let succs = ref [] in
      let push m' t' =
        succs := key_of m' t' :: !succs;
        explore m' t'
      in
      Hashtbl.add successors key [];
      let step_thread i =
        let t = threads.(i) in
        if t.finished then ()
        else
          match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
          | Exec.Out_of_fuel ->
              (* Same graceful degradation as check_mutex: a fuel-bound
                 branch makes the exploration bounded, not an error. *)
              limit := true
          | Exec.Finished env ->
              let threads' = Array.copy threads in
              threads'.(i) <- { t with env; finished = true };
              push machine threads'
          | Exec.At_action (action, env, cont) -> (
              let with_thread env' = 
                let threads' = Array.copy threads in
                threads'.(i) <- { t with env = env'; cont };
                threads'
              in
              match action with
              | Exec.A_load { reg; loc; labeled } ->
                  let v, m' = M.read machine ~proc:i ~loc ~labeled in
                  push m' (with_thread (Exec.Env.set env reg v))
              | Exec.A_store { loc; value; labeled } ->
                  push (M.write machine ~proc:i ~loc ~value ~labeled) (with_thread env)
              | Exec.A_tas { reg; loc } ->
                  let old, m' = M.test_and_set machine ~proc:i ~loc in
                  push m' (with_thread (Exec.Env.set env reg old))
              | Exec.A_enter | Exec.A_exit ->
                  (* CS markers do not touch memory; in_cs is irrelevant
                     to termination, so leave it unchanged. *)
                  push machine (with_thread env))
      in
      for i = 0 to nthreads - 1 do
        step_thread i
      done;
      List.iter (fun m' -> push m' threads) (M.internal machine);
      Hashtbl.replace successors key !succs;
      if Array.for_all (fun t -> t.finished) threads then
        Hashtbl.replace terminal key ()
    end
  in
  explore
    (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
    (initial_threads program);
  if !limit then Liveness_state_limit
  else begin
    (* Backward pass: which states can reach a terminal state?  Build
       reverse edges and flood from the terminals. *)
    let reverse = Hashtbl.create 65_537 in
    Hashtbl.iter
      (fun src succs ->
        List.iter
          (fun dst ->
            Hashtbl.replace reverse dst
              (src :: (try Hashtbl.find reverse dst with Not_found -> [])))
          succs)
      successors;
    let alive = Hashtbl.create 65_537 in
    let queue = Queue.create () in
    Hashtbl.iter
      (fun k () ->
        Hashtbl.replace alive k ();
        Queue.add k queue)
      terminal;
    while not (Queue.is_empty queue) do
      let k = Queue.pop queue in
      List.iter
        (fun pred ->
          if not (Hashtbl.mem alive pred) then begin
            Hashtbl.replace alive pred ();
            Queue.add pred queue
          end)
        (try Hashtbl.find reverse k with Not_found -> [])
    done;
    let stuck = Hashtbl.length successors - Hashtbl.length alive in
    if stuck = 0 then Deadlock_free (Hashtbl.length successors) else Stuck stuck
  end

let run_random ?(fuel = 10_000) ?(max_steps = 100_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program ~rand =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let machine = ref (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout)) in
  let threads = initial_threads program in
  let violated = ref false in
  let trace = ref [] in
  let record proc kind loc value labeled =
    trace := (proc, kind, loc, value, labeled) :: !trace
  in
  let step_thread i =
    let t = threads.(i) in
    match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
    | Exec.Out_of_fuel -> invalid_arg "Explore.run_random: thread ran out of fuel"
    | Exec.Finished env -> threads.(i) <- { t with env; finished = true }
    | Exec.At_action (action, env, cont) -> (
        match action with
        | Exec.A_load { reg; loc; labeled } ->
            let v, m' = M.read !machine ~proc:i ~loc ~labeled in
            machine := m';
            record i Op.Read loc v labeled;
            threads.(i) <- { t with env = Exec.Env.set env reg v; cont }
        | Exec.A_store { loc; value; labeled } ->
            machine := M.write !machine ~proc:i ~loc ~value ~labeled;
            record i Op.Write loc value labeled;
            threads.(i) <- { t with env; cont }
        | Exec.A_tas { reg; loc } ->
            let old, m' = M.test_and_set !machine ~proc:i ~loc in
            machine := m';
            (* recorded as the write it performs (paper footnote 4) *)
            record i Op.Write loc 1 true;
            threads.(i) <- { t with env = Exec.Env.set env reg old; cont }
        | Exec.A_enter ->
            if Array.exists (fun (u : thread) -> u.in_cs) threads then violated := true;
            threads.(i) <- { t with env; cont; in_cs = true }
        | Exec.A_exit -> threads.(i) <- { t with env; cont; in_cs = false })
  in
  let rec loop steps =
    (* [max_steps] also guards against livelock: a cyclic program can
       spin forever on a machine that lets a stale copy persist with no
       internal work pending, so an unbounded random walk need not
       terminate.  The truncated trace is still a valid history. *)
    if steps >= max_steps then ()
    else
      let runnable =
        List.filter
          (fun i -> not threads.(i).finished)
          (List.init nthreads Fun.id)
      in
      let internals = M.internal !machine in
      let n = List.length runnable + List.length internals in
      if n = 0 then ()
      else begin
        let k = Random.State.int rand n in
        if k < List.length runnable then step_thread (List.nth runnable k)
        else machine := List.nth internals (k - List.length runnable);
        loop (steps + 1)
      end
  in
  loop 0;
  let next_index = Array.make nthreads 0 in
  let ops =
    List.rev !trace
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
  (history, !violated)

let to_verdict ~machine ~subject = function
  | Safe states ->
      Smem_api.Verdict.v ~question:"mutual-exclusion" ~subject
        ~authority:("machine:" ^ machine) ~states
        (Some Smem_api.Verdict.Forbidden)
  | Violation trace ->
      Smem_api.Verdict.v ~question:"mutual-exclusion" ~subject
        ~authority:("machine:" ^ machine) ~notes:trace
        (Some Smem_api.Verdict.Allowed)
  | State_limit ->
      Smem_api.Verdict.v ~question:"mutual-exclusion" ~subject
        ~authority:("machine:" ^ machine)
        ~notes:[ "state or fuel bound hit; verdict undecided" ]
        None
