type verdict = Dpor.verdict =
  | Safe of int
  | Violation of string list
  | State_limit

let check_mutex ?max_states ?max_transitions ?fuel m program =
  fst (Dpor.check_mutex_stats ?max_states ?max_transitions ?fuel m program)

let check_mutex_stats = Dpor.check_mutex_stats

type liveness = Deadlock_free of int | Stuck of int | Liveness_state_limit

let check_deadlock_freedom ?(max_states = 2_000_000) ?(fuel = 10_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  (* Forward pass: build the reachable state graph.  A state is keyed by
     the machine plus each thread's (env, cont, finished). *)
  let key_of machine threads =
    Exec.digest_key
      ( machine,
        Array.map (fun (t : Exec.thread) -> (t.env, t.cont, t.finished)) threads
      )
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
      let step_thread i (t : Exec.thread) =
        if not t.finished then
          let next machine' t' =
            let threads' = Array.copy threads in
            threads'.(i) <- t';
            push machine' threads'
          in
          match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
          | Exec.Out_of_fuel ->
              (* Same graceful degradation as check_mutex: a fuel-bound
                 branch makes the exploration bounded, not an error. *)
              limit := true
          | Exec.Finished env -> next machine { t with env; finished = true }
          | Exec.At_action (action, env, cont) ->
              (* in_cs is not part of the key: it is irrelevant to
                 termination *)
              let machine', t', _ =
                Exec.perform (module M) machine ~proc:i t action env cont
              in
              next machine' t'
      in
      Array.iteri step_thread threads;
      List.iter (fun m' -> push m' threads) (M.internal machine);
      Hashtbl.replace successors key !succs;
      if Array.for_all (fun (t : Exec.thread) -> t.finished) threads then
        Hashtbl.replace terminal key ()
    end
  in
  explore
    (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
    (Exec.initial_threads program);
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

(* ------------------------------------------------------------------ *)
(* Exhaustive outcomes of loop-free programs                           *)
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

(* A depth-first walk of the (machine, threads, per-thread operations)
   graph that expands every state once.  Loop-free programs make that
   graph a DAG whose sinks are the all-finished states, so every
   outcome is reached with no dependence reasoning at all; memoization
   merges the interleavings that meet in one state. *)
let fold_traces ?(max_transitions = 2_000_000) ?(fuel = 10_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program ~init ~f =
  if not (loop_free program) then
    Error "Explore.fold_traces: program has unbounded loops"
  else begin
    let layout = Ast.layout program in
    let nthreads = Array.length program.Ast.threads in
    let expanded = Hashtbl.create 4_096 in
    let emitted = Hashtbl.create 256 in
    let transitions = ref 0 in
    let acc = ref init in
    let exception Abort of string in
    (* [ops.(i)] holds thread [i]'s operations so far, newest first.  It
       is part of the state: a register overwritten since does not
       remember the value a load returned. *)
    let rec visit machine threads ops =
      let key = Exec.digest_key (machine, threads, ops) in
      if not (Hashtbl.mem expanded key) then begin
        Hashtbl.add expanded key ();
        if Array.for_all (fun (t : Exec.thread) -> t.finished) threads then
          emit threads ops
        else begin
          Array.iteri (step machine threads ops) threads;
          List.iter (fun m' -> take m' threads ops) (M.internal machine)
        end
      end
    and emit threads ops =
      (* Draining the remaining internal work cannot change the outcome,
         so final states that differ only in their machine share it. *)
      let envs = Array.map (fun (t : Exec.thread) -> t.env) threads in
      let outcome = Exec.digest_key (ops, envs) in
      if not (Hashtbl.mem emitted outcome) then begin
        Hashtbl.add emitted outcome ();
        let events =
          List.concat
            (List.mapi
               (fun i l -> List.rev_map (fun e -> (i, e)) l)
               (Array.to_list ops))
        in
        acc := f !acc (Exec.history layout ~nthreads events, envs)
      end
    and step machine threads ops i (t : Exec.thread) =
      let replace a x =
        let a = Array.copy a in
        a.(i) <- x;
        a
      in
      if not t.finished then
        match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
        | Exec.Out_of_fuel ->
            raise (Abort "Explore.fold_traces: thread ran out of local fuel")
        | Exec.Finished env ->
            take machine (replace threads { t with env; finished = true }) ops
        | Exec.At_action (action, env, cont) ->
            let machine', t', event =
              Exec.perform (module M) machine ~proc:i t action env cont
            in
            let ops =
              match event with
              | Some e -> replace ops (e :: ops.(i))
              | None -> ops
            in
            take machine' (replace threads t') ops
    and take machine threads ops =
      incr transitions;
      if !transitions > max_transitions then
        raise (Abort "Explore.fold_traces: transition budget exhausted");
      visit machine threads ops
    in
    match
      visit
        (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
        (Exec.initial_threads program)
        (Array.make nthreads [])
    with
    | () -> Ok !acc
    | exception Abort msg -> Error msg
  end

(* ------------------------------------------------------------------ *)
(* Random schedules                                                    *)
(* ------------------------------------------------------------------ *)

let run_random ?(fuel = 10_000) ?(max_steps = 100_000)
    (module M : Smem_machine.Machine_sig.MACHINE) program ~rand =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let machine = ref (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout)) in
  let threads = Exec.initial_threads program in
  let violated = ref false in
  let trace = ref [] in
  let step_thread i =
    let t = threads.(i) in
    match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
    | Exec.Out_of_fuel ->
        invalid_arg "Explore.run_random: thread ran out of fuel"
    | Exec.Finished env -> threads.(i) <- { t with env; finished = true }
    | Exec.At_action (action, env, cont) ->
        if
          action = Exec.A_enter
          && Array.exists (fun (u : Exec.thread) -> u.in_cs) threads
        then violated := true;
        let machine', t', event =
          Exec.perform (module M) !machine ~proc:i t action env cont
        in
        machine := machine';
        threads.(i) <- t';
        Option.iter (fun e -> trace := (i, e) :: !trace) event
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
  (* ids in execution order: the corpus carves prefixes from them *)
  (Exec.history layout ~nthreads (List.rev !trace), !violated)
