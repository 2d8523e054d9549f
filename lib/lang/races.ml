type access = {
  thread : int;
  kind : [ `Read | `Write | `Rmw ];
  loc : int;
  labeled : bool;
}

type verdict = Race_free of int | Race of access * access | State_limit

let pp_access ppf a =
  Format.fprintf ppf "t%d %s loc%d%s" a.thread
    (match a.kind with `Read -> "read" | `Write -> "write" | `Rmw -> "rmw")
    a.loc
    (if a.labeled then " (labeled)" else "")

let access_of_action thread = function
  | Exec.A_load { loc; labeled; _ } -> Some { thread; kind = `Read; loc; labeled }
  | Exec.A_store { loc; labeled; _ } -> Some { thread; kind = `Write; loc; labeled }
  | Exec.A_tas { loc; _ } -> Some { thread; kind = `Rmw; loc; labeled = true }
  | Exec.A_enter | Exec.A_exit -> None

let conflicting a b =
  a.loc = b.loc
  && (a.kind <> `Read || b.kind <> `Read)
  && ((not a.labeled) || not b.labeled)

exception Found of access * access

(* Exploration over the SC machine: SC state is just the shared memory,
   and reads are deterministic, so the product automaton is small. *)
module M = Smem_machine.Sc_machine

let find_race ?(max_states = 2_000_000) ?(fuel = 10_000) program =
  let layout = Ast.layout program in
  let nthreads = Array.length program.Ast.threads in
  let visited = Hashtbl.create 65_537 in
  let states = ref 0 in
  let limit_hit = ref false in
  (* The next visible action of each unfinished thread (deterministic). *)
  let pending_accesses threads =
    Array.to_list
      (Array.mapi
         (fun i (t : Exec.thread) ->
           if t.finished then None
           else
             match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
             | Exec.At_action (action, _, _) -> access_of_action i action
             | Exec.Finished _ | Exec.Out_of_fuel -> None)
         threads)
    |> List.filter_map Fun.id
  in
  let check_for_race threads =
    let accesses = pending_accesses threads in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b -> if j > i && conflicting a b then raise (Found (a, b)))
          accesses)
      accesses
  in
  let rec explore machine threads =
    let key =
      Exec.digest_key
        (machine, Array.map (fun (t : Exec.thread) -> (t.env, t.cont)) threads)
    in
    if Hashtbl.mem visited key || !limit_hit then ()
    else begin
      incr states;
      if !states > max_states then limit_hit := true
      else begin
        Hashtbl.add visited key ();
        check_for_race threads;
        let step i =
          let t = threads.(i) in
          if t.Exec.finished then ()
          else
            let machine', t' =
              match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
              | Exec.Out_of_fuel ->
                  invalid_arg "Races.find_race: thread ran out of local fuel"
              | Exec.Finished env -> (machine, { t with env; finished = true })
              | Exec.At_action (action, env, cont) ->
                  let machine', t', _ =
                    Exec.perform (module M) machine ~proc:i t action env cont
                  in
                  (machine', t')
            in
            let threads' = Array.copy threads in
            threads'.(i) <- t';
            explore machine' threads'
        in
        for i = 0 to nthreads - 1 do
          step i
        done
      end
    end
  in
  try
    explore
      (M.create ~nprocs:nthreads ~nlocs:(Ast.nlocs layout))
      (Exec.initial_threads program);
    if !limit_hit then State_limit else Race_free !states
  with Found (a, b) -> Race (a, b)

let properly_labeled ?max_states program =
  match find_race ?max_states program with
  | Race_free _ -> true
  | Race _ | State_limit -> false
