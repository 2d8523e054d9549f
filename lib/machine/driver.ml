module H = Smem_core.History
module Op = Smem_core.Op

let replays = Smem_obs.Metrics.counter "machine.replays"
let replay_states = Smem_obs.Metrics.counter "machine.replay_states"

type instr = { kind : Op.kind; loc : int; value : int; labeled : bool }

type program = {
  nprocs : int;
  nlocs : int;
  loc_names : string array;
  code : instr list array;
}

let program_of_history h =
  let code =
    Array.init (H.nprocs h) (fun p ->
        H.proc_ops h p |> Array.to_list
        |> List.map (fun id ->
               let op = H.op h id in
               {
                 kind = op.Op.kind;
                 loc = op.Op.loc;
                 value = op.Op.value;
                 labeled = Op.is_labeled op;
               }))
  in
  {
    nprocs = H.nprocs h;
    nlocs = H.nlocs h;
    loc_names = Array.init (H.nlocs h) (H.loc_name h);
    code;
  }

let attr_of labeled = if labeled then Op.Labeled else Op.Ordinary

let history_of_trace program trace =
  (* [trace] is (proc, instr, observed value) in issue order. *)
  let next_index = Array.make program.nprocs 0 in
  let ops =
    List.mapi
      (fun id (proc, instr, value) ->
        let index = next_index.(proc) in
        next_index.(proc) <- index + 1;
        {
          Op.id;
          proc;
          index;
          kind = instr.kind;
          loc = instr.loc;
          value;
          attr = attr_of instr.labeled;
        })
      trace
  in
  H.of_ops ~nprocs:program.nprocs ~loc_names:program.loc_names ops

let run_random (module M : Machine_sig.MACHINE) program ~rand =
  let state = ref (M.create ~nprocs:program.nprocs ~nlocs:program.nlocs) in
  let remaining = Array.map (fun c -> ref c) program.code in
  let trace = ref [] in
  let pending () =
    List.filter (fun p -> !(remaining.(p)) <> []) (List.init program.nprocs Fun.id)
  in
  let rec loop () =
    let issuers = pending () in
    let internals = M.internal !state in
    let n_choices = List.length issuers + List.length internals in
    if n_choices = 0 then ()
    else begin
      let k = Random.State.int rand n_choices in
      (if k < List.length issuers then begin
         let p = List.nth issuers k in
         match !(remaining.(p)) with
         | [] -> assert false
         | instr :: rest ->
             remaining.(p) := rest;
             (match instr.kind with
             | Op.Read ->
                 let v, s' =
                   M.read !state ~proc:p ~loc:instr.loc ~labeled:instr.labeled
                 in
                 state := s';
                 trace := (p, instr, v) :: !trace
             | Op.Write ->
                 state :=
                   M.write !state ~proc:p ~loc:instr.loc ~value:instr.value
                     ~labeled:instr.labeled;
                 trace := (p, instr, instr.value) :: !trace)
       end
       else
         let s' = List.nth internals (k - List.length issuers) in
         state := s');
      loop ()
    end
  in
  loop ();
  history_of_trace program (List.rev !trace)

(* One memoized depth-first walk over (machine state, program counters,
   reads observed so far), issue steps before internal steps.  A read
   proceeds only if [read_ok proc pc value]; [finish] sees the reads of
   each complete run and stops the walk by returning [true].  Returns
   whether it stopped, and the number of states visited.  The states
   are deep: the default [Hashtbl.hash] reads only a bounded prefix of
   them, so most would share a bucket. *)
let walk (module M : Machine_sig.MACHINE) program ~read_ok ~finish =
  let module Visited = Hashtbl.Make (struct
    type t = M.t * int array * int list array

    let equal = ( = )
    let hash = Hashtbl.hash_param 100 256
  end) in
  let visited = Visited.create 997 in
  let code = Array.map Array.of_list program.code in
  let procs = List.init program.nprocs Fun.id in
  let rec explore state pcs observed =
    let key = (state, pcs, observed) in
    (not (Visited.mem visited key))
    && begin
         Visited.add visited key ();
         if Array.for_all2 (fun pc c -> pc = Array.length c) pcs code then
           finish observed
         else
           let issue p =
             let pc = pcs.(p) in
             pc < Array.length code.(p)
             &&
             let instr = code.(p).(pc) in
             let pcs' = Funarray.set pcs p (pc + 1) in
             match instr.kind with
             | Op.Read ->
                 let v, s' =
                   M.read state ~proc:p ~loc:instr.loc ~labeled:instr.labeled
                 in
                 let seen = v :: observed.(p) in
                 read_ok p pc v
                 && explore s' pcs' (Funarray.set_row observed p seen)
             | Op.Write ->
                 let s' =
                   M.write state ~proc:p ~loc:instr.loc ~value:instr.value
                     ~labeled:instr.labeled
                 in
                 explore s' pcs' observed
           in
           List.exists issue procs
           || List.exists
                (fun s' -> explore s' pcs observed)
                (M.internal state)
       end
  in
  let stopped =
    explore
      (M.create ~nprocs:program.nprocs ~nlocs:program.nlocs)
      (Array.make program.nprocs 0)
      (Array.make program.nprocs [])
  in
  (stopped, Visited.length visited)

(* Guided search: schedule nondeterminism is explored exhaustively, but
   a read may only be issued when the machine would return exactly the
   value the target history assigns to it. *)
let reachable ((module M : Machine_sig.MACHINE) as m) program target =
  Smem_obs.Metrics.incr replays;
  Smem_obs.Trace.span ~cat:"machine"
    ~args:[ ("machine", Smem_obs.Json.Str M.name) ]
    "machine/replay"
  @@ fun () ->
  let expected =
    Array.init program.nprocs (fun p ->
        H.proc_ops target p |> Array.map (fun id -> (H.op target id).Op.value))
  in
  let ok, states =
    walk m program
      ~read_ok:(fun p pc v -> v = expected.(p).(pc))
      ~finish:(fun _ -> true)
  in
  Smem_obs.Metrics.add replay_states states;
  ok

(* Read observations are accumulated per processor and stitched into
   the global read order (processor-major) at the end of each run. *)
let outcomes m program =
  let results = ref [] in
  let finish observed =
    results := List.concat_map List.rev (Array.to_list observed) :: !results;
    false
  in
  ignore (walk m program ~read_ok:(fun _ _ _ -> true) ~finish);
  List.sort_uniq compare !results
