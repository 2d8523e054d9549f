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

(* Guided search: schedule nondeterminism is explored exhaustively, but
   a read may only be issued when the machine would return exactly the
   value the target history assigns to it. *)
let reachable (module M : Machine_sig.MACHINE) program target =
  Smem_obs.Metrics.incr replays;
  Smem_obs.Trace.span ~cat:"machine"
    ~args:[ ("machine", Smem_obs.Json.Str M.name) ]
    "machine/replay"
  @@ fun () ->
  let expected =
    Array.init program.nprocs (fun p ->
        H.proc_ops target p |> Array.map (fun id -> (H.op target id).Op.value))
  in
  let visited = Hashtbl.create 997 in
  let rec explore state pcs =
    let key = (state, pcs) in
    if Hashtbl.mem visited key then false
    else begin
      Hashtbl.add visited key ();
      let all_done =
        Array.for_all2 (fun pc code -> pc = List.length code) pcs program.code
      in
      if all_done then true
      else begin
        let issue p =
          let pc = pcs.(p) in
          if pc >= List.length program.code.(p) then false
          else begin
            let instr = List.nth program.code.(p) pc in
            let pcs' = Funarray.set pcs p (pc + 1) in
            match instr.kind with
            | Op.Read ->
                let v, s' = M.read state ~proc:p ~loc:instr.loc ~labeled:instr.labeled in
                v = expected.(p).(pc) && explore s' pcs'
            | Op.Write ->
                let s' =
                  M.write state ~proc:p ~loc:instr.loc ~value:instr.value
                    ~labeled:instr.labeled
                in
                explore s' pcs'
          end
        in
        List.exists issue (List.init program.nprocs Fun.id)
        || List.exists (fun s' -> explore s' pcs) (M.internal state)
      end
    end
  in
  let ok =
    explore
      (M.create ~nprocs:program.nprocs ~nlocs:program.nlocs)
      (Array.make program.nprocs 0)
  in
  Smem_obs.Metrics.add replay_states (Hashtbl.length visited);
  ok

let outcomes (module M : Machine_sig.MACHINE) program =
  let results = Hashtbl.create 97 in
  let visited = Hashtbl.create 997 in
  (* Read observations are accumulated per processor and stitched into
     the global read order (processor-major) at the end of each run. *)
  let rec explore state pcs observed =
    let key = (state, pcs, observed) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      let all_done =
        Array.for_all2 (fun pc code -> pc = List.length code) pcs program.code
      in
      if all_done then begin
        let outcome =
          List.concat (Array.to_list (Array.map List.rev observed))
        in
        Hashtbl.replace results outcome ()
      end
      else begin
        let issue p =
          let pc = pcs.(p) in
          if pc < List.length program.code.(p) then begin
            let instr = List.nth program.code.(p) pc in
            let pcs' = Funarray.set pcs p (pc + 1) in
            match instr.kind with
            | Op.Read ->
                let v, s' = M.read state ~proc:p ~loc:instr.loc ~labeled:instr.labeled in
                explore s' pcs' (Funarray.set_row observed p (v :: observed.(p)))
            | Op.Write ->
                let s' =
                  M.write state ~proc:p ~loc:instr.loc ~value:instr.value
                    ~labeled:instr.labeled
                in
                explore s' pcs' observed
          end
        in
        List.iter issue (List.init program.nprocs Fun.id);
        List.iter (fun s' -> explore s' pcs observed) (M.internal state)
      end
    end
  in
  explore (M.create ~nprocs:program.nprocs ~nlocs:program.nlocs)
    (Array.make program.nprocs 0)
    (Array.make program.nprocs []);
  Hashtbl.fold (fun outcome () acc -> outcome :: acc) results []
  |> List.sort_uniq compare
