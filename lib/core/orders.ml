module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

let po h =
  let rel = Rel.create (History.nops h) in
  for p = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h p in
    let n = Array.length row in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Rel.add rel row.(i) row.(j)
      done
    done
  done;
  rel

let po_loc h =
  let rel = Rel.create (History.nops h) in
  for p = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h p in
    let n = Array.length row in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Op.same_loc (History.op h row.(i)) (History.op h row.(j)) then
          Rel.add rel row.(i) row.(j)
      done
    done
  done;
  rel

let po_of_proc h p =
  let rel = Rel.create (History.nops h) in
  let row = History.proc_ops h p in
  let n = Array.length row in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Rel.add rel row.(i) row.(j)
    done
  done;
  rel

(* The base of ppo keeps a program-order pair unless it is a write
   followed by a read of a different location, or of any location
   under [~any_loc] (LoadOp and StoreStore); the transitive closure
   restores pairs reachable through intermediate operations (under
   [~any_loc] there are none: a chain from a write reaches only
   writes). *)
let ppo_of_rows ?(any_loc = false) h rows =
  let rel = Rel.create (History.nops h) in
  Array.iter
    (fun row ->
      let n = Array.length row in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = History.op h row.(i) and b = History.op h row.(j) in
          let bypassable =
            Op.is_write a && Op.is_read b && (any_loc || not (Op.same_loc a b))
          in
          if not bypassable then Rel.add rel row.(i) row.(j)
        done
      done)
    rows;
  Rel.transitive_closure rel

let all_rows h = Array.init (History.nprocs h) (fun p -> History.proc_ops h p)
let ppo h = ppo_of_rows h (all_rows h)
let ppo_of_proc h p = ppo_of_rows h [| History.proc_ops h p |]
let load_op_store_store h = ppo_of_rows ~any_loc:true h (all_rows h)

let forwarding h ~rf =
  let rel = Rel.create (History.nops h) in
  let legal r =
    let ro = History.op h r and w = Reads_from.writer rf r in
    (* The processor's earlier writes to r's location, latest first. *)
    let earlier =
      Array.fold_left
        (fun acc id ->
          let o = History.op h id in
          if o.Op.index < ro.Op.index && Op.is_write o && Op.same_loc o ro
          then id :: acc
          else acc)
        [] (History.proc_ops h ro.Op.proc)
    in
    match earlier with
    | latest :: _ when latest = w -> true
    | _ when w <> History.init && Op.same_proc (History.op h w) ro -> false
    | _ ->
        if w <> History.init then Rel.add rel w r;
        List.iter (fun w' -> Rel.add rel w' r) earlier;
        true
  in
  if List.for_all legal (History.reads h) then Some rel else None

let ppo_within h ~members =
  let rows =
    Array.init (History.nprocs h) (fun p ->
        History.proc_ops h p |> Array.to_list
        |> List.filter (Bitset.mem members)
        |> Array.of_list)
  in
  ppo_of_rows h rows

(* Untimed histories, the common case, skip the n^2 interval scan. *)
let real_time h =
  let rel = Rel.create (History.nops h) in
  let n = History.nops h in
  if History.has_timing h then
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        match (History.interval h a, History.interval h b) with
        | Some (_, fa), Some (sb, _) when a <> b && fa < sb -> Rel.add rel a b
        | _ -> ()
      done
    done;
  rel

let causal_with h ~po ~rf =
  Rel.transitive_closure (Rel.union po (Reads_from.wb h rf))

let causal h ~rf = causal_with h ~po:(po h) ~rf

let rwb_into h ~rf ~ppo rel ~member =
  List.iter
    (fun r ->
      if member r then
        let w' = Reads_from.writer rf r in
        if w' <> History.init && member w' then
          List.iter
            (fun a ->
              if member a && Rel.mem ppo a w' then Rel.add rel a r)
            (History.writes h))
    (History.reads h)

let rrb_into h ~rf ~co ~ppo rel ~member =
  List.iter
    (fun r ->
      if member r then
        let w = Reads_from.writer rf r in
        let loc = (History.op h r).Op.loc in
        List.iter
          (fun o' ->
            if
              member o' && o' <> w
              && (w = History.init || Coherence.precedes co w o')
            then
              List.iter
                (fun b -> if member b && Rel.mem ppo o' b then Rel.add rel r b)
                (History.writes h))
          (History.writes_to h loc))
    (History.reads h)

let sem_of h ~ppo ~rf ~co ~member =
  let rel = Rel.copy ppo in
  rwb_into h ~rf ~ppo rel ~member;
  rrb_into h ~rf ~co ~ppo rel ~member;
  Rel.transitive_closure rel

let everyone _ = true

let rwb h ~rf =
  let ppo = ppo h in
  let rel = Rel.create (History.nops h) in
  rwb_into h ~rf ~ppo rel ~member:everyone;
  rel

let rrb h ~rf ~co =
  let ppo = ppo h in
  let rel = Rel.create (History.nops h) in
  rrb_into h ~rf ~co ~ppo rel ~member:everyone;
  rel

let sem_with h ~ppo ~rf ~co = sem_of h ~ppo ~rf ~co ~member:everyone

let sem h ~rf ~co = sem_with h ~ppo:(ppo h) ~rf ~co

let sem_within h ~members ~rf ~co =
  sem_of h ~ppo:(ppo_within h ~members) ~rf ~co ~member:(Bitset.mem members)

(* Same-processor program-order pairs with a labeled endpoint. *)
let fences h =
  let rel = Rel.create (History.nops h) in
  for q = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h q in
    let n = Array.length row in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if
          Op.is_labeled (History.op h row.(i))
          || Op.is_labeled (History.op h row.(j))
        then Rel.add rel row.(i) row.(j)
      done
    done
  done;
  rel

let release_brackets h =
  let rel = Rel.create (History.nops h) in
  for q = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h q in
    Array.iteri
      (fun i id ->
        if Op.is_release (History.op h id) then
          for j = 0 to i - 1 do
            if Op.is_ordinary (History.op h row.(j)) then Rel.add rel row.(j) id
          done)
      row
  done;
  rel

let acquire_brackets h ~rf =
  let rel = Rel.create (History.nops h) in
  for q = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h q in
    Array.iteri
      (fun i id ->
        if Op.is_acquire (History.op h id) then
          let w = Reads_from.writer rf id in
          if w <> History.init then
            for j = i + 1 to Array.length row - 1 do
              if Op.is_ordinary (History.op h row.(j)) then Rel.add rel w row.(j)
            done)
      row
  done;
  rel

(* The guarantees are pairwise axioms over (transitive) program order,
   so every ordered pair of the right kinds contributes an edge — not
   just adjacent ones. *)
let session h ~ryw ~mr ~mw ~wfr =
  let r = Rel.create (History.nops h) in
  for p = 0 to History.nprocs h - 1 do
    let ops = History.proc_ops h p in
    let n = Array.length ops in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let o1 = History.op h ops.(i) and o2 = History.op h ops.(j) in
        if
          (ryw && Op.is_write o1 && Op.is_read o2)
          || (mr && Op.is_read o1 && Op.is_read o2)
          || (mw && Op.is_write o1 && Op.is_write o2)
        then Rel.add r o1.Op.id o2.Op.id
      done
    done
  done;
  Option.iter
    (fun rf ->
      List.iter
        (fun rd ->
          let w = Reads_from.writer rf rd in
          if w <> History.init then
            let ro = History.op h rd in
            Array.iter
              (fun id ->
                let o' = History.op h id in
                if o'.Op.index > ro.Op.index && Op.is_write o' then
                  Rel.add r w o'.Op.id)
              (History.proc_ops h ro.Op.proc))
        (History.reads h))
    wfr;
  r

let chain nops seq =
  let rel = Rel.create nops in
  for i = 0 to Array.length seq - 2 do
    Rel.add rel seq.(i) seq.(i + 1)
  done;
  rel

let total_order nops seq =
  let rel = Rel.create nops in
  let n = Array.length seq in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Rel.add rel seq.(i) seq.(j)
    done
  done;
  rel
