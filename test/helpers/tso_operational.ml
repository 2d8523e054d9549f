(* The operational TSO replay that decided tso-op before tso-op became
   a parameter quadruple: §3.2's per-processor FIFO store buffers in
   front of a single-ported shared memory.  A history is accepted iff
   some interleaving of issue and buffer-flush steps replays it, each
   read returning the newest buffered value for its location, or the
   memory value when none is buffered.  Kept as the differential
   reference of the quadruple (test_models' "tso-op reference" cases
   and test/tso_reference.exe): on every history both must agree. *)

module History = Smem_core.History
module Op = Smem_core.Op

(* State of the replay: how far each processor has issued, the pending
   store buffers (front = oldest), and the shared memory contents. *)
type state = {
  ptr : int array;
  buffers : (int * int) list array;
  memory : int array;
}

let clone s =
  {
    ptr = Array.copy s.ptr;
    buffers = Array.copy s.buffers;
    memory = Array.copy s.memory;
  }

let buffered_value buffer loc =
  (* Newest buffered write to [loc]: scan from the back. *)
  List.fold_left
    (fun acc (l, v) -> if l = loc then Some v else acc)
    None buffer

let check h =
  let nprocs = History.nprocs h in
  let nlocs = History.nlocs h in
  let visited = Hashtbl.create 997 in
  let rec explore s =
    let key = (s.ptr, s.buffers, s.memory) in
    if Hashtbl.mem visited key then false
    else begin
      Hashtbl.add visited key ();
      let done_ =
        Array.for_all2 (fun p row -> p = Array.length row)
          s.ptr
          (Array.init nprocs (History.proc_ops h))
      in
      if done_ then true
      else begin
        let step_issue p =
          let row = History.proc_ops h p in
          if s.ptr.(p) >= Array.length row then false
          else begin
            let op = History.op h row.(s.ptr.(p)) in
            match op.Op.kind with
            | Op.Write ->
                let s' = clone s in
                s'.ptr.(p) <- s.ptr.(p) + 1;
                s'.buffers.(p) <- s.buffers.(p) @ [ (op.Op.loc, op.Op.value) ];
                explore s'
            | Op.Read ->
                let visible =
                  match buffered_value s.buffers.(p) op.Op.loc with
                  | Some v -> v
                  | None -> s.memory.(op.Op.loc)
                in
                visible = op.Op.value
                &&
                let s' = clone s in
                s'.ptr.(p) <- s.ptr.(p) + 1;
                explore s'
          end
        in
        let step_flush p =
          match s.buffers.(p) with
          | [] -> false
          | (loc, v) :: rest ->
              let s' = clone s in
              s'.buffers.(p) <- rest;
              s'.memory.(loc) <- v;
              explore s'
        in
        let procs = List.init nprocs Fun.id in
        List.exists step_issue procs || List.exists step_flush procs
      end
    end
  in
  explore
    {
      ptr = Array.make nprocs 0;
      buffers = Array.make nprocs [];
      memory = Array.make (max 1 nlocs) 0;
    }
