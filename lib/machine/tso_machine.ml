(** The TSO machine of §3.2: per-processor FIFO store buffers in front
    of a single-ported shared memory.  Writes enter the issuer's buffer;
    reads are satisfied by the newest buffered write to the location or,
    failing that, by memory; an internal step commits the oldest
    buffered write of some processor to memory.  Labels are ignored —
    SPARC TSO has no synchronization accesses. *)

type t = {
  memory : int array;
  buffers : (int * int) list array;  (* proc -> (loc, value), oldest first *)
}

let name = "tso"
let model_key = "tso-op"

let create ~nprocs ~nlocs =
  { memory = Array.make (max 1 nlocs) 0; buffers = Array.make nprocs [] }

let buffered_value buffer loc =
  List.fold_left (fun acc (l, v) -> if l = loc then Some v else acc) None buffer

let read t ~proc ~loc ~labeled:_ =
  match buffered_value t.buffers.(proc) loc with
  | Some v -> (v, t)
  | None -> (t.memory.(loc), t)

let write t ~proc ~loc ~value ~labeled:_ =
  { t with buffers = Funarray.set_row t.buffers proc (t.buffers.(proc) @ [ (loc, value) ]) }

(* x86-style locked operation: drain the issuer's store buffer, then
   read-modify-write memory atomically. *)
let test_and_set t ~proc ~loc =
  let memory = Array.copy t.memory in
  List.iter (fun (l, v) -> memory.(l) <- v) t.buffers.(proc);
  let old = memory.(loc) in
  memory.(loc) <- 1;
  (old, { memory; buffers = Funarray.set_row t.buffers proc [] })

let internal t =
  let flush proc =
    match t.buffers.(proc) with
    | [] -> None
    | (loc, value) :: rest ->
        Some
          {
            memory = Funarray.set t.memory loc value;
            buffers = Funarray.set_row t.buffers proc rest;
          }
  in
  List.filter_map flush (List.init (Array.length t.buffers) Fun.id)

(* Pending internal work = the buffered writes awaiting commit. *)
let internal_locs t =
  Array.fold_left
    (fun acc buffer -> List.fold_left (fun acc (l, _) -> l :: acc) acc buffer)
    [] t.buffers
  |> List.sort_uniq compare

let synchronous = false
let write_depends_on_internal = false
