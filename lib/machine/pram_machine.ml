(** The PRAM machine of §3.5: a full memory replica per processor;
    writes update the local replica and broadcast the update; reliable
    point-to-point FIFO channels deliver updates asynchronously, so
    updates from one processor arrive everywhere in program order while
    updates from distinct processors may interleave arbitrarily. *)

type t = {
  replicas : int array array;  (* proc -> loc -> value *)
  channels : (int * int) list array array;  (* src -> dst -> (loc, value), oldest first *)
  master : int array;  (* the globally serialized copy read-modify-writes act on *)
}

let name = "pram"
let model_key = "pram"

let create ~nprocs ~nlocs =
  {
    replicas = Funarray.make2 nprocs (max 1 nlocs) 0;
    channels = Array.init nprocs (fun _ -> Array.make nprocs []);
    master = Array.make (max 1 nlocs) 0;
  }

let read t ~proc ~loc ~labeled:_ = (t.replicas.(proc).(loc), t)

let enqueue channels ~src ~dst msg =
  let row = Array.copy channels.(src) in
  row.(dst) <- channels.(src).(dst) @ [ msg ];
  Funarray.set_row channels src row

let write t ~proc ~loc ~value ~labeled:_ =
  let replicas = Funarray.set2 t.replicas proc loc value in
  let channels = ref t.channels in
  for dst = 0 to Array.length t.replicas - 1 do
    if dst <> proc then channels := enqueue !channels ~src:proc ~dst (loc, value)
  done;
  { replicas; channels = !channels; master = Funarray.set t.master loc value }

(* Setting an already-set bit is observationally a no-op; skipping the
   redundant broadcast keeps spin loops within a finite state space. *)
let test_and_set t ~proc ~loc =
  let old = t.master.(loc) in
  if old = 1 then (old, t) else (old, write t ~proc ~loc ~value:1 ~labeled:false)

let internal t =
  let nprocs = Array.length t.replicas in
  let deliver src dst =
    match t.channels.(src).(dst) with
    | [] -> None
    | (loc, value) :: rest ->
        let row = Array.copy t.channels.(src) in
        row.(dst) <- rest;
        Some
          {
            t with
            replicas = Funarray.set2 t.replicas dst loc value;
            channels = Funarray.set_row t.channels src row;
          }
  in
  List.concat_map
    (fun src -> List.filter_map (deliver src) (List.init nprocs Fun.id))
    (List.init nprocs Fun.id)

(* Pending internal work = the queued channel updates. *)
let internal_locs t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc queue ->
          List.fold_left (fun acc (l, _) -> l :: acc) acc queue)
        acc row)
    [] t.channels
  |> List.sort_uniq compare

let synchronous = false
let write_depends_on_internal = false
