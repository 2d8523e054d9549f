(** A coherent pipelined machine (Goodman-style processor consistency):
    the PRAM machine plus coherence.  A global per-location sequencer
    timestamps every write; replicas apply an incoming update only when
    its timestamp is newer than what they hold, so all replicas agree on
    the order of writes to each location while updates still propagate
    asynchronously in per-sender FIFO order. *)

type msg = { loc : int; value : int; ts : int }

type t = {
  replicas : int array array;
  applied_ts : int array array;  (* proc -> loc -> timestamp held *)
  channels : msg list array array;  (* src -> dst, oldest first *)
  next_ts : int array;  (* per-location sequencer *)
  master : int array;  (* value carried by the newest timestamp per location *)
}

let name = "pc-g"
let model_key = "pc-g"

let create ~nprocs ~nlocs =
  let nlocs = max 1 nlocs in
  {
    replicas = Funarray.make2 nprocs nlocs 0;
    applied_ts = Funarray.make2 nprocs nlocs 0;
    channels = Array.init nprocs (fun _ -> Array.make nprocs []);
    next_ts = Array.make nlocs 0;
    master = Array.make nlocs 0;
  }

let read t ~proc ~loc ~labeled:_ = (t.replicas.(proc).(loc), t)

let apply replicas applied_ts dst msg =
  if msg.ts > applied_ts.(dst).(msg.loc) then
    ( Funarray.set2 replicas dst msg.loc msg.value,
      Funarray.set2 applied_ts dst msg.loc msg.ts )
  else (replicas, applied_ts)

let write t ~proc ~loc ~value ~labeled:_ =
  let ts = t.next_ts.(loc) + 1 in
  let msg = { loc; value; ts } in
  let replicas, applied_ts = apply t.replicas t.applied_ts proc msg in
  let channels = ref t.channels in
  let nprocs = Array.length t.replicas in
  for dst = 0 to nprocs - 1 do
    if dst <> proc then begin
      let row = Array.copy !channels.(proc) in
      row.(dst) <- !channels.(proc).(dst) @ [ msg ];
      channels := Funarray.set_row !channels proc row
    end
  done;
  {
    replicas;
    applied_ts;
    channels = !channels;
    next_ts = Funarray.set t.next_ts loc ts;
    master = Funarray.set t.master loc value;
  }

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
    | msg :: rest ->
        let row = Array.copy t.channels.(src) in
        row.(dst) <- rest;
        let replicas, applied_ts = apply t.replicas t.applied_ts dst msg in
        Some
          { t with replicas; applied_ts; channels = Funarray.set_row t.channels src row }
  in
  List.concat_map
    (fun src -> List.filter_map (deliver src) (List.init nprocs Fun.id))
    (List.init nprocs Fun.id)

(* Pending internal work = the queued channel messages. *)
let internal_locs t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc queue -> List.fold_left (fun acc m -> m.loc :: acc) acc queue)
        acc row)
    [] t.channels
  |> List.sort_uniq compare

let synchronous = false
let write_depends_on_internal = false
