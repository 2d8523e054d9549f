(** The slow-memory machine: replicated memory where updates travel in
    per-(writer, location) FIFO channels.  A processor's writes to one
    location arrive everywhere in order, but its writes to different
    locations may be observed in any interleaving — strictly weaker than
    PRAM's per-writer FIFO. *)

type t = {
  replicas : int array array;
  channels : int list array array array;  (* src -> dst -> loc -> values, oldest first *)
  master : int array;
}

let name = "slow"
let model_key = "slow"

let create ~nprocs ~nlocs =
  let nlocs = max 1 nlocs in
  {
    replicas = Funarray.make2 nprocs nlocs 0;
    channels =
      Array.init nprocs (fun _ -> Array.init nprocs (fun _ -> Array.make nlocs []));
    master = Array.make nlocs 0;
  }

let read t ~proc ~loc ~labeled:_ = (t.replicas.(proc).(loc), t)

let copy_channels channels = Array.map (Array.map Array.copy) channels

let write t ~proc ~loc ~value ~labeled:_ =
  let replicas = Funarray.set2 t.replicas proc loc value in
  let channels = copy_channels t.channels in
  for dst = 0 to Array.length t.replicas - 1 do
    if dst <> proc then
      channels.(proc).(dst).(loc) <- channels.(proc).(dst).(loc) @ [ value ]
  done;
  { replicas; channels; master = Funarray.set t.master loc value }

let test_and_set t ~proc ~loc =
  let old = t.master.(loc) in
  if old = 1 then (old, t) else (old, write t ~proc ~loc ~value:1 ~labeled:false)

let internal t =
  let nprocs = Array.length t.replicas in
  let nlocs = Array.length t.master in
  let deliveries = ref [] in
  for src = 0 to nprocs - 1 do
    for dst = 0 to nprocs - 1 do
      for loc = 0 to nlocs - 1 do
        match t.channels.(src).(dst).(loc) with
        | [] -> ()
        | value :: rest ->
            let channels = copy_channels t.channels in
            channels.(src).(dst).(loc) <- rest;
            deliveries :=
              {
                t with
                replicas = Funarray.set2 t.replicas dst loc value;
                channels;
              }
              :: !deliveries
      done
    done
  done;
  List.rev !deliveries

(* Pending internal work = locations with a non-empty per-loc channel. *)
let internal_locs t =
  let nlocs = Array.length t.master in
  List.filter
    (fun loc ->
      Array.exists
        (fun row -> Array.exists (fun per_loc -> per_loc.(loc) <> []) row)
        t.channels)
    (List.init nlocs Fun.id)

let synchronous = false
let write_depends_on_internal = false
