(** DASH-like release-consistency machines (§3.4).

    Both flavors propagate ordinary writes like {!Pcg_machine}: a global
    per-location sequencer provides coherence, per-sender FIFO channels
    carry updates, replicas discard stale timestamps.  An acquire reads
    its local replica and then {e globally performs} the write it read
    (forcing its delivery everywhere), implementing the requirement that
    operations after an acquire see what the acquire saw.  The flavors
    differ in the release:

    - [Sc]: a release first flushes all of the releaser's outgoing
      channels (every prior ordinary write is performed everywhere —
      the RC bracketing requirement) and then applies the labeled write
      {e atomically at every replica}: labeled operations are
      sequentially consistent.
    - [Pc]: a release is propagated like an ordinary write; per-sender
      FIFO still orders it after the releaser's prior writes at each
      destination, but different processors may observe unrelated
      releases in different orders: labeled operations are only
      processor consistent.  This is the machine on which the Bakery
      algorithm breaks (§5). *)

type flavor = Sc | Pc

type msg = { loc : int; value : int; ts : int; sender : int }

type t = {
  replicas : int array array;
  applied_ts : int array array;
  applied_by : int array array;  (* proc -> loc -> sender of the value held; -1 = initial *)
  channels : msg list array array;  (* src -> dst, oldest first *)
  next_ts : int array;
  master : int array;  (* value carried by the newest timestamp per location *)
}

let create ~nprocs ~nlocs =
  let nlocs = max 1 nlocs in
  {
    replicas = Funarray.make2 nprocs nlocs 0;
    applied_ts = Funarray.make2 nprocs nlocs 0;
    applied_by = Funarray.make2 nprocs nlocs (-1);
    channels = Array.init nprocs (fun _ -> Array.make nprocs []);
    next_ts = Array.make nlocs 0;
    master = Array.make nlocs 0;
  }

let nprocs t = Array.length t.replicas

let apply t dst msg =
  if msg.ts > t.applied_ts.(dst).(msg.loc) then
    {
      t with
      replicas = Funarray.set2 t.replicas dst msg.loc msg.value;
      applied_ts = Funarray.set2 t.applied_ts dst msg.loc msg.ts;
      applied_by = Funarray.set2 t.applied_by dst msg.loc msg.sender;
    }
  else t

let enqueue t ~src ~dst msg =
  let row = Array.copy t.channels.(src) in
  row.(dst) <- t.channels.(src).(dst) @ [ msg ];
  { t with channels = Funarray.set_row t.channels src row }

let broadcast t ~proc msg =
  let t = apply t proc msg in
  let rec go t dst =
    if dst = nprocs t then t
    else if dst = proc then go t (dst + 1)
    else go (enqueue t ~src:proc ~dst msg) (dst + 1)
  in
  go t 0

let fresh_ts t loc =
  let ts = t.next_ts.(loc) + 1 in
  (ts, { t with next_ts = Funarray.set t.next_ts loc ts })

(* Deliver the whole prefix of channel [src -> dst] up to and including
   the message [target] if it is still queued. *)
let deliver_up_to t ~src ~dst target =
  let rec split acc = function
    | [] -> None  (* already delivered *)
    | m :: rest when m.loc = target.loc && m.ts = target.ts ->
        Some (List.rev (m :: acc), rest)
    | m :: rest -> split (m :: acc) rest
  in
  match split [] t.channels.(src).(dst) with
  | None -> t
  | Some (prefix, rest) ->
      let row = Array.copy t.channels.(src) in
      row.(dst) <- rest;
      let t = { t with channels = Funarray.set_row t.channels src row } in
      List.fold_left (fun t m -> apply t dst m) t prefix

(* Force a write (identified by location/timestamp/sender) to be
   performed at every replica. *)
let perform_globally t target =
  let rec go t dst =
    if dst = nprocs t then t
    else go (deliver_up_to t ~src:target.sender ~dst target) (dst + 1)
  in
  go t 0

(* Deliver every pending message from [proc] to everyone, in FIFO
   order. *)
let flush_outgoing t ~proc =
  let rec drain t dst =
    match t.channels.(proc).(dst) with
    | [] -> t
    | m :: rest ->
        let row = Array.copy t.channels.(proc) in
        row.(dst) <- rest;
        drain (apply { t with channels = Funarray.set_row t.channels proc row } dst m) dst
  in
  let rec go t dst = if dst = nprocs t then t else go (drain t dst) (dst + 1) in
  go t 0

(* Apply a labeled write atomically at every replica (the Sc release,
   after flushing). *)
let apply_everywhere t msg =
  let rec go t dst = if dst = nprocs t then t else go (apply t dst msg) (dst + 1) in
  go t 0

let read_common t ~proc ~loc ~labeled =
  let value = t.replicas.(proc).(loc) in
  if not labeled then (value, t)
  else
    (* Globally perform the write the acquire read, so operations after
       the acquire are ordered after it everywhere. *)
    let sender = t.applied_by.(proc).(loc) in
    if sender < 0 then (value, t)
    else
      let target = { loc; value; ts = t.applied_ts.(proc).(loc); sender } in
      (value, perform_globally t target)

let write_common flavor t ~proc ~loc ~value ~labeled =
  let ts, t = fresh_ts t loc in
  let t = { t with master = Funarray.set t.master loc value } in
  let msg = { loc; value; ts; sender = proc } in
  match (flavor, labeled) with
  | _, false | Pc, true -> broadcast t ~proc msg
  | Sc, true -> apply_everywhere (flush_outgoing t ~proc) msg

(* A read-modify-write acts atomically at the serialization point: read
   the newest globally sequenced value, then write 1 through the normal
   (labeled, for the Sc flavor: globally applied) write path. *)
let tas_common flavor t ~proc ~loc =
  let old = t.master.(loc) in
  if old = 1 then (old, t)
  else (old, write_common flavor t ~proc ~loc ~value:1 ~labeled:true)

let internal_common t =
  let n = nprocs t in
  let deliver src dst =
    match t.channels.(src).(dst) with
    | [] -> None
    | m :: rest ->
        let row = Array.copy t.channels.(src) in
        row.(dst) <- rest;
        Some (apply { t with channels = Funarray.set_row t.channels src row } dst m)
  in
  List.concat_map
    (fun src -> List.filter_map (deliver src) (List.init n Fun.id))
    (List.init n Fun.id)

(* Pending internal work = the queued channel messages. *)
let internal_locs_common t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc queue -> List.fold_left (fun acc m -> m.loc :: acc) acc queue)
        acc row)
    [] t.channels
  |> List.sort_uniq compare

let synchronous = false
let write_depends_on_internal = false

module Sc_flavor = struct
  type nonrec t = t

  let name = "rc-sc"
  let model_key = "rc-sc"
  let create = create
  let read t ~proc ~loc ~labeled = read_common t ~proc ~loc ~labeled
  let write t ~proc ~loc ~value ~labeled = write_common Sc t ~proc ~loc ~value ~labeled
  let test_and_set t ~proc ~loc = tas_common Sc t ~proc ~loc
  let internal = internal_common
  let internal_locs = internal_locs_common
  let synchronous = synchronous
  let write_depends_on_internal = write_depends_on_internal
end

module Pc_flavor = struct
  type nonrec t = t

  let name = "rc-pc"
  let model_key = "rc-pc"
  let create = create
  let read t ~proc ~loc ~labeled = read_common t ~proc ~loc ~labeled
  let write t ~proc ~loc ~value ~labeled = write_common Pc t ~proc ~loc ~value ~labeled
  let test_and_set t ~proc ~loc = tas_common Pc t ~proc ~loc
  let internal = internal_common
  let internal_locs = internal_locs_common
  let synchronous = synchronous
  let write_depends_on_internal = write_depends_on_internal
end
