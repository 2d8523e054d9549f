(** The causal-memory machine [3]: replicated memory with vector-clock
    causal broadcast.  Each write carries the writer's dependency vector
    (writes per source applied at the writer when it issued); a pending
    update is deliverable at a replica once every dependency has been
    applied there.  Deliveries in causal order ensure every view
    respects [(po ∪ wb)+]. *)

type msg = {
  sender : int;
  seq : int;  (** sender's write count, 1-based *)
  loc : int;
  value : int;
  deps : int array;  (** writes per source that must precede this one *)
}

type t = {
  replicas : int array array;
  applied : int array array;  (* proc -> source -> writes applied (own count included) *)
  pending : msg list array;  (* per destination, arbitrary order *)
  master : int array;  (* the globally serialized copy read-modify-writes act on *)
}

let name = "causal"
let model_key = "causal"

let create ~nprocs ~nlocs =
  {
    replicas = Funarray.make2 nprocs (max 1 nlocs) 0;
    applied = Funarray.make2 nprocs nprocs 0;
    pending = Array.make nprocs [];
    master = Array.make (max 1 nlocs) 0;
  }

let read t ~proc ~loc ~labeled:_ = (t.replicas.(proc).(loc), t)

let write t ~proc ~loc ~value ~labeled:_ =
  let seq = t.applied.(proc).(proc) + 1 in
  let deps = Array.copy t.applied.(proc) in
  let msg = { sender = proc; seq; loc; value; deps } in
  let replicas = Funarray.set2 t.replicas proc loc value in
  let applied = Funarray.set2 t.applied proc proc seq in
  let pending =
    Array.mapi
      (fun dst queue -> if dst = proc then queue else queue @ [ msg ])
      t.pending
  in
  { replicas; applied; pending; master = Funarray.set t.master loc value }

(* Setting an already-set bit is observationally a no-op; skipping the
   redundant broadcast keeps spin loops within a finite state space. *)
let test_and_set t ~proc ~loc =
  let old = t.master.(loc) in
  if old = 1 then (old, t) else (old, write t ~proc ~loc ~value:1 ~labeled:false)

let deliverable applied_at msg =
  msg.seq = applied_at.(msg.sender) + 1
  && Array.for_all2 ( <= ) msg.deps applied_at

let internal t =
  let nprocs = Array.length t.replicas in
  let deliveries_at dst =
    List.filter_map
      (fun msg ->
        if deliverable t.applied.(dst) msg then
          let replicas = Funarray.set2 t.replicas dst msg.loc msg.value in
          let applied = Funarray.set2 t.applied dst msg.sender msg.seq in
          let pending =
            Funarray.set_row t.pending dst
              (List.filter (fun m -> m != msg) t.pending.(dst))
          in
          Some { t with replicas; applied; pending }
        else None)
      t.pending.(dst)
  in
  List.concat_map deliveries_at (List.init nprocs Fun.id)

(* Pending internal work = the undelivered causal-broadcast messages. *)
let internal_locs t =
  Array.fold_left
    (fun acc queue -> List.fold_left (fun acc m -> m.loc :: acc) acc queue)
    [] t.pending
  |> List.sort_uniq compare

(* Each write snapshots the writer's applied-vector: a delivery to the
   writer changes the dependency metadata of its later writes, so
   writes never commute with internal steps. *)
let synchronous = false
let write_depends_on_internal = true
