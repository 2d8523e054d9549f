(** The local-consistency machine: replicated memory with completely
    unordered delivery — pending updates form a multiset per
    destination and may be applied in any order, even two writes by the
    same processor to the same location.  The weakest machine in the
    catalogue; pairs with the [local] model. *)

type msg = { loc : int; value : int }

type t = {
  replicas : int array array;
  pending : msg list array;  (* per destination, multiset *)
  master : int array;
}

let name = "local"
let model_key = "local"

let create ~nprocs ~nlocs =
  let nlocs = max 1 nlocs in
  {
    replicas = Funarray.make2 nprocs nlocs 0;
    pending = Array.make nprocs [];
    master = Array.make nlocs 0;
  }

let read t ~proc ~loc ~labeled:_ = (t.replicas.(proc).(loc), t)

let write t ~proc ~loc ~value ~labeled:_ =
  let msg = { loc; value } in
  let pending =
    Array.mapi
      (fun dst queue -> if dst = proc then queue else msg :: queue)
      t.pending
  in
  {
    replicas = Funarray.set2 t.replicas proc loc value;
    pending;
    master = Funarray.set t.master loc value;
  }

let test_and_set t ~proc ~loc =
  let old = t.master.(loc) in
  if old = 1 then (old, t) else (old, write t ~proc ~loc ~value:1 ~labeled:false)

(* Remove the first occurrence of an element (delivering either of two
   identical pending updates yields the same state). *)
let rec remove_first msg = function
  | [] -> []
  | m :: rest -> if m = msg then rest else m :: remove_first msg rest

let internal t =
  let nprocs = Array.length t.replicas in
  List.concat_map
    (fun dst ->
      List.sort_uniq compare t.pending.(dst)
      |> List.map (fun msg ->
             {
               replicas = Funarray.set2 t.replicas dst msg.loc msg.value;
               pending =
                 Funarray.set_row t.pending dst (remove_first msg t.pending.(dst));
               master = t.master;
             }))
    (List.init nprocs Fun.id)

(* Pending internal work = the undelivered updates. *)
let internal_locs t =
  Array.fold_left
    (fun acc queue -> List.fold_left (fun acc m -> m.loc :: acc) acc queue)
    [] t.pending
  |> List.sort_uniq compare

let synchronous = false
let write_depends_on_internal = false
