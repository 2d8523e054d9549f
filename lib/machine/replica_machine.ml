(* Replicated memory (§3.5; Ahamad et al. [3]): one replica per
   processor, an update broadcast on every write, one update delivered
   per internal step.  The disciplines share everything but their
   delivery rule.  Each keeps exactly the state that tells its
   executions apart, because the explorers memoize states by structural
   equality: a field a discipline does not use stays constant. *)

type discipline = Pram | Slow | Local | Causal | Pc_g | Rc_sc | Rc_pc

type update = {
  loc : int;
  value : int;
  writer : int;  (* -1 under [Local], where equal updates are one choice *)
  stamp : int;
      (* [Causal]: the writer's write count; sequenced disciplines: the
         location's sequence number; 0 otherwise *)
  deps : int array;  (* [Causal]: writes per source applied at the writer *)
}

type t = {
  replicas : int array array;  (* proc -> loc -> value *)
  applied : int array array;
      (* [Causal]: proc -> writer -> writes applied; sequenced
         disciplines: proc -> loc -> stamp of the value held *)
  holders : int array array;
      (* RC only: proc -> loc -> writer of the value held, -1 initially.
         Recording it for [Pc_g] would split its states. *)
  queues : update list array;
      (* pending updates, indexed by [queue]: oldest first, except
         [Local]'s, newest first *)
  clock : int array;  (* sequenced disciplines: loc -> newest stamp *)
  master : int array;  (* loc -> newest value written *)
}

(* A sequenced replica keeps only the newest update of each location. *)
let sequenced = function
  | Pc_g | Rc_sc | Rc_pc -> true
  | Pram | Slow | Local | Causal -> false

let rc = function Rc_sc | Rc_pc -> true | _ -> false

(* The queue an update from [src] to [dst] waits in: one per reader
   for [Local] and [Causal], one per (writer, reader, location) for
   [Slow], one per (writer, reader) otherwise.  Deliveries are offered
   in queue order, so writer-major. *)
let queue d t ~src ~dst ~loc =
  let n = Array.length t.replicas in
  match d with
  | Local | Causal -> dst
  | Slow -> (((src * n) + dst) * Array.length t.master) + loc
  | Pram | Pc_g | Rc_sc | Rc_pc -> (src * n) + dst

let reader d t q =
  let n = Array.length t.replicas in
  match d with
  | Local | Causal -> q
  | Slow -> q / Array.length t.master mod n
  | Pram | Pc_g | Rc_sc | Rc_pc -> q mod n

let create d ~nprocs ~nlocs =
  let nlocs = max 1 nlocs in
  let nqueues =
    match d with
    | Local | Causal -> nprocs
    | Slow -> nprocs * nprocs * nlocs
    | Pram | Pc_g | Rc_sc | Rc_pc -> nprocs * nprocs
  in
  {
    replicas = Funarray.make2 nprocs nlocs 0;
    applied =
      (if d = Causal then Funarray.make2 nprocs nprocs 0
       else if sequenced d then Funarray.make2 nprocs nlocs 0
       else [||]);
    holders = (if rc d then Funarray.make2 nprocs nlocs (-1) else [||]);
    queues = Array.make nqueues [];
    clock = (if sequenced d then Array.make nlocs 0 else [||]);
    master = Array.make nlocs 0;
  }

(* [t] with its queues replaced by [queues] and [u] applied at replica
   [dst]. *)
let apply d t queues dst u =
  match d with
  | Pram | Slow | Local ->
      { t with queues; replicas = Funarray.set2 t.replicas dst u.loc u.value }
  | Causal ->
      {
        t with
        queues;
        replicas = Funarray.set2 t.replicas dst u.loc u.value;
        applied = Funarray.set2 t.applied dst u.writer u.stamp;
      }
  | Pc_g | Rc_sc | Rc_pc ->
      if u.stamp <= t.applied.(dst).(u.loc) then { t with queues }
      else
        {
          t with
          queues;
          replicas = Funarray.set2 t.replicas dst u.loc u.value;
          applied = Funarray.set2 t.applied dst u.loc u.stamp;
          holders =
            (if rc d then Funarray.set2 t.holders dst u.loc u.writer
             else t.holders);
        }

(* Apply [prefix], the oldest updates of queue [q], at its reader in
   order, leaving [rest] queued. *)
let deliver_prefix d t q (prefix, rest) =
  let dst = reader d t q in
  List.fold_left
    (fun t u -> apply d t t.queues dst u)
    { t with queues = Funarray.set_row t.queues q rest }
    prefix

let each_proc f t =
  let rec go t p =
    if p = Array.length t.replicas then t else go (f t p) (p + 1)
  in
  go t 0

let rec remove_first u = function
  | [] -> []
  | x :: rest -> if x = u then rest else x :: remove_first u rest

let read d t ~proc ~loc ~labeled =
  let value = t.replicas.(proc).(loc) in
  if not (labeled && rc d) || t.holders.(proc).(loc) < 0 then (value, t)
  else
    (* An acquire delivers the write it read, and everything queued
       before it, at every replica, so the operations after the acquire
       are ordered after that write everywhere. *)
    let src = t.holders.(proc).(loc) and stamp = t.applied.(proc).(loc) in
    let rec through acc = function
      | [] -> None
      | u :: rest when u.loc = loc && u.stamp = stamp ->
          Some (List.rev (u :: acc), rest)
      | u :: rest -> through (u :: acc) rest
    in
    let perform t dst =
      let q = queue d t ~src ~dst ~loc in
      match through [] t.queues.(q) with
      | Some split -> deliver_prefix d t q split
      | None -> t
    in
    (value, each_proc perform t)

let write d t ~proc ~loc ~value ~labeled =
  let stamp, deps, clock =
    match d with
    | Causal ->
        (t.applied.(proc).(proc) + 1, Array.copy t.applied.(proc), t.clock)
    | Pc_g | Rc_sc | Rc_pc ->
        let stamp = t.clock.(loc) + 1 in
        (stamp, [||], Funarray.set t.clock loc stamp)
    | Pram | Slow | Local -> (0, [||], t.clock)
  in
  let writer = if d = Local then -1 else proc in
  let u = { loc; value; writer; stamp; deps } in
  let t = { t with clock; master = Funarray.set t.master loc value } in
  if labeled && d = Rc_sc then
    (* An [Rc_sc] release first delivers everything the releaser has
       queued, then writes every replica at once. *)
    let drain t dst =
      let q = queue d t ~src:proc ~dst ~loc in
      deliver_prefix d t q (t.queues.(q), [])
    in
    each_proc (fun t dst -> apply d t t.queues dst u) (each_proc drain t)
  else begin
    let queues = Array.copy t.queues in
    for dst = 0 to Array.length t.replicas - 1 do
      if dst <> proc then begin
        let q = queue d t ~src:proc ~dst ~loc in
        queues.(q) <-
          (if d = Local then u :: queues.(q) else queues.(q) @ [ u ])
      end
    done;
    apply d t queues proc u
  end

(* Setting an already-set bit is observationally a no-op; skipping the
   redundant broadcast keeps spin loops within a finite state space.
   Otherwise the write is labeled, so [Rc_sc] performs it globally. *)
let test_and_set d t ~proc ~loc =
  let old = t.master.(loc) in
  if old = 1 then (old, t)
  else (old, write d t ~proc ~loc ~value:1 ~labeled:true)

let deliver d t q u rest =
  apply d t (Funarray.set_row t.queues q rest) (reader d t q) u

(* Prepend to [acc], in offer order, the successors that deliver one
   update of queue [q].  FIFO disciplines offer the oldest.  [Local]
   offers each distinct update once and delivers its newest copy;
   [Causal] offers, oldest first, every update whose dependencies the
   reader has applied. *)
let deliveries d t q acc =
  match (d, t.queues.(q)) with
  | _, [] -> acc
  | (Pram | Slow | Pc_g | Rc_sc | Rc_pc), u :: rest ->
      deliver d t q u rest :: acc
  | Local, pending ->
      List.fold_right
        (fun u acc -> deliver d t q u (remove_first u pending) :: acc)
        (List.sort_uniq compare pending)
        acc
  | Causal, pending ->
      let applied = t.applied.(q) in
      List.fold_right
        (fun u acc ->
          if
            u.stamp = applied.(u.writer) + 1
            && Array.for_all2 ( <= ) u.deps applied
          then deliver d t q u (remove_first u pending) :: acc
          else acc)
        pending acc

let internal d t =
  let acc = ref [] in
  for q = Array.length t.queues - 1 downto 0 do
    acc := deliveries d t q !acc
  done;
  !acc

(* Pending internal work = the locations of the queued updates. *)
let internal_locs t =
  Array.fold_left
    (fun acc pending -> List.fold_left (fun acc u -> u.loc :: acc) acc pending)
    [] t.queues
  |> List.sort_uniq compare

let machine ~name d : Machine_sig.machine =
  (module struct
    type nonrec t = t

    let name = name
    let model_key = name
    let create = create d
    let read = read d
    let write = write d
    let test_and_set = test_and_set d
    let internal = internal d
    let internal_locs = internal_locs
    let synchronous = false

    (* A causal write snapshots the writer's applied vector, which a
       delivery to the writer changes. *)
    let write_depends_on_internal = d = Causal
  end)
