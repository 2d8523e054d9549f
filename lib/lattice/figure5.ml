module H = Smem_core.History
module Op = Smem_core.Op

type guard = Registers_only | Acquires_unmixed

type containment = { stronger : string; weaker : string; guards : guard list }

(* Strongest first, as the registry lists them; parameterized keys
   resolve through the Model_ref grammar. *)
let model_keys =
  [
    "atomic";
    "sc";
    "tso";
    "tso-op";
    "pc";
    "rc-sc";
    "rc-pc";
    "wo";
    "pc-g";
    "pc-part(blocks=2)";
    "pc-part(blocks=4)";
    "causal-coh";
    "causal";
    "causal-obj";
    "coh";
    "pram";
    "session(ryw,mr,mw,wfr)";
    "session(ryw,mr,mw)";
    "session(ryw,mr)";
    "slow";
    "local";
  ]

let edge ?guard stronger weaker =
  { stronger; weaker; guards = Option.to_list guard }

(* Every edge is a theorem with a proof in DESIGN.md ("Figure 5 decides
   cells"): the service infers verdicts from this list, so an edge that
   merely agrees with a corpus does not belong here.  A guard is
   exactly the condition its edge's proof uses. *)
let hasse =
  [
    edge "sc" "tso";
    edge ~guard:Acquires_unmixed "sc" "rc-sc";
    edge "tso" "pc";
    edge "tso" "causal";
    edge "rc-sc" "rc-pc";
    edge "pc" "pram";
    edge "causal" "pram";
    (* The partition-consistency chain: an SC serialization restricts
       to per-(processor, block) views; coarser partitions constrain
       more (a mod-2 block is a union of mod-4 blocks); singleton
       blocks degenerate to per-location views, i.e. coherence. *)
    edge "sc" "pc-g";
    edge "pc-g" "pc-part(blocks=2)";
    edge "pc-part(blocks=2)" "pc-part(blocks=4)";
    edge "pc-part(blocks=4)" "coh";
    edge "pc-g" "pram";
    edge "pc" "coh";
    (* The session-guarantee chain: more guarantees is stronger, and
       PRAM's full program order implies ryw, mr and mw (but not wfr,
       which quantifies over a reads-from map PRAM never commits to). *)
    edge "pram" "session(ryw,mr,mw)";
    edge "session(ryw,mr,mw,wfr)" "session(ryw,mr,mw)";
    edge "session(ryw,mr,mw)" "session(ryw,mr)";
    (* Projections of a stronger memory's views: real time only adds
       order; an SC serialization restricts to weak ordering's and
       coherent causal memory's views; dropping coherence, or causality
       down to program order, or program order down to the owner's,
       only removes constraints.  Not tso -> causal-coh: TSO allows a
       history causal-coh forbids (EXPERIMENTS.md finding 7). *)
    edge "atomic" "sc";
    edge "sc" "wo";
    edge "sc" "causal-coh";
    edge "causal-coh" "causal";
    edge "causal-coh" "pc-g";
    edge "pram" "slow";
    edge "slow" "local";
    (* An SC serialization replays on the store-buffer machine, and its
       writers satisfy every session guarantee, writes-follow-reads
       included.  Object causal memory is causal memory when every
       location is a register. *)
    edge "sc" "tso-op";
    edge "sc" "session(ryw,mr,mw,wfr)";
    edge ~guard:Registers_only "causal" "causal-obj";
    edge ~guard:Registers_only "causal-obj" "causal";
  ]

let all_guards = [ Registers_only; Acquires_unmixed ]

(* Every subset of [all_guards] in its order, fewest guards first. *)
let combos = [ []; [ Registers_only ]; [ Acquires_unmixed ]; all_guards ]

let keys = Array.of_list model_keys
let n = Array.length keys

let index k =
  let rec go i = if keys.(i) = k then i else go (i + 1) in
  go 0

(* The transitive closure of the edges whose guards are all in [gs], as
   (stronger, weaker) index pairs in key order.  causal and causal-obj
   reach each other, so self-pairs are left out. *)
let closure gs =
  let m = Array.make_matrix n n false in
  List.iter
    (fun c ->
      if List.for_all (fun g -> List.mem g gs) c.guards then
        m.(index c.stronger).(index c.weaker) <- true)
    hasse;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if m.(i).(k) && m.(k).(j) then m.(i).(j) <- true
      done
    done
  done;
  let ids = List.init n Fun.id in
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j -> if i <> j && m.(i).(j) then Some (i, j) else None)
        ids)
    ids

let closures = List.map (fun gs -> (gs, closure gs)) combos

(* A pair's guards are the fewest under which some path reaches it. *)
let containments =
  List.map
    (fun (i, j) ->
      let guards, _ = List.find (fun (_, ps) -> List.mem (i, j) ps) closures in
      { stronger = keys.(i); weaker = keys.(j); guards })
    (List.assoc all_guards closures)

let properly_labeled h =
  let n = H.nlocs h in
  let labeled = Array.make n false in
  let ordinary = Array.make n false in
  Array.iter
    (fun (o : Op.t) ->
      if Op.is_labeled o then labeled.(o.Op.loc) <- true
      else ordinary.(o.Op.loc) <- true)
    (H.ops h);
  let ok = ref true in
  for l = 0 to n - 1 do
    if labeled.(l) && ordinary.(l) then ok := false
  done;
  !ok

let holds guard h =
  match guard with
  | Registers_only ->
      Array.for_all
        (fun (o : Op.t) ->
          Smem_core.Sort.of_loc h o.Op.loc = Smem_core.Sort.Register)
        (H.ops h)
  | Acquires_unmixed ->
      let mixed l =
        let writes = List.map (H.op h) (H.writes_to h l) in
        List.exists Op.is_labeled writes && List.exists Op.is_ordinary writes
      in
      Array.for_all
        (fun (o : Op.t) -> not (Op.is_acquire o && mixed o.Op.loc))
        (H.ops h)

let resolve key =
  match Smem_core.Registry.find key with
  | Some m -> m
  | None -> invalid_arg ("Figure5: model key not in registry: " ^ key)

let models = Array.map resolve keys
let guards_of h = List.filter (fun g -> holds g h) all_guards

(* Everything below is built once, at start-up, not lazily: it is read
   for every served test, from any domain. *)
let resolved =
  List.map
    (fun (gs, ps) -> (gs, List.map (fun (i, j) -> (models.(i), models.(j))) ps))
    closures

let pairs h = List.assoc (guards_of h) resolved

(* A node's position, by its resolved model's key: the key a cache row
   holds. *)
let positions =
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i (m : Smem_core.Model.t) -> Hashtbl.replace tbl m.key i)
    models;
  tbl

let position key = Hashtbl.find_opt positions key

(* Masks over positions: [above.(i)] holds the nodes stronger than
   node [i] (contained in it), [below.(i)] the nodes weaker than it. *)
type implications = { above : int array; below : int array }

let masks =
  assert (n < Sys.int_size);
  List.map
    (fun (gs, ps) ->
      let above = Array.make n 0 and below = Array.make n 0 in
      List.iter
        (fun (i, j) ->
          above.(j) <- above.(j) lor (1 lsl i);
          below.(i) <- below.(i) lor (1 lsl j))
        ps;
      (gs, { above; below }))
    closures

let implications h = List.assoc (guards_of h) masks

(* Verdicts that break a containment leave both rules applicable; then
   the pair listed first in [pairs h] (lexicographic positions) wins:
   (j, i) with j < i comes before every (i, k). *)
let implied t ~allowed ~forbidden i =
  let up = allowed land t.above.(i) and down = forbidden land t.below.(i) in
  if up land ((1 lsl i) - 1) <> 0 then Some true
  else if down <> 0 then Some false
  else if up <> 0 then Some true
  else None

let contradicts t ~allowed ~forbidden =
  let broken = ref false in
  for i = 0 to n - 1 do
    if allowed land (1 lsl i) <> 0 && t.below.(i) land forbidden <> 0 then
      broken := true
  done;
  !broken
