module H = Smem_core.History
module Op = Smem_core.Op

type containment = {
  stronger : string;
  weaker : string;
  proper_labels_only : bool;
}

(* Strongest first, as the registry lists them; parameterized keys
   resolve through the Model_ref grammar. *)
let model_keys =
  [
    "atomic";
    "sc";
    "tso";
    "pc";
    "rc-sc";
    "rc-pc";
    "wo";
    "pc-g";
    "pc-part(blocks=2)";
    "pc-part(blocks=4)";
    "causal-coh";
    "causal";
    "coh";
    "pram";
    "session(ryw,mr,mw,wfr)";
    "session(ryw,mr,mw)";
    "session(ryw,mr)";
    "slow";
    "local";
  ]

let edge ?(proper = false) stronger weaker =
  { stronger; weaker; proper_labels_only = proper }

(* Every edge is a theorem with a proof in DESIGN.md ("Figure 5 decides
   cells"): the service infers verdicts from this list, so an edge that
   merely agrees with a corpus does not belong here. *)
let hasse =
  [
    edge "sc" "tso";
    edge ~proper:true "sc" "rc-sc";
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
  ]

(* Transitive closure over two path strengths: a pair holds
   unconditionally iff some path to it uses only unconditional edges;
   it holds under proper labeling iff any path exists at all. *)
let containments =
  let keys = Array.of_list model_keys in
  let n = Array.length keys in
  let index k =
    let rec go i = if keys.(i) = k then i else go (i + 1) in
    go 0
  in
  let strong = Array.make_matrix n n false in
  let any = Array.make_matrix n n false in
  List.iter
    (fun c ->
      let i = index c.stronger and j = index c.weaker in
      any.(i).(j) <- true;
      if not c.proper_labels_only then strong.(i).(j) <- true)
    hasse;
  let close m =
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if m.(i).(k) && m.(k).(j) then m.(i).(j) <- true
        done
      done
    done
  in
  close strong;
  close any;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if any.(i).(j) then
        acc :=
          {
            stronger = keys.(i);
            weaker = keys.(j);
            proper_labels_only = not strong.(i).(j);
          }
          :: !acc
    done
  done;
  !acc

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

let resolve key =
  match Smem_core.Registry.find key with
  | Some m -> m
  | None -> invalid_arg ("Figure5: model key not in registry: " ^ key)

(* Resolved once, at start-up, not lazily: [pairs] runs on every
   served test, from any domain. *)
let resolved ~proper_labels =
  List.filter_map
    (fun c ->
      if c.proper_labels_only && not proper_labels then None
      else Some (resolve c.stronger, resolve c.weaker))
    containments

let with_labels = resolved ~proper_labels:true
let without_labels = resolved ~proper_labels:false
let all_pairs ~proper_labels =
  if proper_labels then with_labels else without_labels

let pairs h = all_pairs ~proper_labels:(properly_labeled h)
