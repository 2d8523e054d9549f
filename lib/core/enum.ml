module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel
module Perm = Smem_relation.Perm

type co_mode = Co_none | Co_per_loc | Co_global

let rf_needed (p : Model.params) =
  p.Model.legality = Model.Writer_legal
  || List.exists
       (function
         | Model.Causal_order | Model.Causal_plus_coherence -> true
         | _ -> false)
       p.Model.ordering

let sync_needed (p : Model.params) =
  match p.Model.mutual with
  | Model.Labeled_sc | Model.Labeled_total -> true
  | _ -> false

let co_mode (p : Model.params) =
  let session = function Model.Session _ -> true | _ -> false in
  match p.Model.mutual with
  | Model.Global_write_order -> Co_global
  (* Session views need not agree on any write order: two views may
     serialize the same writes oppositely. *)
  | _ when List.exists session p.Model.ordering -> Co_none
  | Model.Coherence_agreement -> Co_per_loc
  | _ -> if p.Model.legality = Model.Writer_legal then Co_per_loc else Co_none

let witness p h =
  let leaf = Leaf.prepare p h in
  let found = ref None in
  let accept = function
    | Some _ as w ->
        found := w;
        true
    | None -> false
  in
  let co_phase =
    match co_mode p with
    | Co_none -> fun stage -> accept (Leaf.check stage Leaf.No_co)
    | Co_per_loc ->
        fun stage ->
          Coherence.iter h ~f:(fun co -> accept (Leaf.check stage (Leaf.Co co)))
    | Co_global ->
        let writes = Array.of_list (History.writes h) in
        fun stage ->
          Perm.iter_constrained writes ~precedes:(Coherence.default_respect h)
            ~f:(fun worder ->
              Stats.count_co ();
              accept (Leaf.check stage (Leaf.Write_order worder)))
  in
  let sync_phase =
    if sync_needed p then
      let labeled = Bitset.of_list (History.nops h) (History.labeled h) in
      let po = Orders.po h in
      fun stage ->
        Rel.linear_extensions ~universe:labeled po ~f:(fun seq ->
            match Leaf.with_sync stage seq with
            | Some stage -> co_phase stage
            | None -> false)
    else co_phase
  in
  let (_ : bool) =
    if rf_needed p then
      (* Counter reads return a count, not a written value. *)
      let skip r =
        p.Model.legality = Model.Object_legal
        && Sort.of_loc h (History.op h r).Op.loc = Sort.Counter
      in
      Reads_from.iter ~skip h ~f:(fun rf ->
          match Leaf.with_rf leaf rf with
          | Some stage -> sync_phase stage
          | None -> false)
    else sync_phase leaf
  in
  !found

let model ~key ~name ~description params =
  {
    Model.key;
    name;
    description;
    params = Some params;
    witness = witness params;
  }
