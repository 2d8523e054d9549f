module Rel = Smem_relation.Rel

(* The named-partition instances carry no quadruple, so they keep the
   PC-G search specialized per block: one coherence order shared by
   every view (the mutual-consistency requirement), then an independent
   value-legal view per (processor, block).  Deliberately {e no} global
   acyclic(po ∪ co) pre-check — for one block that check is redundant
   (a cycle must pass through a write-only co segment that a legal view
   would linearize anyway), and requiring it globally would break the
   singleton-blocks ≡ coherence extreme. *)
let witness_with h ~block_of ~nblocks =
  let po = Orders.po h in
  let views = History.block_views h ~block_of ~blocks:nblocks in
  let found = ref None in
  let _ : bool =
    Coherence.iter h ~f:(fun co ->
        let order = Rel.union po (Coherence.to_rel co) in
        let rec go acc = function
          | [] ->
              found :=
                Some
                  (Witness.per_proc (List.rev acc)
                     ~notes:[ "one view per processor per block" ]);
              true
          | (p, ops) :: rest -> (
              match View.exists h ~ops ~order ~legality:View.By_value with
              | None -> false
              | Some seq -> go ((p, seq) :: acc) rest)
        in
        go [] views)
  in
  !found

let instantiate ~blocks =
  if blocks < 1 then invalid_arg "Pc_part.instantiate: blocks must be >= 1";
  Enum.model
    ~key:(Printf.sprintf "pc-part(blocks=%d)" blocks)
    ~name:(Printf.sprintf "Partition Consistency (%d blocks)" blocks)
    ~description:
      (Printf.sprintf
         "Partition consistency over the mod-%d location partition: one \
          view per processor per block (own operations on the block plus \
          all writes to it) respecting program order, all views agreeing \
          on a per-location write serialization (Cheng-Higham-Kawash). \
          One block is PC-G; singleton blocks are coherence."
         blocks)
    {
      Model.population = Model.Per_proc_block { blocks };
      ordering = Model.Program_order;
      mutual = Model.Coherence_agreement;
      legality = Model.Value_legal;
    }

let pp_partition blocks =
  String.concat "|" (List.map (String.concat ".") blocks)

let instantiate_named ~partition =
  if List.exists (fun b -> b = []) partition then
    invalid_arg "Pc_part.instantiate_named: empty block";
  let block_of_name name =
    let rec go i = function
      | [] -> None
      | block :: rest -> if List.mem name block then Some i else go (i + 1) rest
    in
    go 0 partition
  in
  let named = List.length partition in
  let witness h =
    (* Unlisted locations fall into singleton blocks of their own. *)
    let nlocs = History.nlocs h in
    let extra = ref 0 in
    let block = Array.make (max nlocs 1) 0 in
    for l = 0 to nlocs - 1 do
      block.(l) <-
        (match block_of_name (History.loc_name h l) with
        | Some b -> b
        | None ->
            incr extra;
            named + !extra - 1)
    done;
    witness_with h ~block_of:(fun l -> block.(l)) ~nblocks:(named + !extra)
  in
  Model.make
    ~key:(Printf.sprintf "pc-part(partition=%s)" (pp_partition partition))
    ~name:"Partition Consistency (named partition)"
    ~description:
      (Printf.sprintf
         "Partition consistency over the explicit location partition %s \
          (unlisted locations get singleton blocks).  Not expressible in \
          the pure parameter triple, so these instances cannot emit \
          certificates."
         (pp_partition partition))
    witness

let exemplar_2 = instantiate ~blocks:2
let exemplar_4 = instantiate ~blocks:4
