let instance ~key ~name ~description partition =
  Enum.model ~key ~name ~description
    {
      Model.population = Model.Per_proc_block partition;
      ordering = [ Model.Program_order ];
      mutual = Model.Coherence_agreement;
      legality = Model.Value_legal;
    }

let instantiate ~blocks =
  if blocks < 1 then invalid_arg "Pc_part.instantiate: blocks must be >= 1";
  instance
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
    (Model.Modulo blocks)

let pp_partition blocks =
  String.concat "|" (List.map (String.concat ".") blocks)

let instantiate_named ~partition =
  if List.exists (fun b -> b = []) partition then
    invalid_arg "Pc_part.instantiate_named: empty block";
  instance
    ~key:(Printf.sprintf "pc-part(partition=%s)" (pp_partition partition))
    ~name:"Partition Consistency (named partition)"
    ~description:
      (Printf.sprintf
         "Partition consistency over the explicit location partition %s \
          (unlisted locations get singleton blocks)."
         (pp_partition partition))
    (Model.Named partition)

let exemplar_2 = instantiate ~blocks:2
let exemplar_4 = instantiate ~blocks:4
