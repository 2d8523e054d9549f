let model =
  Enum.model ~key:"pc-g" ~name:"Processor Consistency (Goodman)"
    ~description:
      "PRAM plus coherence: per-processor views respecting program order \
       that agree on a per-location write serialization (Goodman 1989, as \
       formalized by Ahamad et al. 1992)."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Program_order ];
      mutual = Model.Coherence_agreement;
      legality = Model.Value_legal;
    }
