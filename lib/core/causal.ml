let model =
  Enum.model ~key:"causal" ~name:"Causal Memory"
    ~description:
      "Independent per-processor views of own operations plus all writes, \
       respecting the causal order (program order + writes-before, \
       transitively); no mutual consistency."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Causal_order ];
      mutual = Model.No_mutual;
      legality = Model.Value_legal;
    }
