let model =
  Enum.model ~key:"pram" ~name:"Pipelined RAM"
    ~description:
      "Independent per-processor views of own operations plus all writes, \
       respecting program order only; no mutual consistency."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Program_order ];
      mutual = Model.No_mutual;
      legality = Model.Value_legal;
    }
