let model =
  Enum.model ~key:"pc" ~name:"Processor Consistency (DASH)"
    ~description:
      "Per-processor views of own operations plus all writes; coherence as \
       mutual consistency; semi-causality (ppo + remote writes-before + \
       remote reads-before) as the ordering requirement."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Semi_causal ];
      mutual = Model.Coherence_agreement;
      legality = Model.Writer_legal;
    }
