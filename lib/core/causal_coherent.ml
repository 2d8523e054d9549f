let model =
  Enum.model ~key:"causal-coh" ~name:"Coherent Causal Memory"
    ~description:
      "Causal memory plus coherence (the new memory suggested in the \
       paper's concluding remarks): views respect causal order and agree \
       on a per-location write serialization."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Causal_plus_coherence ];
      mutual = Model.Coherence_agreement;
      legality = Model.Value_legal;
    }
