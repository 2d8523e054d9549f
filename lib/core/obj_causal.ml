let model =
  Enum.model ~key:"causal-obj" ~name:"Object Causal Memory"
    ~description:
      "Causal consistency over sequential-spec objects \
       (Mostefaoui-Perrin-Raynal): queues (q:*) and counters (c:*) as \
       well as registers.  Per-processor views of own operations plus \
       all updates respect the causal order and replay as legal \
       sequential object histories; coincides with causal memory on \
       register-only histories."
    {
      Model.population = Model.Own_plus_updates;
      ordering = [ Model.Causal_order ];
      mutual = Model.No_mutual;
      legality = Model.Object_legal;
    }
