let model =
  Enum.model ~key:"wo" ~name:"Weak Ordering"
    ~description:
      "Selective synchronization with two-way fences: one global legal \
       order on labeled (synchronizing) accesses, every operation ordered \
       across each of its processor's synchronization points (Dubois, \
       Scheurich, Briggs 1988)."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Sync_fences ];
      mutual = Model.Labeled_total;
      legality = Model.Value_legal;
    }
