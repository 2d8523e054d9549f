let model =
  Enum.model ~key:"coh" ~name:"Coherence"
    ~description:
      "Each location is sequentially consistent in isolation: a single \
       serialization of all accesses per location, respecting per-location \
       program order."
    {
      Model.population = Model.Per_location;
      ordering = [ Model.Program_order ];
      mutual = Model.No_mutual;
      legality = Model.Writer_legal;
    }
