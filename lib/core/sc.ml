let model =
  Enum.model ~key:"sc" ~name:"Sequential Consistency"
    ~description:
      "One legal interleaving of all operations, respecting program order, \
       shared by all processors (Lamport 1979)."
    {
      Model.population = Model.Shared_all;
      ordering = [ Model.Program_order ];
      mutual = Model.No_mutual;
      legality = Model.Writer_legal;
    }
