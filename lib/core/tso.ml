let model =
  Enum.model ~key:"tso" ~name:"Total Store Ordering"
    ~description:
      "Per-processor views of own operations plus all writes; a single \
       global write order shared by all views; partial program order \
       (reads may bypass earlier writes to other locations)."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Partial_program_order ];
      mutual = Model.Global_write_order;
      legality = Model.Writer_legal;
    }
