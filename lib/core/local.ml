let model =
  Enum.model ~key:"local" ~name:"Local Consistency"
    ~description:
      "Independent views respecting only the owner's program order; other \
       processors' writes may be observed in any order."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Own_program_order ];
      mutual = Model.No_mutual;
      legality = Model.Value_legal;
    }
