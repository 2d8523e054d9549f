let model =
  Enum.model ~key:"slow" ~name:"Slow Memory"
    ~description:
      "Independent views respecting the owner's program order and each \
       processor's per-location write order only (Hutto and Ahamad)."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Own_program_order; Model.Po_loc ];
      mutual = Model.No_mutual;
      legality = Model.Value_legal;
    }
