let rc_sc =
  Enum.model ~key:"rc-sc" ~name:"Release Consistency (RC_sc)"
    ~description:
      "Release consistency with sequentially consistent labeled \
       (synchronization) operations, as in the DASH architecture."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Own_ppo_bracketed ];
      mutual = Model.Labeled_sc;
      legality = Model.Writer_legal;
    }

let rc_pc =
  Enum.model ~key:"rc-pc" ~name:"Release Consistency (RC_pc)"
    ~description:
      "Release consistency with processor consistent labeled \
       (synchronization) operations, as in the DASH architecture."
    {
      Model.population = Model.Own_plus_writes;
      ordering = [ Model.Own_ppo_bracketed ];
      mutual = Model.Labeled_pc;
      legality = Model.Writer_legal;
    }
