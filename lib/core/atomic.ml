let model =
  Enum.model ~key:"atomic" ~name:"Atomic Memory"
    ~description:
      "Sequential consistency plus real-time precedence: the shared view \
       orders an operation before any operation invoked after its response \
       (Misra 1986; linearizability).  Coincides with SC on histories \
       without timing information."
    {
      Model.population = Model.Shared_all;
      ordering = [ Model.Program_order; Model.Real_time ];
      mutual = Model.No_mutual;
      legality = Model.Writer_legal;
    }
