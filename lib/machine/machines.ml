let all : Machine_sig.machine list =
  (module Sc_machine)
  :: (module Tso_machine)
  :: List.map
       (fun (name, d) -> Replica_machine.machine ~name d)
       Replica_machine.
         [
           ("pc-g", Pc_g);
           ("causal", Causal);
           ("pram", Pram);
           ("slow", Slow);
           ("local", Local);
           ("rc-sc", Rc_sc);
           ("rc-pc", Rc_pc);
         ]

let name (module M : Machine_sig.MACHINE) = M.name

let model_key (module M : Machine_sig.MACHINE) = M.model_key

let model (module M : Machine_sig.MACHINE) =
  match Smem_core.Registry.find M.model_key with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Machines.model: machine %s names unknown model %S"
           M.name M.model_key)

let find key = List.find_opt (fun m -> name m = key) all
