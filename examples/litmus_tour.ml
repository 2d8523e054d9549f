(* A tour of the litmus corpus: the axiomatic verdict matrix side by
   side with operational reachability on the machines.

   Run with: dune exec examples/litmus_tour.exe *)

module Test = Smem_litmus.Test
module Driver = Smem_machine.Driver
module Machines = Smem_machine.Machines
module Service = Smem_serve.Service
module Request = Smem_api.Request
module Response = Smem_api.Response

let () =
  Format.printf "== Axiomatic verdicts (checker per model) ==@.";
  (match
     (Service.handle (Service.create ()) (Request.Corpus { models = [] }))
       .Response.payload
   with
  | Response.Verdicts verdicts ->
      Smem_api.Verdict.pp_matrix Format.std_formatter verdicts
  | _ -> assert false);

  Format.printf "@.== Operational reachability (machine replay) ==@.";
  let machines = Machines.all in
  Format.printf "%-16s" "test";
  List.iter (fun m -> Format.printf " %-8s" (Machines.name m)) machines;
  Format.printf "@.";
  List.iter
    (fun (test : Test.t) ->
      let h = test.Test.history in
      let program = Driver.program_of_history h in
      Format.printf "%-16s" test.Test.name;
      List.iter
        (fun m ->
          Format.printf " %-8s"
            (if Driver.reachable m program h then "yes" else "no"))
        machines;
      Format.printf "@.")
    Smem_litmus.Corpus.all;
  Format.printf
    "@.Every machine 'yes' must be an axiomatic 'yes' for the machine's \
     model — the soundness the property tests check at scale.@."
