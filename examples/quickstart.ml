(* Quickstart: build a history with the public API, ask the models about
   it, and inspect witness views.

   Run with: dune exec examples/quickstart.exe *)

module H = Smem_core.History
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Witness = Smem_core.Witness

let () =
  (* The store-buffering history of the paper's Figure 1: each processor
     writes its own location, then reads the other's and sees 0. *)
  let h =
    H.make
      [
        [ H.write "x" 1; H.read "y" 0 ];
        [ H.write "y" 1; H.read "x" 0 ];
      ]
  in
  Format.printf "history:@.%a@.@." H.pp h;

  (* Which memories allow it? *)
  List.iter
    (fun (m : Model.t) ->
      Format.printf "%-12s %s@." m.Model.key
        (if Model.check m h then "allowed" else "forbidden"))
    Registry.all;

  (* A witness explains *why* a weak memory allows it: each processor's
     view orders the other's write after its own read. *)
  (match Model.witness_of (Option.get (Registry.find "tso")) h with
  | Some w -> Format.printf "@.TSO witness views:@.%a@." (Witness.pp h) w
  | None -> assert false);

  (* The same machinery runs on any history; here are the paper's other
     figures. *)
  Format.printf "@.paper figures vs. the models they were designed to split:@.";
  let figures =
    [
      (Smem_litmus.Corpus.fig1_tso, "tso", "sc");
      (Smem_litmus.Corpus.fig2_pc_not_tso, "pc", "tso");
      (Smem_litmus.Corpus.fig3_pram_not_tso, "pram", "tso");
      (Smem_litmus.Corpus.fig4_causal_not_tso, "causal", "tso");
    ]
  in
  List.iter
    (fun ((test : Smem_litmus.Test.t), allower, forbidder) ->
      let check key =
        match Registry.find key with
        | Some m -> Model.check m test.Smem_litmus.Test.history
        | None -> assert false
      in
      Format.printf "%-6s allowed by %-7s %b;  forbidden by %-5s %b@."
        test.Smem_litmus.Test.name allower (check allower) forbidder
        (not (check forbidder)))
    figures
