(* The paper's concluding remarks (§7): "the model also helps us in
   identifying new memories.  For example, a mutual consistency
   condition that requires coherence can be added to causal memory."

   This example does exactly that with the Build module: compose the
   suggested memory from the three parameters (Build names the
   parameter quadruple they stand for, so the composed model runs on
   both engines and certifies like a built-in one), verify it against
   the catalogued coherent causal memory, place it in the lattice
   relative to its neighbours, and exhibit separating histories.

   Run with: dune exec examples/compose_models.exe *)

module B = Smem_core.Build
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Distinguish = Smem_lattice.Distinguish
module Classify = Smem_lattice.Classify

let builtin key =
  match Registry.find key with Some m -> m | None -> assert false

let () =
  (* §7's new memory: causal + coherence, by composition. *)
  let coherent_causal =
    B.make ~key:"cc" ~name:"Coherent Causal (composed)"
      ~operations:`Writes_of_others ~mutual:`Coherence
      ~orderings:[ Model.Causal_order ] ()
  in
  Format.printf "composed: %s@.@." coherent_causal.Model.description;

  (* It agrees with the catalogued causal-coh, which the enumerator
     decides from its parameter quadruple, across the standard scopes. *)
  let scopes = Classify.standard_scopes in
  (match
     Distinguish.compare ~a:coherent_causal ~b:(builtin "causal-coh") scopes
   with
  | Distinguish.Equal ->
      Format.printf
        "composed model = built-in causal-coh over %d enumerated histories@."
        (List.fold_left
           (fun acc c -> acc + Smem_lattice.Enumerate.count c)
           0 scopes)
  | _ -> Format.printf "composed model DIFFERS from built-in causal-coh!@.");

  (* Where does it sit?  Strictly between SC and causal memory, and
     incomparable with nothing it shouldn't be. *)
  Format.printf "@.position in the lattice:@.";
  List.iter
    (fun other ->
      let verdict =
        Distinguish.compare ~a:coherent_causal ~b:(builtin other) scopes
      in
      Format.printf "  vs %-7s %a@." other
        (Distinguish.pp_verdict ~a:coherent_causal ~b:(builtin other))
        verdict)
    [ "sc"; "causal"; "pc"; "pram" ];

  (* The same machinery invents further memories on demand: PRAM plus
     per-location program order of everyone (slow-for-others), say. *)
  Format.printf "@.an ad-hoc variation (PRAM + po-loc):@.";
  let variant =
    B.make ~key:"v" ~name:"PRAM + po-loc" ~operations:`Writes_of_others
      ~mutual:`No_agreement
      ~orderings:[ Model.Program_order; Model.Po_loc ]
      ()
  in
  match Distinguish.compare ~a:variant ~b:(builtin "pram") scopes with
  | Distinguish.Equal ->
      Format.printf
        "  equivalent to PRAM over the scopes (po already implies po-loc \
         within a view) — composition also *relates* memories, not just \
         invents them.@."
  | v ->
      Format.printf "  %a@." (Distinguish.pp_verdict ~a:variant ~b:(builtin "pram")) v
