(* Prints, for each engine, the MD5 of every witness it finds: for
   each test of the built-in corpus and of the generated corpus at
   seed 42 (200 tests), and for each Figure 5 node (every catalogue
   model plus session(ryw,mr,mw)), the test's name, the model's key
   and the witness as Witness.pp prints it, or "forbidden".  The
   runtest diff against golden/witness_digest.expected pins witnesses
   byte for byte across changes to the search, and pins that the two
   engines find the same ones. *)

module Model = Smem_core.Model
module Test = Smem_litmus.Test

let tests =
  Smem_litmus.Corpus.all @ Smem_corpus.Corpus.generate ~seed:42 ~count:200 ()

let models =
  List.map
    (fun key -> Option.get (Smem_core.Registry.find key))
    Smem_lattice.Figure5.model_keys

let digest engine =
  Model.set_engine engine;
  let buf = Buffer.create (1 lsl 20) in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun (m : Model.t) ->
          Format.fprintf ppf "%s %s@." t.Test.name m.Model.key;
          match Model.witness_of m t.Test.history with
          | Some w ->
              Format.fprintf ppf "%a@." (Smem_core.Witness.pp t.Test.history) w
          | None -> Format.fprintf ppf "forbidden@.")
        models)
    tests;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let () =
  Smem_solve.Solve.install ();
  Printf.printf "enum %s\n" (digest Model.Enum);
  Printf.printf "solve %s\n" (digest Model.Solve)
