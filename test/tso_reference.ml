(* tso-op's quadruple against the store-buffer replay it replaced
   (test/helpers/tso_operational.ml) on a generated corpus:

     tso_reference.exe SEED COUNT

   checks every test of the corpus generated at SEED with COUNT tests,
   prints the first test the two disagree on and exits 1, or prints
   the count of agreements and exits 0.  test_models' "tso-op =
   store-buffer replay" case covers the exhaustive scopes and the
   built-in corpus; the nightly CI job runs this on seeds 1, 7 and 42
   with 2 000 tests each. *)

module Model = Smem_core.Model
module Test = Smem_litmus.Test

let () =
  let seed, count =
    match Sys.argv with
    | [| _; seed; count |] -> (int_of_string seed, int_of_string count)
    | _ ->
        prerr_endline "usage: tso_reference.exe SEED COUNT";
        exit 2
  in
  let tso_op = Option.get (Smem_core.Registry.find "tso-op") in
  let tests = Smem_corpus.Corpus.generate ~seed ~count () in
  List.iter
    (fun (t : Test.t) ->
      let quadruple = Model.check tso_op t.Test.history in
      let replay = Smem_testlib.Tso_operational.check t.Test.history in
      if quadruple <> replay then begin
        Format.printf "seed %d: %s: the quadruple %s, the replay %s@.%s" seed
          t.Test.name
          (if quadruple then "allows" else "forbids")
          (if quadruple then "forbids" else "allows")
          (Smem_litmus.Print.to_string t);
        exit 1
      end)
    tests;
  Printf.printf "seed %d: tso-op = store-buffer replay on %d tests\n" seed
    (List.length tests)
