(* Prints the MD5 of the generated corpus at the standard seed, 1000
   tests.  Generating it steps all nine machines through fold_traces,
   seeded random schedules and transition-budgeted random programs, so
   the runtest diff against golden/corpus_digest.expected catches most
   drift in a machine's successor order, which the 20-test sample
   (loop-free outcomes of three machines) misses. *)

let () =
  Smem_corpus.Corpus.(to_string ~seed:42 (generate ~seed:42 ~count:1000 ()))
  |> Digest.string |> Digest.to_hex |> print_endline
