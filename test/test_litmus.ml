(* Tests of the litmus format: parser, printer, round-trips, error
   reporting, and litmus tests judged through the service's [Check]
   request (the path [smem check] runs). *)

module H = Smem_core.History
module Op = Smem_core.Op
module Test = Smem_litmus.Test
module Parse = Smem_litmus.Parse
module Print = Smem_litmus.Print
module Corpus = Smem_litmus.Corpus
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Service = Smem_serve.Service

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse_ok source =
  match Parse.test_of_string source with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse error: %a" Parse.pp_error e

let parse_err source =
  match Parse.test_of_string source with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

(* ---------------- parsing ---------------- *)

let parse_basic () =
  let t =
    parse_ok
      "test sb \"store buffering\"\n\
       p0: w x 1 ; r y 0\n\
       p1: w y 1 ; r x 0\n\
       expect sc forbidden\n\
       expect tso allowed\n"
  in
  check Alcotest.string "name" "sb" t.Test.name;
  check Alcotest.string "doc" "store buffering" t.Test.doc;
  let h = t.Test.history in
  check Alcotest.int "procs" 2 (H.nprocs h);
  check Alcotest.int "ops" 4 (H.nops h);
  check Alcotest.int "locs" 2 (H.nlocs h);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
    "expectations"
    [ ("sc", false); ("tso", true) ]
    (List.map
       (fun (k, v) -> (k, Verdict.bool_of_status v))
       t.Test.expectations)

let parse_labeled () =
  let t = parse_ok "test rc\np0: w* s 1 ; r x 0\np1: r* s 1\n" in
  let h = t.Test.history in
  check Alcotest.bool "release" true (Op.is_release (H.op h 0));
  check Alcotest.bool "ordinary" true (Op.is_ordinary (H.op h 1));
  check Alcotest.bool "acquire" true (Op.is_acquire (H.op h 2))

let parse_comments_and_blanks () =
  let t =
    parse_ok
      "# leading comment\n\ntest c # trailing comment\n\np0: w x 1  # ops\n"
  in
  check Alcotest.string "name" "c" t.Test.name;
  check Alcotest.int "ops" 1 (H.nops t.Test.history)

let parse_multiple () =
  match Parse.tests_of_string "test a\np0: w x 1\ntest b\np0: r x 0\n" with
  | Ok [ a; b ] ->
      check Alcotest.string "first" "a" a.Test.name;
      check Alcotest.string "second" "b" b.Test.name
  | Ok ts -> Alcotest.failf "expected 2 tests, got %d" (List.length ts)
  | Error e -> Alcotest.failf "parse error: %a" Parse.pp_error e

let parse_errors () =
  let e = parse_err "p0: w x 1\n" in
  check Alcotest.int "directive before test header" 1 e.Parse.line;
  let e2 = parse_err "test t\np1: w x 1\n" in
  check Alcotest.int "wrong processor id" 2 e2.Parse.line;
  let e3 = parse_err "test t\np0: q x 1\n" in
  check Alcotest.int "unknown op" 2 e3.Parse.line;
  let e4 = parse_err "test t\np0: w x abc\n" in
  check Alcotest.int "bad value" 2 e4.Parse.line;
  let e5 = parse_err "test t\np0: w x 1\nexpect sc maybe\n" in
  check Alcotest.int "bad verdict" 3 e5.Parse.line

(* ---------------- round-trips ---------------- *)

let histories_equal h1 h2 =
  H.nprocs h1 = H.nprocs h2
  && H.nops h1 = H.nops h2
  && List.for_all
       (fun p ->
         let row1 = H.proc_ops h1 p and row2 = H.proc_ops h2 p in
         Array.length row1 = Array.length row2
         && Array.for_all2
              (fun a b ->
                let oa = H.op h1 a and ob = H.op h2 b in
                oa.Op.kind = ob.Op.kind
                && oa.Op.value = ob.Op.value
                && oa.Op.attr = ob.Op.attr
                && H.loc_name h1 oa.Op.loc = H.loc_name h2 ob.Op.loc)
              row1 row2)
       (List.init (H.nprocs h1) Fun.id)

let roundtrip_corpus () =
  List.iter
    (fun (t : Test.t) ->
      let printed = Print.to_string t in
      let t' = parse_ok printed in
      check Alcotest.string (t.Test.name ^ " name") t.Test.name t'.Test.name;
      check Alcotest.bool
        (t.Test.name ^ " history round-trips")
        true
        (histories_equal t.Test.history t'.Test.history);
      check Alcotest.int
        (t.Test.name ^ " expectations round-trip")
        (List.length t.Test.expectations)
        (List.length t'.Test.expectations))
    Corpus.all

(* Regression: labeled (synchronization) attributes must survive the
   of_history → print → parse chain exactly — a suspected label-drop
   here would silently weaken every RC/WO verdict downstream, so the
   invariant is pinned even though no drop was ever reproduced. *)
let roundtrip_preserves_labels () =
  let h =
    H.make
      [
        [ H.write "x" 1; H.write ~labeled:true "s" 1 ];
        [ H.read ~labeled:true "s" 1; H.read "x" 1; H.write ~labeled:true "s" 2 ];
      ]
  in
  let t =
    Test.of_history ~name:"labels" ~expect:[ ("rc-sc", Test.Allowed) ] h
  in
  let t' = parse_ok (Print.to_string t) in
  check Alcotest.bool "history round-trips" true
    (histories_equal h t'.Test.history);
  let attrs h =
    List.init (H.nops h) (fun id -> (H.op h id).Op.attr)
  in
  check Alcotest.bool "attributes identical op-by-op" true
    (attrs h = attrs t'.Test.history);
  check Alcotest.int "three labeled operations" 3
    (List.length
       (List.filter (fun a -> a = Op.Labeled) (attrs t'.Test.history)))

(* Object operations: the DSL's enq/deq/inc/rdc forms map onto sorted
   locations ("q:" queues, "c:" counters) and survive the print/parse
   chain; ill-typed forms are rejected with positioned errors. *)
let object_ops_parse () =
  let t =
    parse_ok
      "test objects \"queue and counter ops\"\n\
       p0: enq q 1 ; inc c ; rdc c 2\n\
       p1: deq q 1 ; deq q 0 ; inc c\n\
       expect causal-obj allowed\n"
  in
  let h = t.Test.history in
  let names =
    List.init (H.nops h) (fun id -> H.loc_name h (H.op h id).Op.loc)
  in
  check
    Alcotest.(list string)
    "sorted location names"
    [ "q:q"; "c:c"; "c:c"; "q:q"; "q:q"; "c:c" ]
    names;
  let op id = H.op h id in
  check Alcotest.bool "enq is a write of 1" true
    ((op 0).Op.kind = Op.Write && (op 0).Op.value = 1);
  check Alcotest.bool "inc writes 1" true
    ((op 1).Op.kind = Op.Write && (op 1).Op.value = 1);
  check Alcotest.bool "rdc reads the stated value" true
    ((op 2).Op.kind = Op.Read && (op 2).Op.value = 2);
  check Alcotest.bool "deq of 0 is an empty dequeue" true
    ((op 4).Op.kind = Op.Read && (op 4).Op.value = 0)

let object_ops_roundtrip () =
  let h =
    H.make
      [
        [ H.write "q:q" 1; H.write "c:c" 1; H.read "c:c" 2 ];
        [ H.read "q:q" 1; H.read "q:q" 0 ];
      ]
  in
  let t =
    Test.of_history ~name:"objects" ~expect:[ ("causal-obj", Test.Allowed) ] h
  in
  let printed = Print.to_string t in
  let contains needle =
    let nl = String.length needle and pl = String.length printed in
    let rec go i = i + nl <= pl && (String.sub printed i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "prints the object forms" true
    (List.for_all contains
       [ "enq q 1"; "inc c"; "rdc c 2"; "deq q 1"; "deq q 0" ]);
  let t' = parse_ok printed in
  check Alcotest.bool "history round-trips" true
    (histories_equal h t'.Test.history)

let object_ops_rejected () =
  let rejected src =
    match Parse.test_of_string src with
    | Ok _ -> Alcotest.failf "accepted ill-typed %S" src
    | Error _ -> ()
  in
  rejected "test bad \"b\"\np0: enq q 0\n";
  rejected "test bad \"b\"\np0: inc c 2\n";
  rejected "test bad \"b\"\np0: enq q\n"

(* ---------------- corpus sanity ---------------- *)

let corpus_names_unique () =
  let names = List.map (fun (t : Test.t) -> t.Test.name) Corpus.all in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let corpus_expectation_keys_known () =
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun (key, _) ->
          check Alcotest.bool
            (Printf.sprintf "%s expects known model %s" t.Test.name key)
            true
            (Smem_core.Registry.find key <> None))
        t.Test.expectations)
    Corpus.all

let corpus_find () =
  check Alcotest.bool "finds fig1" true (Corpus.find "fig1" <> None);
  check Alcotest.bool "misses junk" true (Corpus.find "nope" = None)

(* ---------------- runner ---------------- *)

(* A test's verdicts under [models] (every catalogued model when
   empty), asked as the [Check] request [smem check] sends. *)
let check_verdicts ?(models = []) (t : Test.t) =
  let req = Request.Check { test = Request.Inline (Print.to_string t); models } in
  match (Service.handle (Service.create ()) req).Response.payload with
  | Response.Verdicts verdicts -> verdicts
  | Response.Error { message; _ } -> Alcotest.failf "%s: %s" t.Test.name message
  | _ -> Alcotest.failf "%s: check answered without verdicts" t.Test.name

(* The shipped .litmus files parse, and their stated expectations hold. *)
let litmus_files_check () =
  (* cwd differs between `dune runtest` (test dir, deps materialized)
     and `dune exec` (project root): probe both. *)
  let dir =
    List.find_opt Sys.file_exists [ "../litmus"; "litmus" ]
    |> Option.value ~default:"../litmus"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".litmus")
    |> List.sort compare
  in
  check Alcotest.bool "found litmus files" true (List.length files >= 5);
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let ic = open_in path in
      let source = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Parse.tests_of_string source with
      | Error e -> Alcotest.failf "%s: %a" file Parse.pp_error e
      | Ok tests ->
          List.iter
            (fun (t : Test.t) ->
              List.iter
                (fun v ->
                  check Alcotest.bool
                    (Printf.sprintf "%s/%s agrees" file t.Test.name)
                    true (Verdict.agrees v))
                (check_verdicts t))
            tests)
    files

let runner_agreement () =
  let t =
    Test.make ~name:"tiny" ~expect:[ ("sc", Test.Allowed) ]
      [ [ Smem_core.History.write "x" 1 ] ]
  in
  let results = check_verdicts ~models:[ "sc" ] t in
  check Alcotest.int "one result" 1 (List.length results);
  check Alcotest.bool "agrees" true (List.for_all Verdict.agrees results);
  let bad =
    Test.make ~name:"tiny2" ~expect:[ ("sc", Test.Forbidden) ]
      [ [ Smem_core.History.write "x" 1 ] ]
  in
  let results2 = check_verdicts ~models:[ "sc" ] bad in
  check Alcotest.int "one mismatch" 1
    (List.length (List.filter (fun v -> not (Verdict.agrees v)) results2))

(* Print/parse round-trip on random tests, covering labels, intervals
   and expectations beyond what the corpus happens to use. *)
let gen_random_test =
  let open QCheck.Gen in
  let locs = [| "x"; "y"; "z" |] in
  let event =
    let* loc = oneofa locs in
    let* labeled = bool in
    let* timed = bool in
    let* at =
      if timed then
        let* s = int_range 0 9 in
        let* d = int_range 0 4 in
        return (Some (s, s + d))
      else return None
    in
    let* is_write = bool in
    if is_write then
      let* v = int_range 1 3 in
      return (Smem_core.History.write ~labeled ?at loc v)
    else
      let* v = int_range 0 3 in
      return (Smem_core.History.read ~labeled ?at loc v)
  in
  let* nprocs = int_range 1 3 in
  let* rows = list_repeat nprocs (list_size (int_range 1 4) event) in
  let* expectations =
    list_size (int_bound 3)
      (pair
         (oneofa [| "sc"; "tso"; "causal" |])
         (oneofa [| Test.Allowed; Test.Forbidden |]))
  in
  return
    {
      Test.name = "random";
      doc = "random round-trip test";
      history = Smem_core.History.make rows;
      expectations = List.sort_uniq compare expectations;
    }

let intervals_equal h1 h2 =
  List.for_all
    (fun id -> H.interval h1 id = H.interval h2 id)
    (List.init (H.nops h1) Fun.id)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"print/parse round-trip on random tests" ~count:300
    (QCheck.make ~print:Print.to_string gen_random_test) (fun t ->
      match Parse.test_of_string (Print.to_string t) with
      | Error _ -> false
      | Ok t' ->
          histories_equal t.Test.history t'.Test.history
          && intervals_equal t.Test.history t'.Test.history
          && t.Test.expectations = t'.Test.expectations)

let () =
  Alcotest.run "litmus"
    [
      ( "parse",
        [
          tc "basic test" parse_basic;
          tc "labeled accesses" parse_labeled;
          tc "comments and blank lines" parse_comments_and_blanks;
          tc "multiple tests" parse_multiple;
          tc "errors carry line numbers" parse_errors;
          tc "object operations" object_ops_parse;
          tc "ill-typed object operations rejected" object_ops_rejected;
        ] );
      ( "round-trip",
        [
          tc "whole corpus" roundtrip_corpus;
          tc "labels preserved" roundtrip_preserves_labels;
          tc "object operations" object_ops_roundtrip;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
        ] );
      ( "corpus",
        [
          tc "names unique" corpus_names_unique;
          tc "expectation keys known" corpus_expectation_keys_known;
          tc "find" corpus_find;
        ] );
      ( "runner",
        [
          tc "agreement and mismatch" runner_agreement;
          tc "shipped litmus files" litmus_files_check;
        ] );
    ]
