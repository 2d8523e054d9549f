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

(* Print/parse round-trip on random tests, covering labels, intervals,
   object operations, empty rows, docs and expectations beyond what the
   corpus happens to use. *)
let gen_random_test =
  let open QCheck.Gen in
  let locs = [| "x"; "y"; "z" |] in
  let event =
    let* loc = oneofa locs in
    let* at =
      opt
        (let* s = int_range 0 9 in
         let* d = int_range 0 4 in
         return (s, s + d))
    in
    let* v = int_range 0 3 in
    let* labeled = bool in
    oneofl
      [
        H.read ~labeled ?at loc v;
        H.write ~labeled ?at loc (v + 1);
        H.write ?at ("q:" ^ loc) (v + 1);
        H.read ?at ("q:" ^ loc) v;
        H.write ?at ("c:" ^ loc) 1;
        H.read ?at ("c:" ^ loc) v;
      ]
  in
  let* nprocs = int_range 1 4 in
  let* rows = list_repeat nprocs (list_size (int_range 0 4) event) in
  let* expectations =
    list_size (int_bound 3)
      (pair
         (oneofa [| "sc"; "tso"; "causal-obj" |])
         (oneofa [| Test.Allowed; Test.Forbidden |]))
  in
  let* doc = oneofl [ ""; "random round-trip test"; "two  spaces" ] in
  return
    {
      Test.name = "random";
      doc;
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

(* ---------------- scanner vs. reference ---------------- *)

(* The one-pass scanner against the parser it replaced
   (test/helpers/ref_parse.ml): on every input, the same tests (every
   field of every operation, the location numbering, the intervals),
   the same error, or the same exception. *)

module Ref_parse = Smem_testlib.Ref_parse

let render_test (t : Test.t) =
  let h = t.Test.history in
  let buf = Buffer.create 256 in
  let add fmt = Printf.bprintf buf fmt in
  add "test %S doc %S procs %d locs [" t.Test.name t.Test.doc (H.nprocs h);
  for l = 0 to H.nlocs h - 1 do
    add " %S" (H.loc_name h l)
  done;
  add " ]\n";
  for p = 0 to H.nprocs h - 1 do
    add "p%d:" p;
    Array.iter
      (fun id ->
        let o = H.op h id in
        add " #%d %d.%d %s%s l%d=%d%s" o.Op.id o.Op.proc o.Op.index
          (match o.Op.kind with Op.Read -> "r" | Op.Write -> "w")
          (match o.Op.attr with Op.Labeled -> "*" | Op.Ordinary -> "")
          o.Op.loc o.Op.value
          (match H.interval h id with
          | Some (s, f) -> Printf.sprintf "@%d,%d" s f
          | None -> ""))
      (H.proc_ops h p);
    add "\n"
  done;
  List.iter
    (fun (k, v) ->
      add "expect %S %s\n" k
        (match v with Test.Allowed -> "allowed" | Test.Forbidden -> "forbidden"))
    t.Test.expectations;
  Buffer.contents buf

let outcome parse text =
  match parse text with
  | Ok tests -> "ok\n" ^ String.concat "" (List.map render_test tests)
  | Error (e : Parse.error) -> Printf.sprintf "error line %d: %s" e.line e.message
  | exception e -> "raised " ^ Printexc.to_string e

(* Where the reference raises on a test without a processor line, the
   scanner reports that test at its header's line instead. *)
let row_less got want =
  want = "raised Invalid_argument(\"empty test\")"
  && String.starts_with ~prefix:"error line " got
  && String.ends_with ~suffix:"\" has no processor line" got

let agrees text =
  let got = outcome Parse.tests_of_string text
  and want = outcome Ref_parse.tests_of_string text in
  got = want || row_less got want

let check_agrees what text =
  let got = outcome Parse.tests_of_string text
  and want = outcome Ref_parse.tests_of_string text in
  if not (row_less got want) then
    check Alcotest.string (Printf.sprintf "%s: %S" what text) want got

let printed =
  lazy
    (List.map Print.to_string
       (Corpus.all @ Smem_corpus.Corpus.generate ~seed:42 ~count:200 ()))

let scanner_builtin_and_generated () =
  List.iter (check_agrees "printed") (Lazy.force printed);
  (* every test of both corpora in one text *)
  check_agrees "all in one" (String.concat "\n" (Lazy.force printed))

let scanner_litmus_files () =
  let dir =
    List.find_opt Sys.file_exists [ "../litmus"; "litmus" ]
    |> Option.value ~default:"../litmus"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".litmus")
  |> List.iter (fun f ->
         let ic = open_in (Filename.concat dir f) in
         let text = really_input_string ic (in_channel_length ic) in
         close_in ic;
         check_agrees f text)

(* The grammar's corners, each as the old parser read it. *)
let scanner_quirks () =
  let doc t =
    match Parse.test_of_string t with
    | Ok t -> t.Test.doc
    | Error e -> Alcotest.failf "%a" Parse.pp_error e
  in
  check Alcotest.string "runs of spaces in a doc collapse" "a b c"
    (doc "test t \"a   b  c\"\np0: w x 1\n");
  check Alcotest.string "a doc may hold quotes" "a\"b"
    (doc "test t  \"a\"b\"  \np0: w x 1\n");
  check Alcotest.int "a # inside the doc starts a comment" 1
    (parse_err "test t \"a # b\"\np0: w x 1\n").Parse.line;
  check Alcotest.int "a tab is no separator" 2
    (parse_err "test t\np0: w\tx 1\n").Parse.line;
  check Alcotest.int "a \\r ends no token" 2
    (parse_err "test t\r\np0: w x 1\r\n").Parse.line;
  (match Parse.tests_of_string "test a\ntest b\np0: w x 1\n" with
  | Error e ->
      check Alcotest.int "a test without rows: its header's line" 1
        e.Parse.line;
      check Alcotest.string "a test without rows: the message"
        "test \"a\" has no processor line" e.Parse.message
  | Ok _ -> Alcotest.fail "a test without rows was accepted");
  List.iter (check_agrees "corner")
    [
      "";
      "\n\n# only a comment\n";
      "test";
      "test t";
      "test t\np0:\n";
      "test t\np0: ; ; w x 1 ;; r y 0 ;\n";
      "test t\np0:w x 1\n";
      "test t\np0: w x 1;r y 0\n";
      "test t\np1: w x 1\n";
      "test t\np0: w x 1\np00: w y 1\n";
      "test t\np0: w x 1\np1 : w y 1\n";
      "test t\n: w x 1\n";
      "test t\np0: w x 1\nexpect sc\n";
      "test t\np0: w x 1\nexpect sc allowed maybe\n";
      "test t\np0: w x 1\nexpect sc maybe\n";
      "expect sc allowed\n";
      "test t \"d\" junk\np0: w x 1\n";
      "test t \"\np0: w x 1\n";
      "test t \"\"\np0: w x 1\n";
      "test t\np0: w x 1 @ 3 2\n";
      "test t\np0: w x 1 @ a 2\n";
      "test t\np0: w x 1 @ 1 b\n";
      "test t\np0: w x 1 @ 1\n";
      "test t\np0: w x 1 2 3 4 5\n";
      "test t\np0: w x 0x1f ; r x 1_0 ; r y +3 ; r y -0\n";
      "test t\np0: w x 99999999999999999999\n";
      "test t\np0: w x 4611686018427387903 ; r x -4611686018427387904\n";
      "test t\np0: w x 4611686018427387904\n";
      "test t\np0: enq q 0\n";
      "test t\np0: enq q 2 ; deq q 0 ; inc c ; rdc c 1 ; inc c @ 1 2\n";
      "test t\np0: inc c 2\n";
      "test t\np0: inc c 2 @ 1 2\n";
      "test t\np0: inc @ 1 2\n";
      "test t\np0: enq q\n";
      "test t\np0: x y 1\n";
      "test t\np0: r* s 1 ; w* s 2 ; r x 1 @ 0 9\n";
      "test t\np0: w q:x 1 ; w c:y 1\n";
      "test a\np0: w x 1\ntest b\np0: r x 0\np1: w y 2\nexpect sc allowed\n";
    ]

let gen_printed_test = QCheck.Gen.map Print.to_string gen_random_test

(* Byte-level mutations of a text: a byte dropped, doubled or replaced,
   or a fragment inserted — separators, comments, tabs, '\r', bad
   numbers, intervals, object operations, expect lines and further
   tests. *)
let fragments =
  [|
    " "; ";"; "#"; "\t"; "\r"; "\n"; ":"; "@"; "*"; "\""; "-"; "0"; "7";
    "x"; "p1:"; " @ 1 2"; " @ 2 1"; "99999999999999999999"; "0x1f"; "1_0";
    "+3"; "enq q 1"; "deq q 0"; "inc c"; "rdc c 1"; "r* s 1"; " ; ";
    "\nexpect sc allowed\n"; "\nexpect tso maybe\n"; "\ntest u \"d  oc\"\n";
    "\ntest v\np0: w x 1\n"; "\np1: r x 1\n";
  |]

let gen_mutated =
  let open QCheck.Gen in
  let mutate text =
    let n = String.length text in
    let* i = int_bound (max 0 (n - 1)) in
    let* kind = int_bound 3 in
    let* frag = oneofa fragments in
    let before = String.sub text 0 i in
    let after k = String.sub text (min (i + k) n) (n - min (i + k) n) in
    return
      (match kind with
      | 0 -> before ^ after 1
      | 1 -> before ^ String.sub text i (min 1 (n - i)) ^ after 0
      | 2 -> before ^ frag ^ after 1
      | _ -> before ^ frag ^ after 0)
  in
  let corpus_test st = oneofl (Lazy.force printed) st in
  let* base =
    oneof
      [
        corpus_test;
        gen_printed_test;
        map2 ( ^ ) gen_printed_test corpus_test;
      ]
  in
  let* k = int_range 1 4 in
  let rec go k text = if k = 0 then return text else mutate text >>= go (k - 1) in
  go k base

let prop_scanner_random =
  QCheck.Test.make ~name:"scanner = reference on random tests" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_printed_test)
    agrees

let prop_scanner_mutated =
  QCheck.Test.make ~name:"scanner = reference on mutated texts" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated)
    agrees

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
      ( "scanner",
        [
          tc "= reference: built-in and generated tests"
            scanner_builtin_and_generated;
          tc "= reference: shipped litmus files" scanner_litmus_files;
          tc "quirks kept" scanner_quirks;
          QCheck_alcotest.to_alcotest prop_scanner_random;
          QCheck_alcotest.to_alcotest prop_scanner_mutated;
        ] );
    ]
