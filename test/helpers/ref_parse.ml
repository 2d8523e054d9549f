(* The litmus parser before it became one scanner over the text: each
   line is split on ' ' into tokens, a processor line's events are
   re-joined and split again on ';', and the expected processor id is
   formatted per row.  Kept as the differential reference of
   Smem_litmus.Parse (test_litmus's "scanner" group): for every input
   it must return the same Test.t, the same error, or raise the same
   exception. *)

module H = Smem_core.History
module Test = Smem_litmus.Test

type error = Smem_litmus.Parse.error = { line : int; message : string }
exception Parse_error of error

let fail line fmt = Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* State of the test currently being assembled. *)
type partial = {
  name : string;
  doc : string;
  mutable rows : H.event list list;  (* reversed *)
  mutable expects : (string * Test.verdict) list;  (* reversed *)
}

let finish p =
  if p.rows = [] then invalid_arg "empty test"
  else
    Test.make ~name:p.name ~doc:p.doc
      ~expect:(List.rev p.expects)
      (List.rev p.rows)

let int_field lineno what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail lineno "bad %s %S" what s

let parse_event lineno words =
  let base, at =
    match words with
    | [ op; loc; value ] -> ((op, loc, Some value), None)
    | [ op; loc; value; "@"; s; f ] ->
        let s = int_field lineno "interval start" s
        and f = int_field lineno "interval finish" f in
        if s > f then fail lineno "interval start %d after finish %d" s f;
        ((op, loc, Some value), Some (s, f))
    | [ ("inc" as op); loc ] -> ((op, loc, None), None)
    | [ ("inc" as op); loc; "@"; s; f ] ->
        let s = int_field lineno "interval start" s
        and f = int_field lineno "interval finish" f in
        if s > f then fail lineno "interval start %d after finish %d" s f;
        ((op, loc, None), Some (s, f))
    | words -> fail lineno "bad event %S" (String.concat " " words)
  in
  let op, loc, raw_value = base in
  let value what =
    match raw_value with
    | Some v -> int_field lineno what v
    | None -> fail lineno "missing %s for %S" what op
  in
  let event kind labeled =
    let value = value "value" in
    match kind with
    | `R -> H.read ~labeled ?at loc value
    | `W -> H.write ~labeled ?at loc value
  in
  match op with
  | "r" -> event `R false
  | "w" -> event `W false
  | "r*" -> event `R true
  | "w*" -> event `W true
  (* Object operations desugar to reads and writes on sort-tagged
     locations ("q:" queues, "c:" counters; see Smem_core.Sort). *)
  | "enq" ->
      let v = value "enqueued value" in
      if v = 0 then
        fail lineno "enq value must be nonzero (0 marks an empty dequeue)";
      H.write ?at ("q:" ^ loc) v
  | "deq" ->
      (* value 0 asserts the queue was observed empty *)
      H.read ?at ("q:" ^ loc) (value "dequeued value")
  | "inc" ->
      (match raw_value with
      | None -> ()
      | Some _ -> fail lineno "inc takes no value (counters increment by one)");
      H.write ?at ("c:" ^ loc) 1
  | "rdc" -> H.read ?at ("c:" ^ loc) (value "counter value")
  | _ ->
      fail lineno
        "unknown operation %S (expected r, w, r*, w*, enq, deq, inc, rdc)" op

let parse_events lineno rest =
  let text = String.concat " " rest in
  String.split_on_char ';' text
  |> List.map (fun chunk -> tokens chunk)
  |> List.filter (fun ws -> ws <> [])
  |> List.map (parse_event lineno)

let unquote lineno s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
  else fail lineno "expected a quoted string, got %S" s

let tests_of_string source =
  let lines = String.split_on_char '\n' source in
  let tests = ref [] in
  let current = ref None in
  let close () =
    match !current with
    | None -> ()
    | Some p ->
        tests := finish p :: !tests;
        current := None
  in
  let with_current lineno f =
    match !current with
    | None -> fail lineno "directive outside of a test (missing 'test' header?)"
    | Some p -> f p
  in
  try
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let line = strip_comment line in
        match tokens line with
        | [] -> ()
        | "test" :: name :: rest ->
            close ();
            let doc =
              match rest with
              | [] -> ""
              | _ -> unquote lineno (String.concat " " rest)
            in
            current := Some { name; doc; rows = []; expects = [] }
        | "expect" :: key :: verdict :: [] ->
            with_current lineno (fun p ->
                let v =
                  match verdict with
                  | "allowed" -> Test.Allowed
                  | "forbidden" -> Test.Forbidden
                  | _ -> fail lineno "expected allowed|forbidden, got %S" verdict
                in
                p.expects <- (key, v) :: p.expects)
        | proc :: rest when String.length proc > 1 && proc.[String.length proc - 1] = ':'
          ->
            with_current lineno (fun p ->
                let id = String.sub proc 0 (String.length proc - 1) in
                let expected = Printf.sprintf "p%d" (List.length p.rows) in
                if id <> expected then
                  fail lineno "expected processor %s, got %s" expected id;
                p.rows <- parse_events lineno rest :: p.rows)
        | word :: _ -> fail lineno "unexpected token %S" word)
      lines;
    close ();
    Ok (List.rev !tests)
  with Parse_error e -> Error e

let test_of_string source =
  match tests_of_string source with
  | Error e -> Error e
  | Ok [ t ] -> Ok t
  | Ok ts -> Error { line = 0; message = Printf.sprintf "expected one test, found %d" (List.length ts) }
