(* Tests for the typed API layer: verdict semantics and the wire codec
   — round-trip printer/parser for requests, responses, and verdicts in
   both protocol versions, plus smem-api/1 back-compatibility. *)

module Verdict = Smem_api.Verdict
module Request = Smem_api.Request
module Response = Smem_api.Response
module Wire = Smem_api.Wire
module Json = Smem_obs.Json

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- verdict semantics ---------------- *)

let verdict_status_bool () =
  check Alcotest.bool "allowed" true Verdict.(bool_of_status Allowed);
  check Alcotest.bool "forbidden" false Verdict.(bool_of_status Forbidden);
  check Alcotest.bool "roundtrip true" true
    Verdict.(bool_of_status (status_of_bool true));
  check Alcotest.bool "roundtrip false" false
    Verdict.(bool_of_status (status_of_bool false))

let verdict_agrees () =
  let v ?expected status =
    Verdict.v ?expected ~subject:"t" ~authority:"sc" status
  in
  check Alcotest.bool "no expectation" true (Verdict.agrees (v (Some Allowed)));
  check Alcotest.bool "match" true
    (Verdict.agrees (v ~expected:Allowed (Some Allowed)));
  check Alcotest.bool "mismatch" false
    (Verdict.agrees (v ~expected:Forbidden (Some Allowed)));
  check Alcotest.bool "undecided vs expectation" false
    (Verdict.agrees (v ~expected:Allowed None));
  check Alcotest.bool "undecided, no expectation" true (Verdict.agrees (v None))

let verdict_json_roundtrip () =
  let vs =
    [
      Verdict.v ~subject:"fig1" ~authority:"sc" (Some Verdict.Forbidden);
      Verdict.v ~question:"reachability" ~subject:"mp"
        ~authority:"machine:write-buffer" ~cached:true ~states:42
        ~notes:[ "a"; "b" ] ~expected:Verdict.Allowed (Some Verdict.Allowed);
      Verdict.v ~question:"mutual-exclusion" ~subject:"bakery"
        ~authority:"machine:cache" None;
    ]
  in
  List.iter
    (fun v ->
      match Verdict.of_json (Verdict.to_json v) with
      | Error e -> Alcotest.failf "verdict did not parse back: %s" e
      | Ok v' ->
          check Alcotest.bool "verdict roundtrip" true (v = v'))
    vs

(* ---------------- request round-trips ---------------- *)

let all_requests =
  let scope =
    { Request.procs = [ 2; 2 ]; nlocs = 2; max_value = 1; labeled = false }
  in
  let lscope =
    { Request.procs = [ 3 ]; nlocs = 1; max_value = 2; labeled = true }
  in
  [
    Request.Check { test = Named "fig1"; models = [ "sc"; "pc-g" ] };
    Request.Check
      {
        test = Named "mp";
        models = [ "pc-part(blocks=2)"; "session(ryw,mr)"; "causal-obj" ];
      };
    Request.Check { test = Inline "test \"t\"\n"; models = [] };
    Request.Corpus { models = [ "cache" ] };
    Request.Corpus { models = [] };
    Request.Classify { models = []; scopes = [] };
    Request.Classify { models = [ "sc"; "pram" ]; scopes = [ scope; lscope ] };
    Request.Distinguish { a = "sc"; b = "pc-g"; scopes = [ scope ] };
    Request.Distinguish { a = "causal"; b = "session(ryw,mr)"; scopes = [] };
    Request.Certify { test = Named "fig2"; model = "sc"; format = `Sexp };
    Request.Certify { test = Inline "x"; model = "pc-d"; format = `Json };
    Request.Models;
  ]

let proto_t =
  Alcotest.testable
    (fun ppf p -> Format.pp_print_string ppf (Wire.schema_of p))
    ( = )

let request_roundtrip () =
  List.iter
    (fun proto ->
      List.iteri
        (fun i r ->
          (* with an explicit id *)
          (match
             Wire.parse_request_line (Wire.request_line ~proto ~id:(i + 1) r)
           with
          | Error e -> Alcotest.failf "request %d did not parse back: %s" i e
          | Ok (id, proto', r') ->
              check (Alcotest.option Alcotest.int) "id echoed" (Some (i + 1))
                id;
              check proto_t "proto reported" proto proto';
              check Alcotest.bool "request roundtrip" true (r = r'));
          (* and without *)
          match Wire.parse_request_line (Wire.request_line ~proto r) with
          | Error e -> Alcotest.failf "id-less request %d: %s" i e
          | Ok (id, proto', r') ->
              check (Alcotest.option Alcotest.int) "no id" None id;
              check proto_t "proto reported" proto proto';
              check Alcotest.bool "id-less roundtrip" true (r = r'))
        all_requests)
    [ Wire.V1; Wire.V2 ]

let request_schema_checked () =
  (* a wrong schema value is rejected... *)
  (match
     Wire.parse_request_line
       {|{"schema":"smem-api/999","kind":"corpus","models":[]}|}
   with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ());
  (* ...a version field disagreeing with the schema is rejected... *)
  (match
     Wire.parse_request_line
       {|{"schema":"smem-api/2","version":1,"kind":"corpus"}|}
   with
  | Ok _ -> Alcotest.fail "mismatched version accepted"
  | Error _ -> ());
  (* ...but a missing schema field is tolerated and means v1 *)
  match Wire.parse_request_line {|{"kind":"corpus","models":[]}|} with
  | Ok (None, Wire.V1, Request.Corpus { models = [] }) -> ()
  | Ok _ -> Alcotest.fail "schema-less request parsed to the wrong value"
  | Error e -> Alcotest.failf "schema-less request rejected: %s" e

(* Hand-written client lines in both versions parse to the same typed
   request: the v1 plain-string and v2 structured spellings of one
   model reference are interchangeable, and the structured spelling is
   normalized through the Model_ref grammar. *)
let request_versions_agree () =
  let v1 =
    {|{"schema":"smem-api/1","kind":"check","test":{"corpus":"mp"},"models":["session(ryw,mr)","sc"]}|}
  in
  let v2 =
    {|{"schema":"smem-api/2","version":2,"kind":"check","test":{"corpus":"mp"},"models":[{"family":"session","args":[{"name":"ryw"},{"name":"mr"}]},{"family":"sc"}]}|}
  in
  match (Wire.parse_request_line v1, Wire.parse_request_line v2) with
  | Ok (None, Wire.V1, r1), Ok (None, Wire.V2, r2) ->
      check Alcotest.bool "same request" true (r1 = r2);
      check Alcotest.bool "expected shape" true
        (r1
        = Request.Check
            { test = Named "mp"; models = [ "session(ryw,mr)"; "sc" ] })
  | Ok _, Ok _ -> Alcotest.fail "wrong id or proto"
  | Error e, _ -> Alcotest.failf "v1 line rejected: %s" e
  | _, Error e -> Alcotest.failf "v2 line rejected: %s" e

(* A structured reference's family, argument names and values must
   each keep the reference grammar's name rule, or the canonical string
   would read back differently: an argument named "ryw,mr" printed as
   session(ryw,mr), two flags, and a value "2) " made a reference the
   grammar reported as "pc-part(blocks=2) )".  Such a line is answered
   unknown-model, and the message names the field.  Whitespace the
   grammar tolerates around a token is trimmed: {"family":" sc "} is
   sc. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let request_malformed_refs () =
  let line refs =
    Printf.sprintf
      {|{"schema":"smem-api/2","version":2,"kind":"check","test":{"corpus":"mp"},"models":[%s]}|}
      refs
  in
  List.iter
    (fun (refs, field) ->
      match Wire.decode_request_line (line refs) with
      | Error (Response.Unknown_model, message) ->
          check Alcotest.bool
            (Printf.sprintf "%s names %S" message field)
            true
            (contains message field)
      | Error (code, message) ->
          Alcotest.failf "%s answered %s: %s" refs
            (Response.error_code_to_string code)
            message
      | Ok (_, _, r) ->
          Alcotest.failf "%s decoded to %s" refs
            (Format.asprintf "%a" Request.pp r))
    [
      ({|{"family":"session","args":[{"name":"ryw,mr"}]}|}, "argument name");
      ( {|{"family":"pc-part","args":[{"name":"blocks","value":"2) "}]}|},
        "value \"2) \"" );
      ({|{"family":"sc mp"}|}, "family");
    ];
  match
    Wire.decode_request_line
      (line
         {|{"family":" sc "},{"family":"pc-part","args":[{"name":" blocks ","value":" 2"}]}|})
  with
  | Ok (_, _, Request.Check { models; _ }) ->
      check
        Alcotest.(list string)
        "trimmed" [ "sc"; "pc-part(blocks=2)" ] models
  | Ok _ -> Alcotest.fail "wrong request"
  | Error (_, message) -> Alcotest.failf "padded names refused: %s" message

let request_garbage_rejected () =
  List.iter
    (fun line ->
      match Wire.parse_request_line line with
      | Ok _ -> Alcotest.failf "accepted garbage: %s" line
      | Error _ -> ())
    [
      "";
      "not json";
      {|{"schema":"smem-api/1"}|};
      {|{"schema":"smem-api/1","kind":"launder"}|};
      {|{"schema":"smem-api/1","kind":"check"}|};
      {|{"schema":"smem-api/2","kind":"check","test":{"corpus":"mp"},"models":[{"args":[]}]}|};
      {|[1,2,3]|};
    ]

(* ---------------- response round-trips ---------------- *)

let all_responses =
  let verdicts =
    [
      Verdict.v ~subject:"fig1" ~authority:"sc" ~expected:Verdict.Forbidden
        (Some Verdict.Forbidden);
      Verdict.v ~subject:"fig1" ~authority:"pc-g" ~cached:true
        (Some Verdict.Allowed);
    ]
  in
  let base kind payload =
    {
      Response.id = Some 7;
      kind;
      cached = 1;
      computed = 1;
      elapsed_ns = 12345;
      payload;
    }
  in
  [
    base "check" (Response.Verdicts verdicts);
    base "classify"
      (Response.Classification
         {
           total = 81;
           allowed = [ ("sc", 10); ("pram", 30) ];
           relations = [ ("sc", "pram", "stronger"); ("pram", "sc", "weaker") ];
           hasse = [ ("sc", "pram") ];
         });
    base "distinguish"
      (Response.Distinction
         {
           relation = "a-stronger";
           witnesses = [ ("allowed-by-b-only", "test \"w\"\np0: w(x)1\n") ];
         });
    base "certify" (Response.Certificate { format = "sexp"; body = "(cert)" });
    base "models"
      (Response.Catalogue
         {
           models =
             [
               {
                 Response.key = "sc";
                 name = "Sequential Consistency";
                 description = "one total order";
                 params =
                   [
                     ("population", "shared-all");
                     ("ordering", "po");
                     ("mutual", "none");
                     ("legality", "writer");
                   ];
               };
               {
                 Response.key = "tso-op";
                 name = "SPARC Total Store Ordering";
                 description = "store forwarding";
                 params =
                   [
                     ("population", "own+writes");
                     ("ordering", "loadop-storestore");
                     ("mutual", "global-write-order");
                     ("legality", "forwarding");
                   ];
               };
             ];
           families =
             [
               {
                 Response.family = "session";
                 doc = "session guarantees";
                 params = [ ("ryw", "flag"); ("mr", "flag") ];
               };
             ];
         });
    Response.error ~id:3 ~code:Response.Unknown_model "no such model: zz";
    Response.error ~code:Response.Bad_request "parse error";
  ]

let response_roundtrip () =
  List.iter
    (fun proto ->
      List.iteri
        (fun i r ->
          match Wire.parse_response_line (Wire.response_line ~proto r) with
          | Error e -> Alcotest.failf "response %d did not parse back: %s" i e
          | Ok r' -> check Alcotest.bool "response roundtrip" true (r = r'))
        all_responses)
    [ Wire.V1; Wire.V2 ]

(* A v1 response line has exactly the smem-api/1 shape: the v1 schema
   tag and no version field.  This is the byte-compatibility seam the
   server relies on when answering v1 clients. *)
let response_v1_shape () =
  let r = List.nth all_responses 0 in
  let j = Wire.response_to_json ~proto:Wire.V1 r in
  check Alcotest.bool "v1 schema tag" true
    (Json.member "schema" j = Some (Json.Str "smem-api/1"));
  check Alcotest.bool "no version field in v1" true
    (Json.member "version" j = None);
  let j2 = Wire.response_to_json ~proto:Wire.V2 r in
  check Alcotest.bool "v2 schema tag" true
    (Json.member "schema" j2 = Some (Json.Str "smem-api/2"));
  check Alcotest.bool "explicit version in v2" true
    (Json.member "version" j2 = Some (Json.Int 2))

let response_ok () =
  check Alcotest.bool "verdicts ok" true
    (Response.ok (List.nth all_responses 0));
  check Alcotest.bool "error not ok" false
    (Response.ok (Response.error ~code:Response.Rejected "kernel said no"))

let error_code_strings () =
  List.iter
    (fun c ->
      match Response.(error_code_of_string (error_code_to_string c)) with
      | Some c' -> check Alcotest.bool "code roundtrip" true (c = c')
      | None -> Alcotest.failf "code %s did not parse back"
                  (Response.error_code_to_string c))
    Response.
      [
        Bad_request; Unknown_model; Unknown_test; Too_large; Rejected;
        Internal;
      ];
  check Alcotest.bool "unknown code" true
    (Response.error_code_of_string "flaky" = None);
  (* Every model certifies, so the code is retired. *)
  check Alcotest.bool "uncertifiable retired" true
    (Response.error_code_of_string "uncertifiable" = None)

let response_lines_are_single_lines () =
  List.iter
    (fun r ->
      let line = Wire.response_line r in
      check Alcotest.bool "newline-terminated" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      check Alcotest.bool "no interior newline" false
        (String.contains (String.sub line 0 (String.length line - 1)) '\n'))
    all_responses

(* ---------------- decoder ---------------- *)

module Ref_json = Smem_testlib.Ref_json

let json_t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (String.trim (Json.to_string v)))
    ( = )

let decoded = Alcotest.result json_t Alcotest.pass

(* Each escape of RFC 8259, and what is not one. *)
let escape_cases =
  [
    ({|"a\bb"|}, Some "a\bb");
    ({|"a\fb"|}, Some "a\012b");
    ({|"\"\\\/\n\r\t"|}, Some "\"\\/\n\r\t");
    ({|"caf\u00e9"|}, Some "caf\xc3\xa9");
    ({|"\u00C9\u20ac"|}, Some "\xc3\x89\xe2\x82\xac");
    ({|"A\u0000"|}, Some "A\000");
    ({|"\ud83d\ude00"|}, Some "\xf0\x9f\x98\x80");
    ({|"\x"|}, None);
    ({|"\u0_41"|}, None);
    ({|"\u+041"|}, None);
    ({|"\u004g"|}, None);
    ({|"\u004"|}, None);
    ({|"\ud83d"|}, None);
    ({|"\ud83dx"|}, None);
    ({|"\ud83d\u0041"|}, None);
    ({|"\ude00"|}, None);
    ({|"\|}, None);
  ]

let decoder_escapes () =
  List.iter
    (fun (text, want) ->
      match (Json.of_string text, want) with
      | Ok (Json.Str s), Some w -> check Alcotest.string text w s
      | Error _, None -> ()
      | Ok v, _ ->
          Alcotest.failf "%s decoded to %s" text (Json.to_string v)
      | Error e, Some _ -> Alcotest.failf "%s refused: %s" text e)
    escape_cases

(* The same escapes as a check's corpus test name, decoded by the wire
   codec as the server decodes a request line. *)
let decoder_escapes_on_the_wire () =
  List.iter
    (fun (text, want) ->
      let line =
        Printf.sprintf
          {|{"schema":"smem-api/2","version":2,"kind":"check","test":{"corpus":%s},"models":["sc"]}|}
          text
      in
      match (Wire.parse_request_line line, want) with
      | Ok (_, _, Request.Check { test = Request.Named n; _ }), Some w ->
          check Alcotest.string text w n
      | Error _, None -> ()
      | Ok _, _ -> Alcotest.failf "%s: request accepted" text
      | Error e, Some _ -> Alcotest.failf "%s: request refused: %s" text e)
    escape_cases

(* What the encoder writes did not change, and every string it writes
   decodes back. *)
let decoder_encoder_unchanged () =
  check Alcotest.string "escapes written"
    "\"\\u0008\\u000c\\n\\\"\\\\/\xc3\xa9\"\n"
    (Json.to_string (Json.Str "\b\012\n\"\\/\xc3\xa9"));
  let all_bytes = String.init 256 Char.chr in
  check decoded "every byte round-trips" (Ok (Json.Str all_bytes))
    (Json.of_string (Json.to_string (Json.Str all_bytes)))

let gen_json_string =
  let open QCheck.Gen in
  string_size (int_bound 8)
    ~gen:
      (oneofl
         [ 'a'; 'z'; ' '; '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\000';
           '\031'; '\127'; '\xc3'; '\xa9'; 'u'; '0' ])

let gen_json =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) (oneof [ small_signed_int; int ]);
               map (fun s -> Json.Str s) gen_json_string;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair gen_json_string (self (n / 3)))) );
             ])

(* Printed values, request lines and byte-level mutations of both. *)
let json_fragments =
  [|
    "\""; "\\"; "\\u"; "\\u00"; "\\u0041"; "\\n"; "\\\""; "{"; "}"; "[";
    "]"; ","; ":"; " "; "\t"; "-"; "+"; "0"; "9"; "99999999999999999999";
    "null"; "nul"; "true"; "fals"; "e"; "{\"k\":1}";
  |]

let gen_json_text =
  let open QCheck.Gen in
  let mutate text =
    let n = String.length text in
    let* i = int_bound (max 0 (n - 1)) in
    let* kind = int_bound 2 in
    let* frag = oneofa json_fragments in
    let i = min i n in
    let rest k = String.sub text (min (i + k) n) (n - min (i + k) n) in
    return
      (String.sub text 0 i
      ^ match kind with 0 -> rest 1 | 1 -> frag ^ rest 1 | _ -> frag ^ rest 0)
  in
  let* base =
    oneof
      [
        map (fun v -> String.trim (Json.to_string v)) gen_json;
        map
          (fun r -> Wire.request_line r)
          (oneofl all_requests);
      ]
  in
  let* k = int_bound 3 in
  let rec go k text = if k = 0 then return text else mutate text >>= go (k - 1) in
  go k base

(* Does [text] hold only the escapes both decoders read alike: a
   backslash before a quote, a backslash, a slash, n, r or t, and a
   u-escape below 0x80? *)
let old_escapes_only text =
  let n = String.length text in
  let hex c =
    match c with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
  in
  let rec go i =
    if i >= n - 1 then true
    else if text.[i] <> '\\' then go (i + 1)
    else
      match text.[i + 1] with
      | '"' | '\\' | '/' | 'n' | 'r' | 't' -> go (i + 2)
      | 'u' ->
          i + 5 < n
          && hex text.[i + 2] && hex text.[i + 3] && hex text.[i + 4]
          && hex text.[i + 5]
          && int_of_string ("0x" ^ String.sub text (i + 2) 4) < 0x80
          && go (i + 6)
      | _ -> false
  in
  go 0

let prop_decoder_reference =
  QCheck.Test.make ~name:"decoder = reference" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_json_text) (fun text ->
      (not (old_escapes_only text))
      || Json.of_string text = Ref_json.of_string text)

let () =
  Alcotest.run "api"
    [
      ( "verdict",
        [
          tc "status/bool" verdict_status_bool;
          tc "agrees" verdict_agrees;
          tc "json roundtrip" verdict_json_roundtrip;
        ] );
      ( "wire",
        [
          tc "request roundtrip" request_roundtrip;
          tc "schema checked" request_schema_checked;
          tc "versions agree" request_versions_agree;
          tc "garbage rejected" request_garbage_rejected;
          tc "malformed model references" request_malformed_refs;
          tc "response roundtrip" response_roundtrip;
          tc "v1 byte shape" response_v1_shape;
          tc "response ok" response_ok;
          tc "error codes" error_code_strings;
          tc "ndjson framing" response_lines_are_single_lines;
        ] );
      ( "decoder",
        [
          tc "RFC 8259 escapes" decoder_escapes;
          tc "escapes in a check's test name" decoder_escapes_on_the_wire;
          tc "encoder output unchanged" decoder_encoder_unchanged;
          QCheck_alcotest.to_alcotest prop_decoder_reference;
        ] );
    ]
