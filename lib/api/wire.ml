module Json = Smem_obs.Json
module Model_ref = Smem_core.Model_ref

type proto = V1 | V2

let version = 2
let schema = "smem-api/2"
let schema_v1 = "smem-api/1"
let schema_of = function V1 -> schema_v1 | V2 -> schema
let version_of = function V1 -> 1 | V2 -> 2

let proto_of_schema = function
  | "smem-api/1" -> Ok V1
  | "smem-api/2" -> Ok V2
  | other ->
      Error
        (Printf.sprintf "unsupported schema %S (this server speaks %s and %s)"
           other schema_v1 schema)

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)

let source_to_json = function
  | Request.Named n -> Json.Obj [ ("corpus", Json.Str n) ]
  | Request.Inline text -> Json.Obj [ ("litmus", Json.Str text) ]

let source_of_json j =
  match (Json.member "corpus" j, Json.member "litmus" j) with
  | Some (Json.Str n), None -> Ok (Request.Named n)
  | None, Some (Json.Str text) -> Ok (Request.Inline text)
  | _ -> Error "test: expected {\"corpus\": name} or {\"litmus\": text}"

let scope_to_json (s : Request.scope) =
  Json.Obj
    [
      ("procs", Json.Arr (List.map (fun n -> Json.Int n) s.Request.procs));
      ("locs", Json.Int s.Request.nlocs);
      ("max_value", Json.Int s.Request.max_value);
      ("labeled", Json.Bool s.Request.labeled);
    ]

let scope_of_json j =
  let* procs =
    match Json.member "procs" j with
    | Some (Json.Arr items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match item with
            | Json.Int n -> Ok (n :: acc)
            | _ -> Error "scope: procs must be integers")
          items (Ok [])
    | _ -> Error "scope: missing procs array"
  in
  let int name default =
    match Json.member name j with Some (Json.Int n) -> n | _ -> default
  in
  let labeled =
    match Json.member "labeled" j with Some (Json.Bool b) -> b | _ -> false
  in
  Ok
    {
      Request.procs;
      nlocs = int "locs" 2;
      max_value = int "max_value" 1;
      labeled;
    }

(* ------------------------------------------------------------------ *)
(* Model references

   smem-api/1 carries model references as plain strings in the
   [Model_ref] grammar; smem-api/2 carries them structurally, one
   object per reference:

     {"family": "session", "args": [{"name": "ryw"},
                                    {"name": "mr", "value": "true"}]}

   with [args] omitted for nullary references.  Both parsers accept
   both spellings (the structured form is just the v2 spelling; a
   liberal reader costs nothing), and a structured reference is
   normalized through {!Model_ref.to_string} — the one place the
   grammar lives — so the rest of the stack only ever sees canonical
   strings. *)

let ref_to_json ~proto s =
  match proto with
  | V1 -> Json.Str s
  | V2 -> (
      match Model_ref.parse s with
      | Error _ -> Json.Str s
      | Ok r ->
          Json.Obj
            (("family", Json.Str r.Model_ref.family)
            ::
            (match r.Model_ref.args with
            | [] -> []
            | args ->
                [
                  ( "args",
                    Json.Arr
                      (List.map
                         (fun (name, value) ->
                           Json.Obj
                             (("name", Json.Str name)
                             ::
                             (if value = "" then []
                              else [ ("value", Json.Str value) ])))
                         args) );
                ])))

(* Each part of a structured reference must keep the grammar's name
   rule once trimmed, or its canonical string would read back
   differently ("ryw,mr" would print as two flags).  Such a reference
   names no model: [decode_request_line] answers [unknown-model]. *)
exception Bad_reference of string

let ref_name what s =
  if Model_ref.valid_name s then s
  else
    let t = String.trim s in
    if Model_ref.valid_name t then t
    else
      raise
        (Bad_reference
           (Printf.sprintf "model ref: %s %S is not a model name" what s))

(* A malformed reference, as against one that names no model
   ([Bad_reference]): the decoders below answer it with [Error]. *)
exception Malformed of string

(* Lists decode right to left, so the rightmost bad reference, or
   argument, decides the error. *)
let ref_of_json_exn = function
  | Json.Str s -> s
  | Json.Obj _ as j -> (
      match Json.member "family" j with
      | Some (Json.Str family) ->
          let family = ref_name "family" family in
          let rec args = function
            | [] -> []
            | item :: rest -> (
                let rest = args rest in
                match Json.member "name" item with
                | Some (Json.Str name) ->
                    let name = ref_name "argument name" name in
                    let value =
                      match Json.member "value" item with
                      | Some (Json.Str v) when String.trim v <> "" ->
                          ref_name "value" v
                      | _ -> ""
                    in
                    (name, value) :: rest
                | _ -> raise (Malformed "model ref: argument without a name"))
          in
          let args =
            match Json.member "args" j with
            | None -> []
            | Some (Json.Arr items) -> args items
            | Some _ -> raise (Malformed "model ref: args must be an array")
          in
          (match args with
          | [] -> family
          | args -> Model_ref.to_string { Model_ref.family; args })
      | _ -> raise (Malformed "model ref: expected a string or {family, args}"))
  | _ -> raise (Malformed "model ref: expected a string or {family, args}")

let ref_of_json j = try Ok (ref_of_json_exn j) with Malformed m -> Error m

let refs_of_json what = function
  | None -> Ok []
  | Some (Json.Arr items) -> (
      let rec refs = function
        | [] -> []
        | item :: rest ->
            let rest = refs rest in
            ref_of_json_exn item :: rest
      in
      try Ok (refs items) with Malformed m -> Error m)
  | Some _ -> Error (what ^ ": expected an array")

let scopes_of_json = function
  | None -> Ok []
  | Some (Json.Arr items) ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let* s = scope_of_json item in
          Ok (s :: acc))
        items (Ok [])
  | Some _ -> Error "scopes: expected an array"

let models_field ~proto models =
  ("models", Json.Arr (List.map (ref_to_json ~proto) models))
let scopes_field scopes = ("scopes", Json.Arr (List.map scope_to_json scopes))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let request_to_json ?(proto = V2) ?id r =
  let header =
    [ ("schema", Json.Str (schema_of proto)) ]
    @ (match proto with
      | V1 -> []
      | V2 -> [ ("version", Json.Int (version_of proto)) ])
    @ (match id with None -> [] | Some id -> [ ("id", Json.Int id) ])
    @ [ ("kind", Json.Str (Request.kind r)) ]
  in
  Json.Obj
    (header
    @
    match r with
    | Request.Check { test; models } ->
        [ ("test", source_to_json test); models_field ~proto models ]
    | Request.Corpus { models } -> [ models_field ~proto models ]
    | Request.Classify { models; scopes } ->
        [ models_field ~proto models; scopes_field scopes ]
    | Request.Distinguish { a; b; scopes } ->
        [
          ("a", ref_to_json ~proto a);
          ("b", ref_to_json ~proto b);
          scopes_field scopes;
        ]
    | Request.Certify { test; model; format } ->
        [
          ("test", source_to_json test);
          ("model", ref_to_json ~proto model);
          ( "format",
            Json.Str (match format with `Sexp -> "sexp" | `Json -> "json") );
        ]
    | Request.Models -> [])

(* A missing [schema] means a v1 client from before the field was
   mandatory; an explicit [version] must agree with the schema. *)
let proto_of_json j =
  let* proto =
    match Json.member "schema" j with
    | None -> Ok V1
    | Some (Json.Str s) -> proto_of_schema s
    | Some _ -> Error "schema: expected a string"
  in
  match Json.member "version" j with
  | None -> Ok proto
  | Some (Json.Int n) when n = version_of proto -> Ok proto
  | Some (Json.Int n) ->
      Error
        (Printf.sprintf "version %d does not match schema %s" n
           (schema_of proto))
  | Some _ -> Error "version: expected an integer"

(* Raises [Bad_reference]. *)
let decode_request j =
  let* proto = proto_of_json j in
  let id =
    match Json.member "id" j with Some (Json.Int n) -> Some n | _ -> None
  in
  let str name =
    match Json.member name j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" name)
  in
  let ref_field name =
    match Json.member name j with
    | Some r -> ref_of_json r
    | None -> Error (Printf.sprintf "missing model reference %S" name)
  in
  let source () =
    match Json.member "test" j with
    | Some t -> source_of_json t
    | None -> Error "missing \"test\" field"
  in
  let* kind = str "kind" in
  let* req =
    match kind with
    | "check" ->
        let* test = source () in
        let* models = refs_of_json "models" (Json.member "models" j) in
        Ok (Request.Check { test; models })
    | "corpus" ->
        let* models = refs_of_json "models" (Json.member "models" j) in
        Ok (Request.Corpus { models })
    | "classify" ->
        let* models = refs_of_json "models" (Json.member "models" j) in
        let* scopes = scopes_of_json (Json.member "scopes" j) in
        Ok (Request.Classify { models; scopes })
    | "distinguish" ->
        let* a = ref_field "a" in
        let* b = ref_field "b" in
        let* scopes = scopes_of_json (Json.member "scopes" j) in
        Ok (Request.Distinguish { a; b; scopes })
    | "certify" ->
        let* test = source () in
        let* model = ref_field "model" in
        let* format =
          match Json.member "format" j with
          | None | Some (Json.Str "sexp") -> Ok `Sexp
          | Some (Json.Str "json") -> Ok `Json
          | Some _ -> Error "format: expected \"sexp\" or \"json\""
        in
        Ok (Request.Certify { test; model; format })
    | "models" -> Ok Request.Models
    | other -> Error (Printf.sprintf "unknown request kind %S" other)
  in
  Ok (id, proto, req)

let request_of_json j =
  try decode_request j with Bad_reference message -> Error message

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let payload_to_json = function
  | Response.Verdicts vs ->
      Json.Obj [ ("verdicts", Json.Arr (List.map Verdict.to_json vs)) ]
  | Response.Classification { total; allowed; relations; hasse } ->
      Json.Obj
        [
          ("total", Json.Int total);
          ( "allowed",
            Json.Arr
              (List.map
                 (fun (m, n) ->
                   Json.Obj [ ("model", Json.Str m); ("count", Json.Int n) ])
                 allowed) );
          ( "relations",
            Json.Arr
              (List.map
                 (fun (a, b, rel) ->
                   Json.Obj
                     [
                       ("a", Json.Str a);
                       ("b", Json.Str b);
                       ("relation", Json.Str rel);
                     ])
                 relations) );
          ( "hasse",
            Json.Arr
              (List.map
                 (fun (s, w) ->
                   Json.Obj
                     [ ("stronger", Json.Str s); ("weaker", Json.Str w) ])
                 hasse) );
        ]
  | Response.Distinction { relation; witnesses } ->
      Json.Obj
        [
          ("relation", Json.Str relation);
          ( "witnesses",
            Json.Arr
              (List.map
                 (fun (role, litmus) ->
                   Json.Obj
                     [ ("role", Json.Str role); ("litmus", Json.Str litmus) ])
                 witnesses) );
        ]
  | Response.Certificate { format; body } ->
      Json.Obj [ ("format", Json.Str format); ("body", Json.Str body) ]
  | Response.Catalogue { models; families } ->
      let rows kvs =
        Json.Arr
          (List.map
             (fun (name, value) ->
               Json.Obj [ ("name", Json.Str name); ("value", Json.Str value) ])
             kvs)
      in
      Json.Obj
        [
          ( "models",
            Json.Arr
              (List.map
                 (fun (m : Response.model_info) ->
                   Json.Obj
                     [
                       ("key", Json.Str m.Response.key);
                       ("name", Json.Str m.Response.name);
                       ("description", Json.Str m.Response.description);
                       ("params", rows m.Response.params);
                     ])
                 models) );
          ( "families",
            Json.Arr
              (List.map
                 (fun (f : Response.family_info) ->
                   Json.Obj
                     [
                       ("family", Json.Str f.Response.family);
                       ("doc", Json.Str f.Response.doc);
                       ( "params",
                         Json.Arr
                           (List.map
                              (fun (name, doc) ->
                                Json.Obj
                                  [
                                    ("name", Json.Str name);
                                    ("doc", Json.Str doc);
                                  ])
                              f.Response.params) );
                     ])
                 families) );
        ]
  | Response.Error { code; message } ->
      Json.Obj
        [
          ("error", Json.Str (Response.error_code_to_string code));
          ("message", Json.Str message);
        ]

let response_to_json ?(proto = V2) (t : Response.t) =
  Json.Obj
    (("schema", Json.Str (schema_of proto))
    :: (match proto with
       | V1 -> []
       | V2 -> [ ("version", Json.Int (version_of proto)) ])
    @ [
        ( "id",
          match t.Response.id with Some n -> Json.Int n | None -> Json.Null );
        ("kind", Json.Str t.Response.kind);
        ("ok", Json.Bool (Response.ok t));
        ("cached", Json.Int t.Response.cached);
        ("computed", Json.Int t.Response.computed);
        ("elapsed_ns", Json.Int t.Response.elapsed_ns);
        ("payload", payload_to_json t.Response.payload);
      ])

let kv_rows what = function
  | Some (Json.Arr items) ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          match (Json.member "name" item, Json.member "value" item) with
          | Some (Json.Str n), Some (Json.Str v) -> Ok ((n, v) :: acc)
          | _ -> Error (what ^ ": expected {name, value}"))
        items (Ok [])
  | _ -> Error ("payload: missing " ^ what ^ " array")

let payload_of_json ~kind j =
  match Json.member "error" j with
  | Some (Json.Str code) ->
      let* code =
        match Response.error_code_of_string code with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown error code %S" code)
      in
      let message =
        match Json.member "message" j with Some (Json.Str m) -> m | _ -> ""
      in
      Ok (Response.Error { code; message })
  | Some _ -> Error "error: expected a string code"
  | None -> (
      match kind with
      | "check" | "corpus" -> (
          match Json.member "verdicts" j with
          | Some (Json.Arr items) ->
              let* vs =
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    let* v = Verdict.of_json item in
                    Ok (v :: acc))
                  items (Ok [])
              in
              Ok (Response.Verdicts vs)
          | _ -> Error "payload: missing verdicts array")
      | "classify" ->
          let total =
            match Json.member "total" j with Some (Json.Int n) -> n | _ -> 0
          in
          let* allowed =
            match Json.member "allowed" j with
            | Some (Json.Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match
                      (Json.member "model" item, Json.member "count" item)
                    with
                    | Some (Json.Str m), Some (Json.Int n) -> Ok ((m, n) :: acc)
                    | _ -> Error "allowed: expected {model, count}")
                  items (Ok [])
            | _ -> Error "payload: missing allowed array"
          in
          let* relations =
            match Json.member "relations" j with
            | Some (Json.Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match
                      ( Json.member "a" item,
                        Json.member "b" item,
                        Json.member "relation" item )
                    with
                    | Some (Json.Str a), Some (Json.Str b), Some (Json.Str r)
                      ->
                        Ok ((a, b, r) :: acc)
                    | _ -> Error "relations: expected {a, b, relation}")
                  items (Ok [])
            | _ -> Error "payload: missing relations array"
          in
          let* hasse =
            match Json.member "hasse" j with
            | Some (Json.Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match
                      (Json.member "stronger" item, Json.member "weaker" item)
                    with
                    | Some (Json.Str s), Some (Json.Str w) ->
                        Ok ((s, w) :: acc)
                    | _ -> Error "hasse: expected {stronger, weaker}")
                  items (Ok [])
            | _ -> Error "payload: missing hasse array"
          in
          Ok (Response.Classification { total; allowed; relations; hasse })
      | "distinguish" ->
          let* relation =
            match Json.member "relation" j with
            | Some (Json.Str r) -> Ok r
            | _ -> Error "payload: missing relation"
          in
          let* witnesses =
            match Json.member "witnesses" j with
            | Some (Json.Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match
                      (Json.member "role" item, Json.member "litmus" item)
                    with
                    | Some (Json.Str role), Some (Json.Str text) ->
                        Ok ((role, text) :: acc)
                    | _ -> Error "witnesses: expected {role, litmus}")
                  items (Ok [])
            | _ -> Error "payload: missing witnesses array"
          in
          Ok (Response.Distinction { relation; witnesses })
      | "certify" -> (
          match (Json.member "format" j, Json.member "body" j) with
          | Some (Json.Str format), Some (Json.Str body) ->
              Ok (Response.Certificate { format; body })
          | _ -> Error "payload: expected {format, body}")
      | "models" ->
          let* models =
            match Json.member "models" j with
            | Some (Json.Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match
                      ( Json.member "key" item,
                        Json.member "name" item,
                        Json.member "description" item )
                    with
                    | Some (Json.Str key), Some (Json.Str name),
                      Some (Json.Str description) ->
                        let* params =
                          kv_rows "params" (Json.member "params" item)
                        in
                        Ok
                          ({ Response.key; name; description; params } :: acc)
                    | _ -> Error "models: expected {key, name, description}")
                  items (Ok [])
            | _ -> Error "payload: missing models array"
          in
          let* families =
            match Json.member "families" j with
            | Some (Json.Arr items) ->
                List.fold_right
                  (fun item acc ->
                    let* acc = acc in
                    match
                      (Json.member "family" item, Json.member "doc" item)
                    with
                    | Some (Json.Str family), Some (Json.Str doc) ->
                        let* params =
                          match Json.member "params" item with
                          | Some (Json.Arr ps) ->
                              List.fold_right
                                (fun p acc ->
                                  let* acc = acc in
                                  match
                                    ( Json.member "name" p,
                                      Json.member "doc" p )
                                  with
                                  | Some (Json.Str n), Some (Json.Str d) ->
                                      Ok ((n, d) :: acc)
                                  | _ ->
                                      Error
                                        "family params: expected {name, doc}")
                                ps (Ok [])
                          | _ -> Ok []
                        in
                        Ok ({ Response.family; doc; params } :: acc)
                    | _ -> Error "families: expected {family, doc}")
                  items (Ok [])
            | _ -> Error "payload: missing families array"
          in
          Ok (Response.Catalogue { models; families })
      | other -> Error (Printf.sprintf "unknown response kind %S" other))

let response_of_json j =
  let* _proto = proto_of_json j in
  let id =
    match Json.member "id" j with Some (Json.Int n) -> Some n | _ -> None
  in
  let* kind =
    match Json.member "kind" j with
    | Some (Json.Str k) -> Ok k
    | _ -> Error "missing kind"
  in
  let int name =
    match Json.member name j with Some (Json.Int n) -> n | _ -> 0
  in
  let* payload =
    match Json.member "payload" j with
    | Some p -> payload_of_json ~kind p
    | None -> Error "missing payload"
  in
  Ok
    {
      Response.id;
      kind;
      cached = int "cached";
      computed = int "computed";
      elapsed_ns = int "elapsed_ns";
      payload;
    }

(* ------------------------------------------------------------------ *)
(* Line framing ({!Smem_obs.Json.to_string} is newline-terminated)     *)

let request_line ?proto ?id r = Json.to_string (request_to_json ?proto ?id r)
let response_line ?proto t = Json.to_string (response_to_json ?proto t)

let parse_line of_json line =
  match Json.of_string line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> of_json j

type rejection = {
  proto : proto option;
  id : int option;
  kind : string option;
  code : Response.error_code;
  message : string;
}

(* What a rejected line revealed before its fault: the version once
   its schema and version decode, then its id and a known kind. *)
let rejection j code message =
  match Option.map proto_of_json j with
  | None | Some (Error _) ->
      { proto = None; id = None; kind = None; code; message }
  | Some (Ok proto) ->
      let j = Option.get j in
      let id =
        match Json.member "id" j with Some (Json.Int n) -> Some n | _ -> None
      in
      let kind =
        match Json.member "kind" j with
        | Some (Json.Str k) when List.mem k Request.kinds -> Some k
        | _ -> None
      in
      { proto = Some proto; id; kind; code; message }

let decode_request_line line =
  match Json.of_string line with
  | Error e -> Error (rejection None Response.Bad_request ("invalid JSON: " ^ e))
  | Ok j -> (
      match decode_request j with
      | Ok _ as ok -> ok
      | Error message -> Error (rejection (Some j) Response.Bad_request message)
      | exception Bad_reference message ->
          Error (rejection (Some j) Response.Unknown_model message))

let parse_request_line line =
  Result.map_error (fun r -> r.message) (decode_request_line line)
let parse_response_line line = parse_line response_of_json line
