open Smem_core
module Json = Smem_obs.Json

type row_op = {
  kind : Op.kind;
  loc : string;
  value : int;
  labeled : bool;
  at : (int * int) option;
}

type verdict = Smem_api.Verdict.status = Allowed | Forbidden

type evidence =
  | Witness of {
      views : (int * int list) list;
      rf : (int * int) list;
      sync : int list option;
      notes : string list;
    }
  | Frontier of { rf_maps : int; co_orders : int }

type t = {
  version : int;
  model : string;
  test : string option;
  rows : row_op list list;
  verdict : verdict;
  evidence : evidence;
}

let version = 1

(* ------------------------------------------------------------------ *)
(* History reconstruction                                             *)

let history c =
  let event r =
    let mk =
      match r.kind with Op.Read -> History.read | Op.Write -> History.write
    in
    match r.at with
    | Some at -> mk ~labeled:r.labeled ~at r.loc r.value
    | None -> mk ~labeled:r.labeled r.loc r.value
  in
  History.make (List.map (List.map event) c.rows)

(* ------------------------------------------------------------------ *)
(* Emission                                                           *)

let rows_of_history h =
  List.init (History.nprocs h) (fun p ->
      History.proc_ops h p |> Array.to_list
      |> List.map (fun id ->
             let o = History.op h id in
             {
               kind = o.Op.kind;
               loc = History.loc_name h o.Op.loc;
               value = o.Op.value;
               labeled = Op.is_labeled o;
               at = History.interval h id;
             }))

(* Certificates number operations proc-major (row by row), matching the
   ids {!history} reassigns on reconstruction.  Histories recorded by
   the machine simulators interleave ids across processors, so witness
   evidence is remapped through this table on emission. *)
let remap_table h =
  let nprocs = History.nprocs h in
  let offsets = Array.make nprocs 0 in
  for p = 1 to nprocs - 1 do
    offsets.(p) <- offsets.(p - 1) + Array.length (History.proc_ops h (p - 1))
  done;
  fun id ->
    if id = History.init then History.init
    else
      let o = History.op h id in
      offsets.(o.Op.proc) + o.Op.index

let certify (m : Model.t) ?name (h : History.t) =
  match m.Model.params with
  | None -> None
  | Some _ ->
      let rows = rows_of_history h in
      let evidence =
        match Model.witness_of m h with
        | Some w ->
            let f = remap_table h in
            Witness
              {
                views =
                  List.map
                    (fun (p, seq) -> (p, List.map f seq))
                    w.Smem_core.Witness.views;
                rf =
                  List.map
                    (fun (r, wr) -> (f r, f wr))
                    w.Smem_core.Witness.rf;
                sync = Option.map (List.map f) w.Smem_core.Witness.sync;
                notes = w.Smem_core.Witness.notes ();
              }
        | None ->
            let rf_maps, co_orders = Diagnose.candidate_space h in
            Frontier { rf_maps; co_orders }
      in
      let verdict =
        match evidence with Witness _ -> Allowed | Frontier _ -> Forbidden
      in
      Some { version; model = m.Model.key; test = name; rows; verdict; evidence }

(* ------------------------------------------------------------------ *)
(* S-expression form                                                  *)

let op_to_sexp r =
  let kw =
    (match r.kind with Op.Read -> "r" | Op.Write -> "w")
    ^ if r.labeled then "*" else ""
  in
  let base = [ Sexp.atom kw; Sexp.atom r.loc; Sexp.int r.value ] in
  let at =
    match r.at with
    | None -> []
    | Some (a, b) -> [ Sexp.list [ Sexp.atom "at"; Sexp.int a; Sexp.int b ] ]
  in
  Sexp.list (base @ at)

let evidence_to_sexp = function
  | Witness { views; rf; sync; notes } ->
      let view_s (p, seq) =
        Sexp.list
          [ Sexp.atom "view"; Sexp.int p; Sexp.list (List.map Sexp.int seq) ]
      in
      let pair_s (a, b) = Sexp.list [ Sexp.int a; Sexp.int b ] in
      List.concat
        [
          [ Sexp.list (Sexp.atom "views" :: List.map view_s views) ];
          [ Sexp.list (Sexp.atom "rf" :: List.map pair_s rf) ];
          (match sync with
          | None -> []
          | Some s -> [ Sexp.list (Sexp.atom "sync" :: List.map Sexp.int s) ]);
          [ Sexp.list (Sexp.atom "notes" :: List.map Sexp.atom notes) ];
        ]
  | Frontier { rf_maps; co_orders } ->
      [
        Sexp.list
          [
            Sexp.atom "frontier";
            Sexp.list [ Sexp.atom "rf-maps"; Sexp.int rf_maps ];
            Sexp.list [ Sexp.atom "co-orders"; Sexp.int co_orders ];
          ];
      ]

let to_sexp c =
  Sexp.list
    (List.concat
       [
         [ Sexp.atom "certificate" ];
         [ Sexp.list [ Sexp.atom "version"; Sexp.int c.version ] ];
         [ Sexp.list [ Sexp.atom "model"; Sexp.atom c.model ] ];
         (match c.test with
         | None -> []
         | Some t -> [ Sexp.list [ Sexp.atom "test"; Sexp.atom t ] ]);
         [
           Sexp.list
             (Sexp.atom "history"
             :: List.map
                  (fun row -> Sexp.list (Sexp.atom "proc" :: List.map op_to_sexp row))
                  c.rows);
         ];
         [
           Sexp.list
             [
               Sexp.atom "verdict";
               Sexp.atom
                 (match c.verdict with
                 | Allowed -> "allowed"
                 | Forbidden -> "forbidden");
             ];
         ];
         [ Sexp.list (Sexp.atom "evidence" :: evidence_to_sexp c.evidence) ];
       ])

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let field name items =
  List.find_map
    (function
      | Sexp.List (Sexp.Atom a :: rest) when a = name -> Some rest | _ -> None)
    items

let req_field name items =
  match field name items with
  | Some rest -> rest
  | None -> malformed "missing (%s ...)" name

let int_exn what s =
  match Sexp.to_int s with
  | Some n -> n
  | None -> malformed "expected integer in %s" what

let op_of_sexp = function
  | Sexp.List (Sexp.Atom kw :: Sexp.Atom loc :: v :: rest) ->
      let kind, labeled =
        match kw with
        | "r" -> (Op.Read, false)
        | "r*" -> (Op.Read, true)
        | "w" -> (Op.Write, false)
        | "w*" -> (Op.Write, true)
        | _ -> malformed "unknown operation %S" kw
      in
      let at =
        match rest with
        | [] -> None
        | [ Sexp.List [ Sexp.Atom "at"; a; b ] ] ->
            Some (int_exn "at" a, int_exn "at" b)
        | _ -> malformed "malformed operation tail"
      in
      { kind; loc; value = int_exn "operation value" v; labeled; at }
  | _ -> malformed "malformed operation"

let evidence_of_sexp ~verdict items =
  match verdict with
  | Allowed ->
      let views =
        req_field "views" items
        |> List.map (function
             | Sexp.List [ Sexp.Atom "view"; p; Sexp.List seq ] ->
                 (int_exn "view proc" p, List.map (int_exn "view") seq)
             | _ -> malformed "malformed view")
      in
      let rf =
        req_field "rf" items
        |> List.map (function
             | Sexp.List [ a; b ] -> (int_exn "rf" a, int_exn "rf" b)
             | _ -> malformed "malformed rf pair")
      in
      let sync =
        Option.map (List.map (int_exn "sync")) (field "sync" items)
      in
      let notes =
        req_field "notes" items
        |> List.map (function
             | Sexp.Atom s -> s
             | _ -> malformed "malformed note")
      in
      Witness { views; rf; sync; notes }
  | Forbidden ->
      let f = req_field "frontier" items in
      let one name =
        match req_field name f with
        | [ n ] -> int_exn name n
        | _ -> malformed "malformed (%s ...)" name
      in
      Frontier { rf_maps = one "rf-maps"; co_orders = one "co-orders" }

let of_sexp_exn = function
  | Sexp.List (Sexp.Atom "certificate" :: items) ->
      let version =
        match req_field "version" items with
        | [ v ] -> int_exn "version" v
        | _ -> malformed "malformed (version ...)"
      in
      let model =
        match req_field "model" items with
        | [ Sexp.Atom m ] -> m
        | _ -> malformed "malformed (model ...)"
      in
      let test =
        match field "test" items with
        | Some [ Sexp.Atom t ] -> Some t
        | Some _ -> malformed "malformed (test ...)"
        | None -> None
      in
      let rows =
        req_field "history" items
        |> List.map (function
             | Sexp.List (Sexp.Atom "proc" :: ops) -> List.map op_of_sexp ops
             | _ -> malformed "malformed (proc ...)")
      in
      let verdict =
        match req_field "verdict" items with
        | [ Sexp.Atom "allowed" ] -> Allowed
        | [ Sexp.Atom "forbidden" ] -> Forbidden
        | _ -> malformed "malformed (verdict ...)"
      in
      let evidence = evidence_of_sexp ~verdict (req_field "evidence" items) in
      { version; model; test; rows; verdict; evidence }
  | _ -> malformed "not a (certificate ...)"

let of_sexp s =
  match of_sexp_exn s with
  | c -> Ok c
  | exception Malformed msg -> Error msg

(* ------------------------------------------------------------------ *)
(* JSON form                                                          *)

let op_to_json r =
  Json.Obj
    (List.concat
       [
         [
           ("kind", Json.Str (match r.kind with Op.Read -> "r" | Op.Write -> "w"));
           ("loc", Json.Str r.loc);
           ("value", Json.Int r.value);
           ("labeled", Json.Bool r.labeled);
         ];
         (match r.at with
         | None -> []
         | Some (a, b) -> [ ("at", Json.Arr [ Json.Int a; Json.Int b ]) ]);
       ])

let evidence_to_json = function
  | Witness { views; rf; sync; notes } ->
      Json.Obj
        [
          ( "views",
            Json.Arr
              (List.map
                 (fun (p, seq) ->
                   Json.Obj
                     [
                       ("proc", Json.Int p);
                       ("seq", Json.Arr (List.map (fun i -> Json.Int i) seq));
                     ])
                 views) );
          ( "rf",
            Json.Arr
              (List.map (fun (a, b) -> Json.Arr [ Json.Int a; Json.Int b ]) rf)
          );
          ( "sync",
            match sync with
            | None -> Json.Null
            | Some s -> Json.Arr (List.map (fun i -> Json.Int i) s) );
          ("notes", Json.Arr (List.map (fun n -> Json.Str n) notes));
        ]
  | Frontier { rf_maps; co_orders } ->
      Json.Obj [ ("rf_maps", Json.Int rf_maps); ("co_orders", Json.Int co_orders) ]

let to_json c =
  Json.Obj
    (List.concat
       [
         [ ("version", Json.Int c.version); ("model", Json.Str c.model) ];
         (match c.test with
         | None -> []
         | Some t -> [ ("test", Json.Str t) ]);
         [
           ( "history",
             Json.Arr
               (List.map (fun row -> Json.Arr (List.map op_to_json row)) c.rows)
           );
           ( "verdict",
             Json.Str
               (match c.verdict with
               | Allowed -> "allowed"
               | Forbidden -> "forbidden") );
           ("evidence", evidence_to_json c.evidence);
         ];
       ])

let jfield what name obj =
  match Json.member name obj with
  | Some v -> v
  | None -> malformed "missing %S in %s" name what

let jint what = function
  | Json.Int n -> n
  | _ -> malformed "expected integer in %s" what

let jstr what = function
  | Json.Str s -> s
  | _ -> malformed "expected string in %s" what

let jarr what = function
  | Json.Arr items -> items
  | _ -> malformed "expected array in %s" what

let op_of_json j =
  let kind, labeled =
    let k = jstr "kind" (jfield "operation" "kind" j) in
    let labeled =
      match Json.member "labeled" j with
      | Some (Json.Bool b) -> b
      | Some _ -> malformed "expected boolean in labeled"
      | None -> false
    in
    match k with
    | "r" -> (Op.Read, labeled)
    | "w" -> (Op.Write, labeled)
    | _ -> malformed "unknown operation kind %S" k
  in
  let at =
    match Json.member "at" j with
    | None | Some Json.Null -> None
    | Some (Json.Arr [ a; b ]) -> Some (jint "at" a, jint "at" b)
    | Some _ -> malformed "malformed at"
  in
  {
    kind;
    loc = jstr "loc" (jfield "operation" "loc" j);
    value = jint "value" (jfield "operation" "value" j);
    labeled;
    at;
  }

let evidence_of_json ~verdict j =
  match verdict with
  | Allowed ->
      let views =
        jarr "views" (jfield "evidence" "views" j)
        |> List.map (fun v ->
               ( jint "proc" (jfield "view" "proc" v),
                 List.map (jint "seq") (jarr "seq" (jfield "view" "seq" v)) ))
      in
      let rf =
        jarr "rf" (jfield "evidence" "rf" j)
        |> List.map (function
             | Json.Arr [ a; b ] -> (jint "rf" a, jint "rf" b)
             | _ -> malformed "malformed rf pair")
      in
      let sync =
        match Json.member "sync" j with
        | None | Some Json.Null -> None
        | Some v -> Some (List.map (jint "sync") (jarr "sync" v))
      in
      let notes =
        jarr "notes" (jfield "evidence" "notes" j) |> List.map (jstr "note")
      in
      Witness { views; rf; sync; notes }
  | Forbidden ->
      Frontier
        {
          rf_maps = jint "rf_maps" (jfield "evidence" "rf_maps" j);
          co_orders = jint "co_orders" (jfield "evidence" "co_orders" j);
        }

let of_json_exn j =
  let verdict =
    match jstr "verdict" (jfield "certificate" "verdict" j) with
    | "allowed" -> Allowed
    | "forbidden" -> Forbidden
    | v -> malformed "unknown verdict %S" v
  in
  {
    version = jint "version" (jfield "certificate" "version" j);
    model = jstr "model" (jfield "certificate" "model" j);
    test =
      (match Json.member "test" j with
      | None | Some Json.Null -> None
      | Some v -> Some (jstr "test" v));
    rows =
      jarr "history" (jfield "certificate" "history" j)
      |> List.map (fun row -> List.map op_of_json (jarr "proc row" row));
    verdict;
    evidence = evidence_of_json ~verdict (jfield "certificate" "evidence" j);
  }

let of_json j =
  match of_json_exn j with
  | c -> Ok c
  | exception Malformed msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Front door                                                         *)

type format = [ `Sexp | `Json ]

let to_string ?(format = `Sexp) c =
  match format with
  | `Sexp -> Sexp.to_string (to_sexp c)
  | `Json -> Json.to_string (to_json c)

let parse s =
  let rec first_nonblank i =
    if i >= String.length s then None
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_nonblank (i + 1)
      | c -> Some c
  in
  match first_nonblank 0 with
  | Some '{' -> Result.bind (Json.of_string s) of_json
  | Some _ -> Result.bind (Sexp.of_string s) of_sexp
  | None -> Error "empty input"

let pp ppf c = Format.pp_print_string ppf (to_string c)
