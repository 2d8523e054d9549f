type status = Allowed | Forbidden

type t = {
  subject : string;
  authority : string;
  question : string;
  status : status option;
  expected : status option;
  cached : bool;
  states : int option;
  notes : string list;
}

let v ?(question = "membership") ?expected ?(cached = false) ?states
    ?(notes = []) ~subject ~authority status =
  { subject; authority; question; status; expected; cached; states; notes }

let status_of_bool b = if b then Allowed else Forbidden
let bool_of_status = function Allowed -> true | Forbidden -> false

let agrees t =
  match (t.expected, t.status) with
  | None, _ -> true
  | Some e, Some got -> e = got
  | Some _, None -> false

let pp_status ppf = function
  | Allowed -> Format.pp_print_string ppf "allowed"
  | Forbidden -> Format.pp_print_string ppf "forbidden"

let pp_status_opt ppf = function
  | Some s -> pp_status ppf s
  | None -> Format.pp_print_string ppf "undecided"

let pp ppf t =
  Format.fprintf ppf "%-16s %-10s %a%s" t.subject t.authority pp_status_opt
    t.status
    (match t.expected with
    | Some e when Some e <> t.status ->
        Format.asprintf "  (MISMATCH: expected %a)" pp_status e
    | _ -> "")

(* The subject × authority table that [smem corpus] prints. *)
let pp_matrix ppf verdicts =
  let dedupe key xs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        let k = key x in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      xs
  in
  let subjects = dedupe (fun v -> v.subject) verdicts in
  let authorities = dedupe (fun v -> v.authority) verdicts in
  let by_cell = Hashtbl.create (List.length verdicts) in
  List.iter
    (fun v -> Hashtbl.replace by_cell (v.subject, v.authority) v)
    verdicts;
  let render v =
    let mark =
      match (v.expected, v.status) with
      | Some e, Some got when e <> got -> "!"
      | Some _, _ -> ""
      | None, _ -> " "
    in
    (match v.status with
    | Some Allowed -> "yes"
    | Some Forbidden -> "no"
    | None -> "?")
    ^ mark
  in
  Format.fprintf ppf "%-16s" "test";
  List.iter (fun v -> Format.fprintf ppf " %-10s" v.authority) authorities;
  Format.fprintf ppf "@.";
  List.iter
    (fun sv ->
      Format.fprintf ppf "%-16s" sv.subject;
      List.iter
        (fun av ->
          let s =
            match Hashtbl.find_opt by_cell (sv.subject, av.authority) with
            | Some v -> render v
            | None -> "-"
          in
          Format.fprintf ppf " %-10s" s)
        authorities;
      Format.fprintf ppf "@.")
    subjects

(* ------------------------------------------------------------------ *)
(* JSON form (wire schema smem-api/1; see docs/API.md)                 *)

module Json = Smem_obs.Json

let status_to_json = function
  | Allowed -> Json.Str "allowed"
  | Forbidden -> Json.Str "forbidden"

let to_json t =
  Json.Obj
    (List.concat
       [
         [
           ("subject", Json.Str t.subject);
           ("authority", Json.Str t.authority);
           ("question", Json.Str t.question);
           ( "status",
             match t.status with Some s -> status_to_json s | None -> Json.Null
           );
         ];
         (match t.expected with
         | None -> []
         | Some e -> [ ("expected", status_to_json e) ]);
         [ ("cached", Json.Bool t.cached) ];
         (match t.states with
         | None -> []
         | Some n -> [ ("states", Json.Int n) ]);
         (match t.notes with
         | [] -> []
         | notes ->
             [ ("notes", Json.Arr (List.map (fun n -> Json.Str n) notes)) ]);
       ])

let status_of_json = function
  | Json.Str "allowed" -> Ok Allowed
  | Json.Str "forbidden" -> Ok Forbidden
  | _ -> Error "expected \"allowed\" or \"forbidden\""

let of_json j =
  let str name =
    match Json.member name j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "verdict: missing string %S" name)
  in
  let ( let* ) = Result.bind in
  let* subject = str "subject" in
  let* authority = str "authority" in
  let* question = str "question" in
  let* status =
    match Json.member "status" j with
    | None | Some Json.Null -> Ok None
    | Some s -> Result.map Option.some (status_of_json s)
  in
  let* expected =
    match Json.member "expected" j with
    | None | Some Json.Null -> Ok None
    | Some s -> Result.map Option.some (status_of_json s)
  in
  let cached =
    match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false
  in
  let states =
    match Json.member "states" j with Some (Json.Int n) -> Some n | _ -> None
  in
  let* notes =
    match Json.member "notes" j with
    | None -> Ok []
    | Some (Json.Arr items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match item with
            | Json.Str s -> Ok (s :: acc)
            | _ -> Error "verdict: notes must be strings")
          items (Ok [])
    | Some _ -> Error "verdict: notes must be an array"
  in
  Ok { subject; authority; question; status; expected; cached; states; notes }
