type t = { family : string; args : (string * string) list }

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':' || c = '|'

let trim = String.trim

(* A table and a loop of its own: the wire decoder checks every part of
   every structured reference, and [String.for_all] allocates a closure
   per call. *)
let name_chars = Array.init 256 (fun c -> is_name_char (Char.chr c))

let valid_name s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && name_chars.(Char.code (String.unsafe_get s !i)) do
    incr i
  done;
  n > 0 && !i = n

let parse s =
  let s = trim s in
  match String.index_opt s '(' with
  | None ->
      if valid_name s then Ok { family = s; args = [] }
      else Error (Printf.sprintf "invalid model reference %S" s)
  | Some lp ->
      if String.length s = 0 || s.[String.length s - 1] <> ')' then
        Error (Printf.sprintf "missing closing ')' in %S" s)
      else
        let family = trim (String.sub s 0 lp) in
        if not (valid_name family) then
          Error (Printf.sprintf "invalid family name in %S" s)
        else
          let body = String.sub s (lp + 1) (String.length s - lp - 2) in
          let parts =
            if trim body = "" then []
            else String.split_on_char ',' body
          in
          let parse_arg acc part =
            match acc with
            | Error _ as e -> e
            | Ok args -> (
                match String.index_opt part '=' with
                | None ->
                    let k = trim part in
                    if valid_name k then Ok ((k, "") :: args)
                    else Error (Printf.sprintf "invalid argument %S in %S" part s)
                | Some eq ->
                    let k = trim (String.sub part 0 eq) in
                    let v =
                      trim
                        (String.sub part (eq + 1)
                           (String.length part - eq - 1))
                    in
                    if valid_name k && (v = "" || valid_name v) then
                      Ok ((k, v) :: args)
                    else
                      Error
                        (Printf.sprintf "invalid argument %S in %S" part s))
          in
          Result.map List.rev (List.fold_left parse_arg (Ok []) parts)
          |> Result.map (fun args -> { family; args })

let to_string { family; args } =
  match args with
  | [] -> family
  | _ ->
      family ^ "("
      ^ String.concat ","
          (List.map (fun (k, v) -> if v = "" then k else k ^ "=" ^ v) args)
      ^ ")"

let nullary family = { family; args = [] }

let flag t name =
  match List.assoc_opt name t.args with
  | None -> Ok false
  | Some ("" | "true" | "1") -> Ok true
  | Some ("false" | "0") -> Ok false
  | Some v ->
      Error
        (Printf.sprintf "argument %s of %s must be a boolean, got %S" name
           t.family v)

let int_arg t name =
  match List.assoc_opt name t.args with
  | None -> Ok None
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok (Some i)
      | None ->
          Error
            (Printf.sprintf "argument %s of %s must be an integer, got %S"
               name t.family v))

let unknown_args t ~known =
  List.filter_map
    (fun (k, _) -> if List.mem k known then None else Some k)
    t.args
