(* The JSON decoder before it read tokens in place: a Buffer per
   string, a String.sub per literal and number, and escapes decoded as
   they were then ([\b], [\f] and any unknown escape as the letter
   itself, [\u] only below 0x80, its digits read by int_of_string).
   Kept as the differential reference of Smem_obs.Json.of_string
   (test_api's "decoder" group): on every input it accepts whose
   strings use none of those escapes, the new decoder must return the
   same value. *)

module Json = Smem_obs.Json
open Json

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_token () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then fail "dangling escape"
            else begin
              (match s.[!pos + 1] with
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 5 >= n then fail "short unicode escape"
                  else begin
                    (* The printer only emits \u00xx control escapes;
                       decode the low byte and reject the rest. *)
                    match int_of_string_opt ("0x" ^ String.sub s (!pos + 2) 4) with
                    | Some code when code < 0x80 ->
                        Buffer.add_char buf (Char.chr code);
                        pos := !pos + 4
                    | _ -> fail "unsupported unicode escape"
                  end
              | c -> Buffer.add_char buf c);
              pos := !pos + 2;
              go ()
            end
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let number_token () =
    let start = !pos in
    if !pos < n && (s.[!pos] = '-' || s.[!pos] = '+') then incr pos;
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Int v
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match s.[!pos] with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> Str (string_token ())
      | '[' ->
          incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let items = ref [ value () ] in
            let rec more () =
              skip_ws ();
              if !pos < n && s.[!pos] = ',' then begin
                incr pos;
                items := value () :: !items;
                more ()
              end
              else expect ']'
            in
            more ();
            Arr (List.rev !items)
          end
      | '{' ->
          incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = string_token () in
              skip_ws ();
              expect ':';
              (k, value ())
            in
            let fields = ref [ field () ] in
            let rec more () =
              skip_ws ();
              if !pos < n && s.[!pos] = ',' then begin
                incr pos;
                fields := field () :: !fields;
                more ()
              end
              else expect '}'
            in
            more ();
            Obj (List.rev !fields)
          end
      | _ -> number_token ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
