type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Str s -> Buffer.add_string buf (escape s)
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (escape k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

exception Parse_error of string

(* One pass over the input, reading every token in place: a string
   without escapes is one [String.sub], and literals and numbers are
   compared and accumulated where they lie.  Each function takes the
   reader as an argument instead of closing over it, so a decode
   allocates the value it returns and little else.  Escapes follow
   RFC 8259: [\uXXXX] decodes to UTF-8, a surrogate pair joined into
   one code point; a lone surrogate, a non-hex digit or any other
   escape is an error.  Numbers stay integers, an optional sign and
   decimal digits ([+] and leading zeros included, as the toolkit has
   always read them). *)
type reader = { s : string; n : int; mutable pos : int }

let fail_at at msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg at))

let fail r msg = fail_at r.pos msg

let rec skip_ws r =
  if r.pos < r.n then
    match String.unsafe_get r.s r.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        r.pos <- r.pos + 1;
        skip_ws r
    | _ -> ()

let expect r c =
  if r.pos < r.n && r.s.[r.pos] = c then r.pos <- r.pos + 1
  else fail r (Printf.sprintf "expected %c" c)

let rec same s at word i =
  i = String.length word || (s.[at + i] = word.[i] && same s at word (i + 1))

let literal r word v =
  if r.pos + String.length word <= r.n && same r.s r.pos word 0 then begin
    r.pos <- r.pos + String.length word;
    v
  end
  else fail r (Printf.sprintf "expected %s" word)

(* The code unit of the [\uXXXX] escape at [at], or -1 when one of its
   four characters is not a hex digit. *)
let code_unit r at =
  if at + 5 >= r.n then fail_at at "short unicode escape";
  let rec go i acc =
    if i = 4 then acc
    else
      match r.s.[at + 2 + i] with
      | '0' .. '9' as c -> go (i + 1) ((acc * 16) + Char.code c - 48)
      | 'a' .. 'f' as c -> go (i + 1) ((acc * 16) + Char.code c - 87)
      | 'A' .. 'F' as c -> go (i + 1) ((acc * 16) + Char.code c - 55)
      | _ -> -1
  in
  go 0 0

(* The code point of the [\u] escape at [at], a surrogate pair read
   whole; [pos] moves past it. *)
let code_point r at =
  let hi = code_unit r at in
  if hi < 0 then fail_at at "bad unicode escape"
  else if hi >= 0xd800 && hi <= 0xdbff then begin
    (* a high surrogate: the low half must follow at once *)
    let next = at + 6 in
    if not (next + 1 < r.n && r.s.[next] = '\\' && r.s.[next + 1] = 'u') then
      fail_at at "lone surrogate";
    let lo = code_unit r next in
    if lo < 0xdc00 || lo > 0xdfff then fail_at at "lone surrogate";
    r.pos <- next + 6;
    0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
  end
  else if hi >= 0xdc00 && hi <= 0xdfff then fail_at at "lone surrogate"
  else begin
    r.pos <- at + 6;
    hi
  end

(* Decode the escape at [pos], a backslash, into [buf]. *)
let escape r buf =
  let at = r.pos in
  if at + 1 >= r.n then fail r "dangling escape";
  match r.s.[at + 1] with
  | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point r at))
  | e ->
      Buffer.add_char buf
        (match e with
        | '"' | '\\' | '/' -> e
        | 'b' -> '\b'
        | 'f' -> '\012'
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | _ -> fail r "bad escape");
      r.pos <- at + 2

(* The end of the run of plain characters from [i]: the offset of the
   next quote or backslash, or [n]. *)
let rec run_end r i =
  if i >= r.n then r.n
  else
    match String.unsafe_get r.s i with
    | '"' | '\\' -> i
    | _ -> run_end r (i + 1)

(* A string's characters from [pos] on, past its first escape: runs
   of plain characters are copied whole. *)
let rec escaped r buf =
  let j = run_end r r.pos in
  Buffer.add_substring buf r.s r.pos (j - r.pos);
  r.pos <- j;
  if j >= r.n then fail r "unterminated string"
  else if r.s.[j] = '"' then begin
    r.pos <- j + 1;
    Buffer.contents buf
  end
  else begin
    escape r buf;
    escaped r buf
  end

(* Where the string holding the escape at [i] ends, or [n]: decoded,
   it is no longer than its text. *)
let rec string_end r i =
  if i >= r.n then r.n
  else
    match String.unsafe_get r.s i with
    | '"' -> i
    | '\\' -> string_end r (i + 2)
    | _ -> string_end r (i + 1)

(* A string from [pos] on: up to the closing quote, when no escape
   comes first, it is one [String.sub]. *)
let string_token r =
  expect r '"';
  let start = r.pos in
  let i = run_end r start in
  if i < r.n && r.s.[i] = '"' then begin
    r.pos <- i + 1;
    String.sub r.s start (i - start)
  end
  else begin
    escaped r (Buffer.create (string_end r i - start))
  end

let rec digits r acc =
  if r.pos < r.n then
    match String.unsafe_get r.s r.pos with
    | '0' .. '9' as c ->
        r.pos <- r.pos + 1;
        digits r ((acc * 10) + Char.code c - 48)
    | _ -> acc
  else acc

let number_token r =
  let start = r.pos in
  let negative = r.pos < r.n && r.s.[r.pos] = '-' in
  if r.pos < r.n && (r.s.[r.pos] = '-' || r.s.[r.pos] = '+') then
    r.pos <- r.pos + 1;
  let first = r.pos in
  let v = digits r 0 in
  match r.pos - first with
  | 0 -> fail r "bad number"
  | d when d <= 18 -> Int (if negative then -v else v)
  | _ -> (
      (* past 18 digits [v] may have wrapped: the bounds are
         int_of_string's *)
      match int_of_string_opt (String.sub r.s start (r.pos - start)) with
      | Some v -> Int v
      | None -> fail r "bad number")

(* The elements after the first of an array or object, up to its
   [close] bracket; [elem] reads one, and [acc] holds those read so
   far, reversed. *)
let rec rest r close elem acc =
  skip_ws r;
  if r.pos < r.n && r.s.[r.pos] = ',' then begin
    r.pos <- r.pos + 1;
    let x = elem r in
    rest r close elem (x :: acc)
  end
  else begin
    expect r close;
    List.rev acc
  end

(* The elements of the array or object whose opening bracket is at
   [pos]. *)
let elements r close elem =
  r.pos <- r.pos + 1;
  skip_ws r;
  if r.pos < r.n && r.s.[r.pos] = close then begin
    r.pos <- r.pos + 1;
    []
  end
  else
    let first = elem r in
    rest r close elem [ first ]

let rec value r =
  skip_ws r;
  if r.pos >= r.n then fail r "unexpected end of input"
  else
    match r.s.[r.pos] with
    | 'n' -> literal r "null" Null
    | 't' -> literal r "true" (Bool true)
    | 'f' -> literal r "false" (Bool false)
    | '"' -> Str (string_token r)
    | '[' -> Arr (elements r ']' value)
    | '{' -> Obj (elements r '}' field)
    | _ -> number_token r

and field r =
  skip_ws r;
  let k = string_token r in
  skip_ws r;
  expect r ':';
  let v = value r in
  (k, v)

let of_string s =
  let r = { s; n = String.length s; pos = 0 } in
  match
    let v = value r in
    skip_ws r;
    if r.pos <> r.n then fail r "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* [String.equal], not the polymorphic compare of [List.assoc_opt]. *)
let rec find key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else find key rest

let member key = function Obj fields -> find key fields | _ -> None
