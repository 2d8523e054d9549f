module H = Smem_core.History

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse_error of error

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* One scanner over the text.  A token is a pair of offsets into
   [src], so nothing is copied but the names, locations and doc a test
   keeps, and each function takes the scanner as an argument instead
   of closing over it: a parse allocates what it returns and little
   else.  A line is cut at its first '#', and its tokens are the runs
   of bytes other than ' '; a processor line's events are the
   ';'-separated chunks after its first token, each of them tokens in
   turn. *)
type scanner = {
  src : string;
  mutable ta : int;  (* the last token found: [src.[ta .. tb - 1]] *)
  mutable tb : int;
  words : int array;  (* offsets of the first six tokens counted *)
}

let sub sc a b = String.sub sc.src a (b - a)

let rec same src a word i l =
  i = l
  || String.unsafe_get src (a + i) = String.unsafe_get word i
     && same src a word (i + 1) l

(* [src.[a .. b - 1]] is [word]. *)
let is sc a b word =
  let l = String.length word in
  b - a = l && same sc.src a word 0 l

(* [src.[a .. b - 1]] is [k >= 0] in decimal, without leading zeros. *)
let rec is_int sc a b k =
  if k < 10 then b - a = 1 && Char.code sc.src.[a] - 48 = k
  else
    b - a > 1
    && Char.code sc.src.[b - 1] - 48 = k mod 10
    && is_int sc a (b - 1) (k / 10)

(* The first token of [src.[from .. stop - 1]] into [ta, tb); false if
   there is none. *)
let token sc from stop =
  let src = sc.src in
  let i = ref from in
  while !i < stop && String.unsafe_get src !i = ' ' do
    incr i
  done;
  sc.ta <- !i;
  while !i < stop && String.unsafe_get src !i <> ' ' do
    incr i
  done;
  sc.tb <- !i;
  sc.ta < sc.tb

(* How many tokens [src.[from .. b - 1]] holds, counting from [k] and
   stopping at [limit]; the first six are kept in [words]. *)
let rec tokens sc from b k limit =
  if k < limit && token sc from b then begin
    if k < 6 then begin
      sc.words.(2 * k) <- sc.ta;
      sc.words.((2 * k) + 1) <- sc.tb
    end;
    tokens sc sc.tb b (k + 1) limit
  end
  else k

let wa sc k = sc.words.(2 * k)
let wb sc k = sc.words.((2 * k) + 1)
let word sc k = sub sc (wa sc k) (wb sc k)
let word_is sc k w = is sc (wa sc k) (wb sc k) w

(* The tokens of [src.[a .. b - 1]] joined by single spaces: the text
   an error quotes, and a test's quoted doc. *)
let joined sc a b =
  let buf = Buffer.create (b - a) in
  let rec go from =
    if token sc from b then begin
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_substring buf sc.src sc.ta (sc.tb - sc.ta);
      go sc.tb
    end
  in
  go a;
  Buffer.contents buf

(* The decimal digits [src.[i .. b - 1]] after [acc], or -1 if one is
   not a digit. *)
let rec digits src i b acc =
  if i = b then acc
  else
    match String.unsafe_get src i with
    | '0' .. '9' as c -> digits src (i + 1) b ((acc * 10) + Char.code c - 48)
    | _ -> -1

let int_field sc lineno what a b =
  let negative = sc.src.[a] = '-' in
  let d = if negative then a + 1 else a in
  (* up to 18 digits cannot overflow; anything else is read by
     int_of_string, whose leniency (signs, 0x, underscores) stays *)
  match if b > d && b - d <= 18 then digits sc.src d b 0 else -1 with
  | -1 -> (
      match int_of_string_opt (sub sc a b) with
      | Some v -> v
      | None -> fail lineno "bad %s %S" what (sub sc a b))
  | v -> if negative then -v else v

(* The interval in words [k] and [k + 1]. *)
let interval sc lineno k =
  let s = int_field sc lineno "interval start" (wa sc k) (wb sc k) in
  let f =
    int_field sc lineno "interval finish" (wa sc (k + 1)) (wb sc (k + 1))
  in
  if s > f then fail lineno "interval start %d after finish %d" s f;
  Some (s, f)

(* The value in word [v]; -1 stands for none. *)
let value sc lineno v what =
  if v < 0 then fail lineno "missing %s for %S" what (word sc 0)
  else int_field sc lineno what (wa sc v) (wb sc v)

(* Word 1, the location, after [prefix]. *)
let loc sc prefix =
  let name = word sc 1 in
  if prefix = "" then name else prefix ^ name

(* The event [src.[a .. b - 1]]: its shape first, then its interval,
   its operation and its value. *)
let event sc lineno a b =
  (* [v]: the word holding the value, or -1 for none *)
  let v, at =
    match tokens sc a b 0 7 with
    | 3 -> (2, None)
    | 6 when word_is sc 3 "@" -> (2, interval sc lineno 4)
    | 2 when word_is sc 0 "inc" -> (-1, None)
    | 5 when word_is sc 0 "inc" && word_is sc 2 "@" ->
        (-1, interval sc lineno 3)
    | _ -> fail lineno "bad event %S" (joined sc a b)
  in
  if word_is sc 0 "r" then H.read ?at (loc sc "") (value sc lineno v "value")
  else if word_is sc 0 "w" then
    H.write ?at (loc sc "") (value sc lineno v "value")
  else if word_is sc 0 "r*" then
    H.read ~labeled:true ?at (loc sc "") (value sc lineno v "value")
  else if word_is sc 0 "w*" then
    H.write ~labeled:true ?at (loc sc "") (value sc lineno v "value")
    (* Object operations desugar to reads and writes on sort-tagged
       locations ("q:" queues, "c:" counters; see Smem_core.Sort). *)
  else if word_is sc 0 "enq" then begin
    let value = value sc lineno v "enqueued value" in
    if value = 0 then
      fail lineno "enq value must be nonzero (0 marks an empty dequeue)";
    H.write ?at (loc sc "q:") value
  end
  else if word_is sc 0 "deq" then
    (* value 0 asserts the queue was observed empty *)
    H.read ?at (loc sc "q:") (value sc lineno v "dequeued value")
  else if word_is sc 0 "inc" then begin
    if v >= 0 then
      fail lineno "inc takes no value (counters increment by one)";
    H.write ?at (loc sc "c:") 1
  end
  else if word_is sc 0 "rdc" then
    H.read ?at (loc sc "c:") (value sc lineno v "counter value")
  else
    fail lineno
      "unknown operation %S (expected r, w, r*, w*, enq, deq, inc, rdc)"
      (word sc 0)

(* The events of the ';'-separated chunks of [src.[a .. stop - 1]], in
   order; a chunk without tokens is no event. *)
let rec events sc lineno a stop acc =
  if a > stop then List.rev acc
  else begin
    let b = ref a in
    while !b < stop && String.unsafe_get sc.src !b <> ';' do
      incr b
    done;
    let b = !b in
    events sc lineno (b + 1) stop
      (if token sc a b then event sc lineno a b :: acc else acc)
  end

(* State of the test currently being assembled. *)
type partial = {
  name : string;
  doc : string;
  header : int;  (* the line of its [test] header *)
  mutable rows : H.event list list;  (* reversed *)
  mutable nrows : int;
  mutable expects : (string * Test.verdict) list;  (* reversed *)
}

let finish p =
  if p.rows = [] then fail p.header "test %S has no processor line" p.name
  else
    Test.make ~name:p.name ~doc:p.doc
      ~expect:(List.rev p.expects)
      (List.rev p.rows)

type state = {
  sc : scanner;
  mutable current : partial option;
  mutable tests : Test.t list;  (* reversed *)
}

let close st =
  match st.current with
  | None -> ()
  | Some p ->
      st.tests <- finish p :: st.tests;
      st.current <- None

let with_current st lineno =
  match st.current with
  | None -> fail lineno "directive outside of a test (missing 'test' header?)"
  | Some p -> p

(* The line [src.[a .. stop - 1]], its comment already cut. *)
let line st lineno a stop =
  let sc = st.sc in
  let k = tokens sc a stop 0 4 in
  if k > 0 then begin
    let a1 = wa sc 0 and b1 = wb sc 0 in
    if k >= 2 && word_is sc 0 "test" then begin
      let name = word sc 1 and rest = if k > 2 then wa sc 2 else stop in
      close st;
      let doc =
        if rest = stop then ""
        else
          let quoted = joined sc rest stop in
          let l = String.length quoted in
          if l >= 2 && quoted.[0] = '"' && quoted.[l - 1] = '"' then
            String.sub quoted 1 (l - 2)
          else fail lineno "expected a quoted string, got %S" quoted
      in
      st.current <-
        Some { name; doc; header = lineno; rows = []; nrows = 0; expects = [] }
    end
    else if k = 3 && word_is sc 0 "expect" then begin
      let p = with_current st lineno in
      let v =
        if word_is sc 2 "allowed" then Test.Allowed
        else if word_is sc 2 "forbidden" then Test.Forbidden
        else fail lineno "expected allowed|forbidden, got %S" (word sc 2)
      in
      p.expects <- (word sc 1, v) :: p.expects
    end
    else if b1 - a1 > 1 && sc.src.[b1 - 1] = ':' then begin
      let p = with_current st lineno in
      if not (sc.src.[a1] = 'p' && is_int sc (a1 + 1) (b1 - 1) p.nrows) then
        fail lineno "expected processor p%d, got %s" p.nrows
          (sub sc a1 (b1 - 1));
      p.rows <- events sc lineno b1 stop [] :: p.rows;
      p.nrows <- p.nrows + 1
    end
    else fail lineno "unexpected token %S" (word sc 0)
  end

let tests_of_string src =
  let n = String.length src in
  let st =
    {
      sc = { src; ta = 0; tb = 0; words = Array.make 12 0 };
      current = None;
      tests = [];
    }
  in
  try
    let pos = ref 0 and lineno = ref 0 in
    while !pos <= n do
      incr lineno;
      (* the line ends at '\n' or the end; a '#' cuts it short *)
      let eol = ref !pos and cut = ref (-1) in
      while !eol < n && String.unsafe_get src !eol <> '\n' do
        if !cut < 0 && String.unsafe_get src !eol = '#' then cut := !eol;
        incr eol
      done;
      line st !lineno !pos (if !cut < 0 then !eol else !cut);
      pos := !eol + 1
    done;
    close st;
    Ok (List.rev st.tests)
  with Parse_error e -> Error e

let test_of_string source =
  match tests_of_string source with
  | Error e -> Error e
  | Ok [ t ] -> Ok t
  | Ok ts ->
      Error
        {
          line = 0;
          message = Printf.sprintf "expected one test, found %d" (List.length ts);
        }
