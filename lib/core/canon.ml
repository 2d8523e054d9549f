(* The names fixed so far: each location's first-use index ([-1] while
   unused), and per location its nonzero values' first-use indices.
   A row is tried on a copy, so the names of every placed prefix stay
   as they were. *)
type names = {
  locs : int array;
  values : (int * int) list array;
  mutable next_loc : int;
}

let no_names h =
  let n = max 1 (History.nlocs h) in
  { locs = Array.make n (-1); values = Array.make n []; next_loc = 0 }

(* The renaming: operation [id]'s location and value under [names],
   which grow with their first use.  0, the initial value of every
   location, stays 0; a counter read returns a count, not a written
   value, so counter values keep their number. *)
let rename h names id =
  let op = History.op h id in
  let l = op.Op.loc and v = op.Op.value in
  if names.locs.(l) < 0 then begin
    names.locs.(l) <- names.next_loc;
    names.next_loc <- names.next_loc + 1
  end;
  let v' =
    if v = 0 || Sort.of_loc h l = Sort.Counter then v
    else
      match List.assoc_opt v names.values.(l) with
      | Some v' -> v'
      | None ->
          let v' = List.length names.values.(l) + 1 in
          names.values.(l) <- (v, v') :: names.values.(l);
          v'
  in
  (names.locs.(l), v')

(* Most names are one digit, and [string_of_int] is slow. *)
let add_int buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else Buffer.add_string buf (string_of_int n)

(* Row [p] under [names], and the names it leaves.  The encoding spells
   out kind, label, sort, location, value and interval of every
   operation, so it is injective on renamed rows.  Object locations
   ({!Sort}) carry their sort character before the location index: a
   queue history must never collide with the register history spelled
   the same way. *)
let row h names p =
  let names =
    {
      names with
      locs = Array.copy names.locs;
      values = Array.copy names.values;
    }
  in
  let buf = Buffer.create 64 in
  Array.iter
    (fun id ->
      let op = History.op h id in
      let l, v = rename h names id in
      Buffer.add_char buf
        (match op.Op.kind with Op.Read -> 'r' | Op.Write -> 'w');
      if Op.is_labeled op then Buffer.add_char buf '*';
      (match Sort.of_loc h op.Op.loc with
      | Sort.Register -> ()
      | Sort.Queue -> Buffer.add_char buf 'q'
      | Sort.Counter -> Buffer.add_char buf 'c');
      add_int buf l;
      Buffer.add_char buf '=';
      add_int buf v;
      (match History.interval h id with
      | None -> ()
      | Some (s, f) ->
          Buffer.add_char buf '@';
          add_int buf s;
          Buffer.add_char buf ':';
          add_int buf f);
      Buffer.add_char buf ';')
    (History.proc_ops h p);
  (Buffer.contents buf, names)

(* Rows compare as they do inside a full encoding: followed by '|',
   which sorts after every character a row contains. *)
let compare_rows a b = String.compare (a ^ "|") (b ^ "|")

(* Row encodings the exact search may compute.  Six fully tied rows
   need 6 + 30 + 120 + 360 + 720 + 720 = 1 956, the most any history of
   at most six processors needs. *)
let work_bound = 2_000

exception Overrun

(* The least encoding over all row orders, built one row at a time: a
   least order's next row is least among the rows left, under the
   names its placed rows fixed, so only tied rows branch.  The work
   (the tree of ties) is the same for every member of an orbit.  When
   it overruns [work_bound], the search follows the first tied row at
   each step instead: still idempotent and renaming-invariant, since on
   its own output the first tied row is the one already in place. *)
let least_order h =
  let best = ref None in
  let work = ref 0 in
  let rec place ~exact names texts order remaining =
    match remaining with
    | [] -> (
        let enc = String.concat "|" ("" :: List.rev texts) in
        match !best with
        | Some (b, _) when String.compare b enc <= 0 -> ()
        | _ -> best := Some (enc, List.rev order))
    | _ ->
        let rows =
          List.map
            (fun p ->
              incr work;
              if exact && !work > work_bound then raise Overrun;
              (p, row h names p))
            remaining
        in
        let least =
          List.fold_left
            (fun m (_, (text, _)) ->
              if compare_rows text m < 0 then text else m)
            (fst (snd (List.hd rows)))
            rows
        in
        let tied =
          List.filter (fun (_, (text, _)) -> String.equal text least) rows
        in
        List.iter
          (fun (p, (text, names)) ->
            place ~exact names (text :: texts) (p :: order)
              (List.filter (fun q -> q <> p) remaining))
          (if exact then tied else [ List.hd tied ])
  in
  let search ~exact =
    best := None;
    place ~exact (no_names h) [] [] (List.init (History.nprocs h) Fun.id);
    Option.get !best
  in
  try search ~exact:true with Overrun -> search ~exact:false

let encode h = fst (least_order h)

let canonicalize h =
  let names = no_names h in
  snd (least_order h)
  |> List.map (fun p ->
         History.proc_ops h p |> Array.to_list
         |> List.map (fun id ->
                let op = History.op h id in
                let sort = Sort.of_loc h op.Op.loc in
                let l, v = rename h names id in
                (* The sort prefix survives renaming, so the canonical
                   history classifies identically. *)
                let loc = Sort.prefix sort ^ "l" ^ string_of_int l in
                let labeled = Op.is_labeled op in
                let at = History.interval h id in
                match op.Op.kind with
                | Op.Read -> History.read ~labeled ?at loc v
                | Op.Write -> History.write ~labeled ?at loc v))
  |> History.make

let digest h = Digest.to_hex (Digest.string (encode h))

let equivalent a b = String.equal (encode a) (encode b)
