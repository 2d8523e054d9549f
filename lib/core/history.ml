module Bitset = Smem_relation.Bitset

(* The operation lists the search reads per candidate, ascending. *)
type index = {
  reads : int list;
  writes : int list;
  writes_to : int list array;  (* by location *)
  labeled : int list;
  prev_write : int array;  (* by op id *)
  prev_write_to : int array;  (* by op id *)
}

type t = {
  ops : Op.t array;
  nprocs : int;
  nlocs : int;
  loc_names : string array;
  by_proc : int array array;
  timing : (int * int) option array;  (* indexed by op id *)
  mutable index : index option;
      (* built on first use, so a history that is never searched (a
         parsed request answered from the cache) never pays for it;
         two domains may both build it, with equal results *)
}

type event = {
  e_kind : Op.kind;
  e_loc : string;
  e_value : int;
  e_attr : Op.attr;
  e_at : (int * int) option;
}

let attr_of_labeled labeled = if labeled then Op.Labeled else Op.Ordinary

let check_interval = function
  | Some (s, f) when s > f -> invalid_arg "History: interval start after finish"
  | at -> at

let read ?(labeled = false) ?at loc value =
  {
    e_kind = Op.Read;
    e_loc = loc;
    e_value = value;
    e_attr = attr_of_labeled labeled;
    e_at = check_interval at;
  }

let write ?(labeled = false) ?at loc value =
  {
    e_kind = Op.Write;
    e_loc = loc;
    e_value = value;
    e_attr = attr_of_labeled labeled;
    e_at = check_interval at;
  }

let make rows =
  if rows = [] then invalid_arg "History.make: no processors";
  let interned = Hashtbl.create 8 in
  let names = ref [] in
  let nlocs = ref 0 in
  let intern name =
    match Hashtbl.find_opt interned name with
    | Some i -> i
    | None ->
        let i = !nlocs in
        Hashtbl.add interned name i;
        names := name :: !names;
        incr nlocs;
        i
  in
  let ops = ref [] in
  let timing = ref [] in
  let next_id = ref 0 in
  let by_proc =
    List.mapi
      (fun proc row ->
        List.mapi
          (fun index e ->
            let id = !next_id in
            incr next_id;
            let op =
              {
                Op.id;
                proc;
                index;
                kind = e.e_kind;
                loc = intern e.e_loc;
                value = e.e_value;
                attr = e.e_attr;
              }
            in
            ops := op :: !ops;
            timing := e.e_at :: !timing;
            id)
          row)
      rows
  in
  {
    ops = Array.of_list (List.rev !ops);
    nprocs = List.length rows;
    nlocs = !nlocs;
    loc_names = Array.of_list (List.rev !names);
    by_proc = Array.of_list (List.map Array.of_list by_proc);
    timing = Array.of_list (List.rev !timing);
    index = None;
  }

let of_ops ~nprocs ~loc_names ops =
  let ops = Array.of_list ops in
  Array.iteri
    (fun i (op : Op.t) ->
      if op.Op.id <> i then invalid_arg "History.of_ops: ids must be dense";
      if op.Op.proc < 0 || op.Op.proc >= nprocs then
        invalid_arg "History.of_ops: processor out of range";
      if op.Op.loc < 0 || op.Op.loc >= Array.length loc_names then
        invalid_arg "History.of_ops: location out of range")
    ops;
  let by_proc =
    Array.init nprocs (fun p ->
        let mine =
          Array.to_list ops
          |> List.filter (fun (o : Op.t) -> o.Op.proc = p)
          |> List.sort (fun (a : Op.t) b -> compare a.Op.index b.Op.index)
        in
        List.iteri
          (fun i (o : Op.t) ->
            if o.Op.index <> i then
              invalid_arg "History.of_ops: per-processor indices must be dense")
          mine;
        Array.of_list (List.map (fun (o : Op.t) -> o.Op.id) mine))
  in
  {
    ops;
    nprocs;
    nlocs = Array.length loc_names;
    loc_names;
    by_proc;
    timing = Array.make (Array.length ops) None;
    index = None;
  }

let init = -1

let interval t id = t.timing.(id)

let has_timing t = Array.exists Option.is_some t.timing

let nops t = Array.length t.ops
let nprocs t = t.nprocs
let nlocs t = t.nlocs
let op t id = t.ops.(id)
let ops t = t.ops
let loc_name t l = t.loc_names.(l)

let loc_of_name t name =
  let found = ref None in
  Array.iteri (fun i n -> if n = name then found := Some i) t.loc_names;
  !found

let proc_ops t p = t.by_proc.(p)

(* One pass, from the last operation down, so every list ascends. *)
let build_index t =
  let reads = ref [] and writes = ref [] and labeled = ref [] in
  let writes_to = Array.make t.nlocs [] in
  for id = Array.length t.ops - 1 downto 0 do
    let o = t.ops.(id) in
    if Op.is_read o then reads := id :: !reads
    else begin
      writes := id :: !writes;
      writes_to.(o.Op.loc) <- id :: writes_to.(o.Op.loc)
    end;
    if Op.is_labeled o then labeled := id :: !labeled
  done;
  (* Each processor's latest write so far, and per location. *)
  let prev_write = Array.make (Array.length t.ops) (-1) in
  let prev_write_to = Array.make (Array.length t.ops) (-1) in
  let last_to = Array.make (max 1 t.nlocs) (-1) in
  Array.iter
    (fun row ->
      let last = ref (-1) in
      Array.fill last_to 0 (Array.length last_to) (-1);
      Array.iter
        (fun id ->
          let o = t.ops.(id) in
          prev_write.(id) <- !last;
          prev_write_to.(id) <- last_to.(o.Op.loc);
          if Op.is_write o then begin
            last := id;
            last_to.(o.Op.loc) <- id
          end)
        row)
    t.by_proc;
  {
    reads = !reads;
    writes = !writes;
    writes_to;
    labeled = !labeled;
    prev_write;
    prev_write_to;
  }

let index t =
  match t.index with
  | Some i -> i
  | None ->
      let i = build_index t in
      t.index <- Some i;
      i

let reads t = (index t).reads
let writes t = (index t).writes

let writes_to t loc =
  if loc < 0 || loc >= t.nlocs then [] else (index t).writes_to.(loc)

let labeled t = (index t).labeled
let prev_write t id = (index t).prev_write.(id)
let prev_write_to t id = (index t).prev_write_to.(id)
let has_labeled t = labeled t <> []

let all_ops_set t = Bitset.of_list (nops t) (List.init (nops t) Fun.id)

let view_ops_writes t p =
  let set = Bitset.create (nops t) in
  Array.iter
    (fun (o : Op.t) ->
      if o.Op.proc = p || Op.is_write o then Bitset.add set o.Op.id)
    t.ops;
  set

let block_views t ~block_of ~blocks =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun b ->
          let set = Bitset.create (nops t) in
          Array.iter
            (fun (o : Op.t) ->
              if block_of o.Op.loc = b && (o.Op.proc = p || Op.is_write o) then
                Bitset.add set o.Op.id)
            t.ops;
          if Bitset.is_empty set then None else Some (p, set))
        (List.init blocks Fun.id))
    (List.init t.nprocs Fun.id)

let pp ppf t =
  let loc_name l = t.loc_names.(l) in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun p row ->
      Format.fprintf ppf "p%d:" p;
      Array.iter (fun id -> Format.fprintf ppf " %a" (Op.pp ~loc_name) t.ops.(id)) row;
      if p < t.nprocs - 1 then Format.fprintf ppf "@,")
    t.by_proc;
  Format.fprintf ppf "@]"

let pp_ops t ppf ids =
  let loc_name l = t.loc_names.(l) in
  Format.fprintf ppf "@[<hov>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
       (fun ppf id -> Op.pp ~loc_name ppf t.ops.(id)))
    ids
