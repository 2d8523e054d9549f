module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

type legality = By_value | By_writer of Reads_from.t | By_object

exception Too_large of { nops : int; limit : int }

let () =
  Printexc.register_printer (function
    | Too_large { nops; limit } ->
        Some
          (Printf.sprintf
             "View.Too_large: history has %d operations; the word-encoded \
              legality search handles at most %d"
             nops limit)
    | _ -> None)

(* Replay each location's sequential specification ({!Sort}); object
   states are immutable, so a failed (placed, states) pair memoizes
   directly. *)
let replay h ~ops ~order =
  let nops = History.nops h in
  let sorts = Array.init (History.nlocs h) (fun l -> Sort.of_loc h l) in
  let member = Array.make nops false in
  Bitset.iter (fun i -> member.(i) <- true) ops;
  let total = Bitset.cardinal ops in
  let preds = Array.make nops [] in
  Rel.iter_pairs
    (fun a b ->
      if a <> b && member.(a) && member.(b) then preds.(b) <- a :: preds.(b))
    order;
  let elems = Bitset.elements ops in
  let init_states = Array.map Sort.initial sorts in
  let failed = Hashtbl.create 64 in
  let rec go placed seq count states =
    if count = total then Some (List.rev seq)
    else if Hashtbl.mem failed (placed, states) then None
    else begin
      let result = ref None in
      let try_op id =
        !result = None && member.(id)
        && placed land (1 lsl id) = 0
        && List.for_all (fun p -> placed land (1 lsl p) <> 0) preds.(id)
        &&
        let o = History.op h id in
        match Sort.step sorts.(o.Op.loc) states.(o.Op.loc) o with
        | None -> false
        | Some st ->
            let states' = Array.copy states in
            states'.(o.Op.loc) <- st;
            (match go (placed lor (1 lsl id)) (id :: seq) (count + 1) states' with
            | Some _ as r ->
                result := r;
                true
            | None -> false)
      in
      let _ : bool = List.exists try_op elems in
      if !result = None then Hashtbl.replace failed (placed, states) ();
      !result
    end
  in
  go 0 [] 0 init_states

(* Registers by value or by writer: one int cell per location. *)
let registers h ~ops ~order ~by_writer =
  let nops = History.nops h in
  let ids = Array.of_list (Bitset.elements ops) in
  let n = Array.length ids in
  (* Predecessor masks: op [a] is ready once all its order-predecessors
     within [ops] are placed. *)
  let pred_mask = Array.make nops 0 in
  Rel.iter_pairs
    (fun a b ->
      if Bitset.mem ops a && Bitset.mem ops b then
        pred_mask.(b) <- pred_mask.(b) lor (1 lsl a))
    order;
  let nlocs = History.nlocs h in
  let initial_cell = match by_writer with None -> 0 | Some _ -> History.init in
  let mem = Array.make (max 1 nlocs) initial_cell in
  let read_ok op =
    let cell = mem.((op : Op.t).Op.loc) in
    match by_writer with
    | None -> cell = op.Op.value
    | Some rf -> cell = Reads_from.writer rf op.Op.id
  in
  let cell_after op =
    match by_writer with None -> (op : Op.t).Op.value | Some _ -> op.Op.id
  in
  let seq = Array.make n (-1) in
  let failed = Hashtbl.create 97 in
  let rec go depth placed =
    if depth = n then true
    else begin
      let key = (placed, Array.copy mem) in
      if Hashtbl.mem failed key then false
      else begin
        let ok = ref false in
        let i = ref 0 in
        while (not !ok) && !i < n do
          let a = ids.(!i) in
          let bit = 1 lsl a in
          if placed land bit = 0 && placed land pred_mask.(a) = pred_mask.(a) then begin
            let op = History.op h a in
            if Op.is_write op then begin
              let saved = mem.(op.Op.loc) in
              mem.(op.Op.loc) <- cell_after op;
              seq.(depth) <- a;
              if go (depth + 1) (placed lor bit) then ok := true
              else mem.(op.Op.loc) <- saved
            end
            else if read_ok op then begin
              seq.(depth) <- a;
              if go (depth + 1) (placed lor bit) then ok := true
            end
          end;
          incr i
        done;
        if not !ok then Hashtbl.add failed key ();
        !ok
      end
    end
  in
  if go 0 0 then Some (Array.to_list seq) else None

let exists h ~ops ~order ~legality =
  Smem_obs.Trace.span ~cat:"search" "search/legality" @@ fun () ->
  let nops = History.nops h in
  if nops >= Sys.int_size then
    raise (Too_large { nops; limit = Sys.int_size - 1 });
  match legality with
  | By_value -> registers h ~ops ~order ~by_writer:None
  | By_writer rf -> registers h ~ops ~order ~by_writer:(Some rf)
  | By_object -> replay h ~ops ~order
