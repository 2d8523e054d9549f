module Perm = Smem_relation.Perm

type co_mode = Co_none | Co_per_loc | Co_global

let writer_legal (p : Model.params) =
  match p.Model.legality with
  | Model.Writer_legal | Model.Forwarding -> true
  | Model.Value_legal | Model.Object_legal -> false

let rf_needed (p : Model.params) =
  writer_legal p
  || List.exists
       (function
         | Model.Causal_order | Model.Causal_plus_coherence -> true
         | _ -> false)
       p.Model.ordering

let sync_needed (p : Model.params) =
  match p.Model.mutual with
  | Model.Labeled_sc | Model.Labeled_total -> true
  | _ -> false

let co_mode (p : Model.params) =
  let session = function Model.Session _ -> true | _ -> false in
  match p.Model.mutual with
  | Model.Global_write_order -> Co_global
  (* Session views need not agree on any write order: two views may
     serialize the same writes oppositely. *)
  | _ when List.exists session p.Model.ordering -> Co_none
  | Model.Coherence_agreement -> Co_per_loc
  | _ -> if writer_legal p then Co_per_loc else Co_none

(* The labeled orders by prefix (DESIGN, "Labeled orders by prefix"):
   a depth-first walk over the linear extensions of program order on
   the labeled operations.  It tries the ready operations in increasing
   id order, as a full enumeration would, and appends one only when
   {!Leaf.step} allows it, so it hands [f] the legal complete orders in
   the full enumeration's order.  A configuration — the placed set (a
   word over labeled indices) and each location's last labeled writer —
   decides every completion's legality: one whose subtree reached no
   legal complete order is remembered and never entered again. *)
let sync_walk h =
  let labeled = Array.of_list (History.labeled h) in
  let m = Array.length labeled in
  if m >= Sys.int_size then
    raise (View.Too_large { nops = History.nops h; limit = Sys.int_size - 1 });
  (* The labeled operations before each one in its program order. *)
  let pred_mask =
    Array.map
      (fun id ->
        let op = History.op h id in
        let mask = ref 0 in
        Array.iteri
          (fun k id' ->
            let op' = History.op h id' in
            if Op.same_proc op op' && op'.Op.index < op.Op.index then
              mask := !mask lor (1 lsl k))
          labeled;
        !mask)
      labeled
  in
  let loc = Array.map (fun id -> (History.op h id).Op.loc) labeled in
  let seq = Array.make m (-1) in
  fun leaf ~rf ~f ->
    let last = Leaf.sync_start leaf in
    let failed = Hashtbl.create 16 in
    let completed = ref 0 in
    let rec go depth placed =
      if depth = m then begin
        incr completed;
        f seq
      end
      else if Hashtbl.mem failed (placed, last) then false
      else begin
        let before = !completed in
        let accepted = ref false in
        let k = ref 0 in
        while (not !accepted) && !k < m do
          let i = !k in
          let bit = 1 lsl i in
          if placed land bit = 0 && placed land pred_mask.(i) = pred_mask.(i)
          then begin
            let saved = last.(loc.(i)) in
            if Leaf.step leaf ~rf last labeled.(i) then begin
              seq.(depth) <- labeled.(i);
              accepted := go (depth + 1) (placed lor bit)
            end;
            last.(loc.(i)) <- saved
          end;
          incr k
        done;
        if (not !accepted) && !completed = before then
          Hashtbl.add failed (placed, Array.copy last) ();
        !accepted
      end
    in
    go 0 0

let witness p h =
  let leaf = Leaf.prepare p h in
  let found = ref None in
  let accept = function
    | Some _ as w ->
        found := w;
        true
    | None -> false
  in
  let co_phase =
    match co_mode p with
    | Co_none -> fun stage -> accept (Leaf.check stage Leaf.No_co)
    | Co_per_loc ->
        fun stage ->
          Coherence.iter h ~f:(fun co -> accept (Leaf.check stage (Leaf.Co co)))
    | Co_global ->
        let writes = Array.of_list (History.writes h) in
        fun stage ->
          Perm.iter_constrained writes ~precedes:(Coherence.default_respect h)
            ~f:(fun worder ->
              Stats.count_co ();
              accept (Leaf.check stage (Leaf.Write_order worder)))
  in
  let sync_phase =
    if sync_needed p then
      let walk = sync_walk h in
      fun ~rf stage ->
        walk stage ~rf ~f:(fun seq ->
            match Leaf.with_sync stage seq with
            | Some stage -> co_phase stage
            | None -> false)
    else fun ~rf:_ stage -> co_phase stage
  in
  let (_ : bool) =
    if rf_needed p then
      (* Counter reads return a count, not a written value. *)
      let skip r =
        p.Model.legality = Model.Object_legal
        && Sort.of_loc h (History.op h r).Op.loc = Sort.Counter
      in
      Reads_from.iter ~skip h ~f:(fun rf ->
          match Leaf.with_rf leaf rf with
          | Some stage -> sync_phase ~rf:(Some rf) stage
          | None -> false)
    else sync_phase ~rf:None leaf
  in
  !found

let model ~key ~name ~description params =
  {
    Model.key;
    name;
    description;
    params;
    witness = witness params;
  }
