module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

type co = No_co | Co of Coherence.t | Write_order of int array

(* One base of the ordering set, decoded once per history: its shared
   relation as of the current stage, and how a reads-from map and then
   a coherence order rebuild it from the previous stage's relation (so
   each base is built from its own inputs, never from the union). *)
type part = {
  rel : Rel.t;
  at_rf : (Reads_from.t -> Rel.t -> Rel.t) option;
  at_co : (Reads_from.t -> Coherence.t -> Rel.t -> Rel.t) option;
}

type t = {
  h : History.t;
  p : Model.params;
  views : Engine.view_spec list;
      (* each view's order is the owner's part, if any, plus [static] —
         physically [static] when there is no owner's part *)
  static : Rel.t;  (* the shared order before any choice *)
  parts : part list;  (* the bases with a shared relation *)
  shared : Rel.t;
      (* the union of [parts] at this stage: contains [static], and is
         physically [static] until a choice rebuilds a part *)
  rf_rebuilds : bool;  (* some part has [at_rf] *)
  co_rebuilds : bool;  (* some part has [at_co] *)
  brackets : bool;  (* the RC acquire brackets come with the map *)
  closes_co : bool;  (* the shared order is closed over co *)
  extra : Rel.t option;  (* edges every view gains from the choices *)
  empty : Rel.t Lazy.t;
  labeled : Bitset.t Lazy.t;
  value_rule : bool array;
      (* per location, under weak ordering: a labeled read must return
         the last labeled write's value (every write to it is labeled) *)
  rf : Reads_from.t option;
  rf_rel : Rel.t Lazy.t;  (* the map's edges, for Engine.check *)
  sync : int array option;
}

let union_opt a b =
  match (a, b) with
  | None, r | r, None -> r
  | Some a, Some b -> Some (Rel.union a b)

(* ---- population ---- *)

let update_ops h p =
  let ops = Bitset.create (History.nops h) in
  Array.iter
    (fun (o : Op.t) ->
      if
        o.Op.proc = p || Op.is_write o
        || (Op.is_read o && Sort.of_loc h o.Op.loc = Sort.Queue)
      then Bitset.add ops o.Op.id)
    (History.ops h);
  ops

(* Each location's block, and the number of blocks.  Listed names take
   their block's index; every unlisted location gets a singleton block,
   numbered on from the listed ones in location-id order. *)
let block_map h = function
  | Model.Modulo k -> ((fun l -> l mod k), k)
  | Model.Named blocks ->
      let next = ref (List.length blocks) in
      let block =
        Array.init (History.nlocs h) (fun l ->
            match List.find_index (List.mem (History.loc_name h l)) blocks with
            | Some b -> b
            | None ->
                incr next;
                !next - 1)
      in
      ((fun l -> block.(l)), !next)

(* (owner, operations) per view, empty views dropped. *)
let population h (p : Model.params) =
  let per_proc f = List.init (History.nprocs h) (fun q -> (q, f q)) in
  match p.Model.population with
  | Model.Shared_all -> [ (-1, History.all_ops_set h) ]
  | Model.Own_plus_writes -> per_proc (History.view_ops_writes h)
  | Model.Per_proc_all -> per_proc (fun _ -> History.all_ops_set h)
  | Model.Own_plus_updates -> per_proc (update_ops h)
  | Model.Per_location ->
      List.init (History.nlocs h) (fun l ->
          let ops = Bitset.create (History.nops h) in
          Array.iter
            (fun (o : Op.t) -> if o.Op.loc = l then Bitset.add ops o.Op.id)
            (History.ops h);
          (-1, ops))
  | Model.Per_proc_block partition ->
      let block_of, blocks = block_map h partition in
      History.block_views h ~block_of ~blocks

(* ---- ordering: each base's shared part, and the owner's part ---- *)

let part h (base : Model.ordering) =
  let part ?at_rf ?at_co rel = Some { rel; at_rf; at_co } in
  let causal rf po = Orders.causal_with h ~po ~rf in
  match base with
  | Model.Program_order -> part (Orders.po h)
  | Model.Partial_program_order -> part (Orders.ppo h)
  | Model.Load_op_store_store -> part (Orders.load_op_store_store h)
  | Model.Own_program_order -> None
  | Model.Po_loc -> part (Orders.po_loc h)
  | Model.Real_time -> part (Orders.real_time h)
  | Model.Causal_order -> part ~at_rf:causal (Orders.po h)
  | Model.Causal_plus_coherence ->
      part ~at_rf:causal
        ~at_co:(fun _ co causal ->
          Rel.transitive_closure (Rel.union causal (Coherence.to_rel co)))
        (Orders.po h)
  | Model.Semi_causal ->
      part
        ~at_co:(fun rf co ppo -> Orders.sem_with h ~ppo ~rf ~co)
        (Orders.ppo h)
  | Model.Own_ppo_bracketed -> part (Orders.release_brackets h)
  | Model.Sync_fences -> part (Rel.union (Orders.fences h) (Orders.po_loc h))
  | Model.Session { ryw; mr; mw; wfr } ->
      let session wfr = Orders.session h ~ryw ~mr ~mw ~wfr in
      if wfr then part ~at_rf:(fun rf _ -> session (Some rf)) (session None)
      else part (session None)

let own_part h (base : Model.ordering) =
  match base with
  | Model.Own_program_order -> Some (Orders.po_of_proc h)
  | Model.Own_ppo_bracketed -> Some (Orders.ppo_of_proc h)
  | _ -> None

(* A one-part union is the part itself: no copy. *)
let union_all nops = function
  | [] -> Rel.create nops
  | r :: rest -> List.fold_left Rel.union r rest

let union_parts nops parts = union_all nops (List.map (fun pt -> pt.rel) parts)

let prepare (p : Model.params) h =
  let nops = History.nops h in
  let bases = p.Model.ordering in
  let parts = List.filter_map (part h) bases in
  let static = union_parts nops parts in
  let owned = List.filter_map (own_part h) bases in
  let views =
    List.map
      (fun (proc, ops) ->
        let order =
          match owned with
          | [] -> static
          | _ when proc < 0 ->
              invalid_arg "Leaf: a per-owner ordering needs processor views"
          | _ ->
              let o = union_all nops (List.map (fun f -> f proc) owned) in
              if Rel.is_empty static then o else Rel.union o static
        in
        { Engine.proc; ops; order })
      (population h p)
  in
  {
    h;
    p;
    views;
    static;
    parts;
    shared = static;
    rf_rebuilds = List.exists (fun pt -> Option.is_some pt.at_rf) parts;
    co_rebuilds = List.exists (fun pt -> Option.is_some pt.at_co) parts;
    brackets = List.mem Model.Own_ppo_bracketed bases;
    closes_co = List.mem Model.Causal_plus_coherence bases;
    extra = None;
    empty = lazy (Rel.create nops);
    labeled = lazy (Bitset.of_list nops (History.labeled h));
    value_rule =
      (match p.Model.mutual with
      | Model.Labeled_total ->
          (* Object legality replays queues and counters, whose reads
             do not return the last write's value. *)
          Array.init (History.nlocs h) (fun l ->
              (p.Model.legality <> Model.Object_legal
              || Sort.of_loc h l = Sort.Register)
              && List.for_all
                   (fun w -> Op.is_labeled (History.op h w))
                   (History.writes_to h l))
      | _ -> [||]);
    rf = None;
    rf_rel = lazy (invalid_arg "Leaf: rf required");
    sync = None;
  }

let views t = t.views
let static t = t.static

(* ---- the reads-from stage ---- *)

let get_rf t =
  match t.rf with Some rf -> rf | None -> invalid_arg "Leaf: rf required"

let acquire_ok h r w =
  (not (Op.is_acquire (History.op h r)))
  || w = History.init
  || Op.is_labeled (History.op h w)
  || List.for_all
       (fun w' -> Op.is_ordinary (History.op h w'))
       (History.writes_to h (History.op h r).Op.loc)

let with_rf t rf =
  let h = t.h in
  (* An order rebuilt from the map must stay irreflexive: the causal
     orders are closed, so a self-loop is a cycle every view holding
     the operation inherits. *)
  let rebuild t =
    if not t.rf_rebuilds then Some t
    else
      let parts =
        List.map
          (fun pt ->
            match pt.at_rf with
            | None -> pt
            | Some f -> { pt with rel = f rf pt.rel })
          t.parts
      in
      if
        List.for_all
          (fun pt -> Option.is_none pt.at_rf || Rel.irreflexive pt.rel)
          parts
      then Some { t with parts; shared = union_parts (History.nops h) parts }
      else None
  in
  (* Under forwarding the value axiom's edges stand in for the
     reads-from edges, and refute some maps outright. *)
  let rebuilt =
    if t.p.Model.legality <> Model.Forwarding then
      rebuild { t with rf = Some rf; rf_rel = lazy (Engine.rf_edges h ~rf) }
    else
      match Orders.forwarding h ~rf with
      | None -> None
      | Some rel -> rebuild { t with rf = Some rf; rf_rel = Lazy.from_val rel }
  in
  match rebuilt with
  | Some t when t.brackets ->
      let ok r = acquire_ok h r (Reads_from.writer rf r) in
      if List.for_all ok (History.reads h) then
        let brackets = Orders.acquire_brackets h ~rf in
        Some { t with extra = union_opt t.extra (Some brackets) }
      else None
  | rebuilt -> rebuilt

(* ---- the labeled-order stage ---- *)

let sync_start t = Array.make (max 1 (History.nlocs t.h)) History.init

(* One labeled operation appended to a prefix whose last labeled writer
   per location is [last] (DESIGN, "Labeled orders by prefix"). *)
let step t ~rf last id =
  let h = t.h in
  let op = History.op h id in
  let loc = op.Op.loc in
  if Op.is_write op then begin
    last.(loc) <- id;
    true
  end
  else
    match (t.p.Model.mutual, rf) with
    | Model.Labeled_sc, Some rf ->
        let w = Reads_from.writer rf id in
        if w = History.init then last.(loc) = History.init
        else if Op.is_labeled (History.op h w) then last.(loc) = w
        else true
    | Model.Labeled_total, _ when t.value_rule.(loc) ->
        let w = last.(loc) in
        op.Op.value = if w = History.init then 0 else (History.op h w).Op.value
    | _ -> true

let with_sync t seq =
  Stats.count_sync_order ();
  if not (Array.for_all (step t ~rf:t.rf (sync_start t)) seq) then None
  else
    let seq = Array.copy seq in
    let order = Orders.total_order (History.nops t.h) seq in
    Some { t with sync = Some seq; extra = union_opt t.extra (Some order) }

(* ---- the coherence stage and the back-ends ---- *)

let notes t ~worder =
  let h = t.h and p = t.p in
  let order label seq =
    [ Format.asprintf "%s: %a" label (History.pp_ops h) (Array.to_list seq) ]
  in
  List.concat
    [
      (match p.Model.population with
      | Model.Per_location -> [ "one serialization per location" ]
      | Model.Per_proc_block _ -> [ "one view per processor per block" ]
      | _ -> []);
      (match worder with Some w -> order "write order" w | None -> []);
      (match (p.Model.mutual, t.sync) with
      | Model.Labeled_sc, Some s -> order "labeled order" s
      | Model.Labeled_total, Some s -> order "synchronization order" s
      | _ -> []);
      (match (p.Model.legality, t.rf) with
      | Model.Object_legal, _ ->
          [ "views replay queues FIFO and counters by count" ]
      | Model.Value_legal, Some rf
        when List.mem Model.Causal_order p.Model.ordering ->
          [ Format.asprintf "writes-before: %a" (Reads_from.pp h) rf ]
      | Model.Writer_legal, _
        when List.exists
               (function Model.Session _ -> true | _ -> false)
               p.Model.ordering ->
          [ "session guarantees incl. writes-follow-reads" ]
      | _ -> []);
    ]

(* Writer legality with a coherence choice: per-view acyclicity. *)
let engine t ~co ~worder =
  let dynamic = if t.shared == t.static then None else Some t.shared in
  let extra =
    match union_opt dynamic t.extra with
    | Some e -> e
    | None -> Lazy.force t.empty
  in
  let rf = get_rf t in
  Option.map
    (fun w ->
      let worder = Option.map Array.copy worder in
      {
        w with
        Witness.sync = Option.map Array.to_list t.sync;
        notes = (fun () -> notes t ~worder @ w.Witness.notes ());
      })
    (Engine.check t.h ~rf_rel:(Lazy.force t.rf_rel) ~rf ~co ~extra
       ~views:t.views)

let base t =
  match t.extra with None -> t.shared | Some e -> Rel.union t.shared e

(* Every other case: search each view for a legal sequence directly,
   under the views' shared order [base]. *)
let search t ~base ~worder =
  let legality =
    match t.p.Model.legality with
    | Model.Value_legal -> View.By_value
    | Model.Writer_legal -> View.By_writer (get_rf t)
    | Model.Object_legal -> View.By_object
    | Model.Forwarding ->
        invalid_arg "Leaf: forwarding needs a write serialization"
  in
  let rec go acc = function
    | [] ->
        let worder = Option.map Array.copy worder in
        Some
          (Witness.per_proc
             ?rf:(Option.map (Reads_from.pairs t.h) t.rf)
             ?sync:(Option.map Array.to_list t.sync)
             (List.rev acc)
             ~notes:(fun () -> notes t ~worder))
    | (v : Engine.view_spec) :: rest -> (
        (* [base] contains [static]: only an owner's part is added. *)
        let order =
          if base == t.static then v.Engine.order
          else if v.Engine.order == t.static then base
          else Rel.union v.Engine.order base
        in
        match View.exists t.h ~ops:v.Engine.ops ~order ~legality with
        | None -> None
        | Some seq -> go ((v.Engine.proc, seq) :: acc) rest)
  in
  go [] t.views

let check t co =
  let h = t.h and p = t.p in
  let co, worder, t =
    match co with
    | No_co -> (None, None, t)
    | Co co -> (Some co, None, t)
    | Write_order w ->
        ( Some (Coherence.of_write_order h w),
          Some w,
          {
            t with
            extra = union_opt t.extra (Some (Orders.chain (History.nops h) w));
          } )
  in
  match co with
  | None -> search t ~base:(base t) ~worder
  | Some co -> (
      let co_rel = lazy (Coherence.to_rel co) in
      let t =
        if not t.co_rebuilds then t
        else
          let rf = get_rf t in
          let rel pt =
            match pt.at_co with None -> pt.rel | Some f -> f rf co pt.rel
          in
          { t with shared = union_all (History.nops h) (List.map rel t.parts) }
      in
      let t =
        match p.Model.mutual with
        | Model.Labeled_pc ->
            let sem_l =
              Orders.sem_within h ~members:(Lazy.force t.labeled)
                ~rf:(get_rf t) ~co
            in
            { t with extra = union_opt t.extra (Some sem_l) }
        | _ -> t
      in
      match p.Model.legality with
      | Model.Writer_legal | Model.Forwarding -> engine t ~co ~worder
      | Model.Value_legal | Model.Object_legal ->
          (* Views agreeing on co take it as an order, unless the
             coherent causal order already closed over it. *)
          let agree = p.Model.mutual = Model.Coherence_agreement in
          let t =
            if agree && not t.closes_co then
              { t with extra = union_opt t.extra (Some (Lazy.force co_rel)) }
            else t
          in
          let base = base t in
          (* Views that all hold every write and agree on co share any
             cycle of their order through writes: refute it once. *)
          let every_write_everywhere =
            match p.Model.population with
            | Model.Shared_all | Model.Own_plus_writes | Model.Per_proc_all
            | Model.Own_plus_updates ->
                true
            | Model.Per_location | Model.Per_proc_block _ -> false
          in
          if agree && every_write_everywhere && not (Rel.acyclic base) then
            None
          else search t ~base ~worder)
