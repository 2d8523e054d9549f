module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

type co = No_co | Co of Coherence.t | Write_order of int array

type t = {
  h : History.t;
  p : Model.params;
  views : Engine.view_spec list;
      (* each view's order is the owner's part, if any, plus [static] —
         physically [static] when there is no owner's part *)
  static : Rel.t;  (* the shared order before any choice *)
  shared : Rel.t;
      (* the shared order at this stage: contains [static], and is
         physically [static] until a choice rebuilds it *)
  extra : Rel.t option;  (* edges every view gains from the choices *)
  empty : Rel.t Lazy.t;
  labeled : Bitset.t Lazy.t;
  rf : Reads_from.t option;
  rf_rel : Rel.t Lazy.t;  (* reads-from edges, for Engine.check *)
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

(* (owner, operations) per view, empty views dropped. *)
let population h (p : Model.params) =
  let per_proc f = List.init (History.nprocs h) (fun q -> (q, f q)) in
  match p.Model.population with
  | Model.Shared_all -> [ (-1, History.all_ops_set h) ]
  | Model.Own_plus_writes -> per_proc (History.view_ops_writes h)
  | Model.Own_plus_updates -> per_proc (update_ops h)
  | Model.Per_location ->
      List.init (History.nlocs h) (fun l ->
          let ops = Bitset.create (History.nops h) in
          Array.iter
            (fun (o : Op.t) -> if o.Op.loc = l then Bitset.add ops o.Op.id)
            (History.ops h);
          (-1, ops))
  | Model.Per_proc_block { blocks } ->
      History.block_views h ~block_of:(fun l -> l mod blocks) ~blocks

(* ---- ordering: the shared part, and the owner's part ---- *)

let static_order h (p : Model.params) =
  match p.Model.ordering with
  | Model.Program_order | Model.Causal_order | Model.Causal_plus_coherence ->
      Orders.po h
  | Model.Partial_program_order | Model.Semi_causal -> Orders.ppo h
  | Model.Own_program_order -> Rel.create (History.nops h)
  | Model.Own_po_plus_po_loc -> Orders.po_loc h
  | Model.Po_plus_real_time -> Rel.union (Orders.po h) (Orders.real_time h)
  | Model.Own_ppo_bracketed -> Orders.release_brackets h
  | Model.Sync_fences -> Rel.union (Orders.fences h) (Orders.po_loc h)
  | Model.Session { ryw; mr; mw; wfr = _ } ->
      Orders.session h ~ryw ~mr ~mw ~wfr:None

let own_order h (p : Model.params) proc =
  let own f =
    if proc < 0 then
      invalid_arg "Leaf: a per-owner ordering needs processor views";
    Some (f h proc)
  in
  match p.Model.ordering with
  | Model.Own_program_order | Model.Own_po_plus_po_loc -> own Orders.po_of_proc
  | Model.Own_ppo_bracketed -> own Orders.ppo_of_proc
  | _ -> None

let prepare (p : Model.params) h =
  let nops = History.nops h in
  let static = static_order h p in
  let views =
    List.map
      (fun (proc, ops) ->
        let order =
          match own_order h p proc with
          | None -> static
          | Some o -> if Rel.is_empty static then o else Rel.union o static
        in
        { Engine.proc; ops; order })
      (population h p)
  in
  {
    h;
    p;
    views;
    static;
    shared = static;
    extra = None;
    empty = lazy (Rel.create nops);
    labeled = lazy (Bitset.of_list nops (History.labeled h));
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
  let t =
    { t with rf = Some rf; rf_rel = lazy (Engine.rf_edges h ~rf) }
  in
  (* An order rebuilt from the map must stay irreflexive: the causal
     orders are closed, so a self-loop is a cycle every view holding
     the operation inherits. *)
  let rebuilt shared =
    if Rel.irreflexive shared then Some { t with shared } else None
  in
  match t.p.Model.ordering with
  | Model.Causal_order | Model.Causal_plus_coherence ->
      rebuilt (Orders.causal_with h ~po:t.static ~rf)
  | Model.Session { ryw; mr; mw; wfr = true } ->
      rebuilt (Orders.session h ~ryw ~mr ~mw ~wfr:(Some rf))
  | Model.Own_ppo_bracketed ->
      let ok r = acquire_ok h r (Reads_from.writer rf r) in
      if List.for_all ok (History.reads h) then
        Some { t with extra = Some (Orders.acquire_brackets h ~rf) }
      else None
  | _ -> Some t

(* ---- the labeled-order stage ---- *)

let labeled_legal t ~rf seq =
  match (t.p.Model.mutual, rf) with
  | Model.Labeled_sc, Some rf ->
      let h = t.h in
      let last = Array.make (max 1 (History.nlocs h)) History.init in
      Array.for_all
        (fun id ->
          let op = History.op h id in
          if Op.is_write op then begin
            last.(op.Op.loc) <- id;
            true
          end
          else
            let w = Reads_from.writer rf id in
            if w = History.init then last.(op.Op.loc) = History.init
            else if Op.is_labeled (History.op h w) then last.(op.Op.loc) = w
            else true)
        seq
  | _ -> true

let with_sync t seq =
  if not (labeled_legal t ~rf:t.rf seq) then None
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
      (match (p.Model.legality, p.Model.ordering, t.rf) with
      | Model.Object_legal, _, _ ->
          [ "views replay queues FIFO and counters by count" ]
      | Model.Value_legal, Model.Causal_order, Some rf ->
          [ Format.asprintf "writes-before: %a" (Reads_from.pp h) rf ]
      | Model.Writer_legal, Model.Session _, _ ->
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
      {
        w with
        Witness.sync = Option.map Array.to_list t.sync;
        notes = notes t ~worder @ w.Witness.notes;
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
  in
  let rec go acc = function
    | [] ->
        Some
          (Witness.per_proc
             ?rf:(Option.map (Reads_from.pairs t.h) t.rf)
             ?sync:(Option.map Array.to_list t.sync)
             (List.rev acc) ~notes:(notes t ~worder))
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
        match p.Model.ordering with
        | Model.Semi_causal ->
            let rf = get_rf t in
            { t with shared = Orders.sem_with h ~ppo:t.static ~rf ~co }
        | Model.Causal_plus_coherence ->
            {
              t with
              shared =
                Rel.transitive_closure (Rel.union t.shared (Lazy.force co_rel));
            }
        | _ -> t
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
      | Model.Writer_legal -> engine t ~co ~worder
      | Model.Value_legal | Model.Object_legal ->
          (* Views agreeing on co take it as an order, unless the
             coherent causal order already closed over it. *)
          let agree = p.Model.mutual = Model.Coherence_agreement in
          let t =
            if agree && p.Model.ordering <> Model.Causal_plus_coherence then
              { t with extra = union_opt t.extra (Some (Lazy.force co_rel)) }
            else t
          in
          let base = base t in
          (* Views that all hold every write and agree on co share any
             cycle of their order through writes: refute it once. *)
          let every_write_everywhere =
            match p.Model.population with
            | Model.Shared_all | Model.Own_plus_writes
            | Model.Own_plus_updates ->
                true
            | Model.Per_location | Model.Per_proc_block _ -> false
          in
          if agree && every_write_everywhere && not (Rel.acyclic base) then
            None
          else search t ~base ~worder)
