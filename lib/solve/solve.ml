(* The constraint-propagation witness engine.

   The enumerator answers "is there a legal view?" by walking the full
   cartesian product of reads-from maps and coherence orders and running
   the per-candidate check on every complete candidate.  This engine
   searches the same candidate space one variable at a time — first a
   writer per read, then (where the parameters require them) a
   synchronization order and per-location/global write orders — and
   after every decision propagates its consequences into incrementally
   closed view graphs (Smem_relation.Closure).  A cycle in a view graph
   refutes the whole subtree under the current partial assignment, so
   conflicts prune exponentially many complete candidates at once;
   conflicts found during the rf phase are additionally distilled into
   nogoods (Nogood) reused across the rest of the search.

   Correctness strategy: propagation only ever *prunes* — every edge it
   inserts is implied, for every completion of the current partial
   assignment, by the per-candidate check (or by a sibling candidate's
   rejection, see the forced-coherence argument below) — and each fully
   assigned candidate is validated by that same check, Smem_core.Leaf,
   staged exactly as the enumerator stages it.  Sound pruning over the
   same exhaustively searched space, with the same acceptance test at
   the leaves, gives verdict equivalence with the enumerator by
   construction; the differential fuzz oracle then tests what the
   argument claims. *)

module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel
module Closure = Smem_relation.Closure
module Perm = Smem_relation.Perm
module H = Smem_core.History
module Op = Smem_core.Op
module Model = Smem_core.Model
module Engine = Smem_core.Engine
module Enum = Smem_core.Enum
module Leaf = Smem_core.Leaf
module Witness = Smem_core.Witness
module Reads_from = Smem_core.Reads_from
module Coherence = Smem_core.Coherence
module Stats = Smem_core.Stats

(* Models whose candidate filter is a *global* acyclicity/irreflexivity
   condition (causal, coherent causal, PC-Goodman) propagate into one
   shared graph; all others into one graph per view, because only a
   cycle *within a view's operations* refutes a candidate there.  Per
   view is always sound, so only these one-base quadruples go global:
   independent causal views propagate nothing but rf edges, which lie
   in the causal order (writer-legal views would add from-reads). *)
let global_scope (p : Model.params) =
  match (p.Model.ordering, p.Model.mutual) with
  | [ Model.Causal_order ], Model.No_mutual ->
      p.Model.legality <> Model.Writer_legal
  | [ Model.Causal_plus_coherence ], _ -> true
  | [ Model.Program_order ], Model.Coherence_agreement ->
      (* PC-G's global acyclic(po ∪ co) check; partition consistency
         (Per_proc_block) deliberately has no such global condition. *)
      p.Model.population = Model.Own_plus_writes
      && p.Model.legality = Model.Value_legal
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Static structure                                                    *)

type gview = {
  vproc : int;
  vops : Bitset.t;
  base : Rel.t; (* static ∪ propagated edges, un-closed *)
  cl : Closure.t; (* transitive closure of [base] *)
}

let make_gview ~proc ~ops ~order =
  let base = Rel.restrict order ops in
  { vproc = proc; vops = ops; base; cl = Closure.of_rel base }

(* The leaf's static per-view orders: an under-approximation of every
   candidate's order, which is exactly what sound pruning needs. *)
let prop_views h (p : Model.params) leaf =
  if global_scope p then
    [|
      make_gview ~proc:(-1) ~ops:(H.all_ops_set h) ~order:(Leaf.static leaf);
    |]
  else
    Array.of_list
      (List.map
         (fun { Engine.proc; ops; order } -> make_gview ~proc ~ops ~order)
         (Leaf.views leaf))

(* ------------------------------------------------------------------ *)
(* Search state                                                        *)

let unassigned = min_int

type frame = {
  snaps : Closure.snapshot array;
  mutable added : (int * int * int) list; (* (view, u, v) inserted *)
  mutable sups : (int * int * int) list; (* support entries recorded *)
}

type ctx = {
  h : H.t;
  params : Model.params;
  leaf : Leaf.t;
  views : gview array;
  support : (int * int * int, int * int) Hashtbl.t;
  store : Nogood.t;
  writer : int array; (* read id -> writer id, [unassigned] otherwise *)
  forced0 : Rel.t; (* rf-independent forced coherence pairs *)
  mutable frames : frame list;
  mutable found : Witness.t option;
}

let push ctx =
  let fr =
    {
      snaps = Array.map (fun v -> Closure.snapshot v.cl) ctx.views;
      added = [];
      sups = [];
    }
  in
  ctx.frames <- fr :: ctx.frames;
  fr

let pop ctx =
  match ctx.frames with
  | [] -> invalid_arg "Solve: pop on empty trail"
  | fr :: rest ->
      ctx.frames <- rest;
      Array.iteri (fun i v -> Closure.restore v.cl fr.snaps.(i)) ctx.views;
      List.iter (fun (i, u, v) -> Rel.remove ctx.views.(i).base u v) fr.added;
      List.iter (fun key -> Hashtbl.remove ctx.support key) fr.sups

(* The conflict reason: walk one base-graph path closing the cycle and
   collect the (read, writer) supports of its propagated edges.  Static
   edges have no support and contribute nothing — they hold in every
   candidate — so the collected set alone is jointly infeasible. *)
let reason ctx i u v sup =
  let g = ctx.views.(i).base in
  let n = Rel.size g in
  let parent = Array.make (max 1 n) (-1) in
  parent.(v) <- v;
  let q = Queue.create () in
  Queue.add v q;
  while (not (Queue.is_empty q)) && parent.(u) < 0 do
    let a = Queue.pop q in
    Rel.iter_successors
      (fun b ->
        if parent.(b) < 0 then begin
          parent.(b) <- a;
          Queue.add b q
        end)
      g a
  done;
  let pairs = ref (match sup with Some p -> [ p ] | None -> []) in
  if parent.(u) >= 0 then begin
    let b = ref u in
    while !b <> v do
      let a = parent.(!b) in
      (match Hashtbl.find_opt ctx.support (i, a, !b) with
      | Some p -> pairs := p :: !pairs
      | None -> ());
      b := a
    done
  end;
  !pairs

(* Insert an edge into every view graph containing both endpoints.
   Returns [Some reason] when some insertion closes a cycle. *)
let add_edge ctx fr ?sup u v =
  let conflict = ref None in
  Array.iteri
    (fun i gv ->
      if
        !conflict = None && u <> v
        && Bitset.mem gv.vops u
        && Bitset.mem gv.vops v
        && not (Rel.mem gv.base u v)
      then
        if Closure.reaches gv.cl v u then
          conflict := Some (reason ctx i u v sup)
        else begin
          Rel.add gv.base u v;
          Closure.add gv.cl u v;
          Stats.add_solve_propagations 1;
          fr.added <- (i, u, v) :: fr.added;
          match sup with
          | Some p when not (Hashtbl.mem ctx.support (i, u, v)) ->
              Hashtbl.add ctx.support (i, u, v) p;
              fr.sups <- (i, u, v) :: fr.sups
          | _ -> ()
        end)
    ctx.views;
  !conflict

let reaches_any ctx a b =
  Array.exists
    (fun gv ->
      Bitset.mem gv.vops a && Bitset.mem gv.vops b && Closure.reaches gv.cl a b)
    ctx.views

(* Forced coherence pairs knowable before any decision: a write that
   statically reaches a same-location (or, under a global write order,
   any) write in some view must precede it in every coherence order we
   enumerate — an order violating the pair would cycle that view at the
   leaf, so restricting enumeration to respecting orders skips only
   rejected candidates.  Crucially this is computed from static order
   alone: from-read edges derived from it are supported by a single rf
   pair, keeping conflict reasons (nogoods) honest. *)
let forced_static h (p : Model.params) views =
  let rel = Rel.create (H.nops h) in
  let writes = Array.of_list (H.writes h) in
  let relevant w1 w2 =
    match Enum.co_mode p with
    | Enum.Co_global -> true
    | _ -> Op.same_loc (H.op h w1) (H.op h w2)
  in
  Array.iter
    (fun w1 ->
      Array.iter
        (fun w2 ->
          if w1 <> w2 && relevant w1 w2 then
            let o1 = H.op h w1 and o2 = H.op h w2 in
            if
              (Op.same_proc o1 o2 && o1.Op.index < o2.Op.index)
              || Array.exists
                   (fun gv ->
                     Bitset.mem gv.vops w1 && Bitset.mem gv.vops w2
                     && Closure.reaches gv.cl w1 w2)
                   views
            then Rel.add rel w1 w2)
        writes)
    writes;
  rel

(* ------------------------------------------------------------------ *)
(* The search                                                          *)

let run ctx =
  let h = ctx.h in
  let p = ctx.params in
  let writer_legal = p.Model.legality = Model.Writer_legal in
  let assigned r w = ctx.writer.(r) = w in
  (* The reads-from stage is built lazily: most complete rf assignments
     die in the later phases' propagation, before any leaf. *)
  let leaf stage co =
    Stats.count_solve_leaf ();
    match Option.bind (Lazy.force stage) (fun st -> Leaf.check st co) with
    | Some _ as w ->
        ctx.found <- w;
        true
    | None -> false
  in
  (* -------- coherence phase -------- *)
  let reads_of_loc l =
    List.filter (fun r -> (H.op h r).Op.loc = l) (H.reads h)
  in
  let add_chain fr order =
    let conflict = ref None in
    for i = 0 to Array.length order - 2 do
      if !conflict = None then
        conflict := add_edge ctx fr order.(i) order.(i + 1)
    done;
    !conflict
  in
  (* From-read edges implied by a just-chosen write order: each read
     precedes the first same-location write after its writer (init
     readers precede the first same-location write outright); the
     order's chain edges carry the rest transitively, because every
     write belongs to every view that contains the read. *)
  let add_fr fr loc order =
    let conflict = ref None in
    if writer_legal then
      List.iter
        (fun r ->
          if !conflict = None then begin
            let w = ctx.writer.(r) in
            let n = Array.length order in
            let rec first_at_loc i =
              if i >= n then None
              else if (H.op h order.(i)).Op.loc = loc then Some order.(i)
              else first_at_loc (i + 1)
            in
            let next =
              if w = H.init then first_at_loc 0
              else
                let rec after i =
                  if i >= n then None
                  else if order.(i) = w then first_at_loc (i + 1)
                  else after (i + 1)
                in
                after 0
            in
            match next with
            | Some w' -> conflict := add_edge ctx fr ~sup:(r, w) r w'
            | None -> ()
          end)
        (reads_of_loc loc);
    !conflict
  in
  let co_precedes a b =
    Coherence.default_respect h a b
    || Rel.mem ctx.forced0 a b
    || reaches_any ctx a b
  in
  let co_phase stage =
    match Enum.co_mode p with
    | Enum.Co_none -> leaf stage Leaf.No_co
    | Enum.Co_global ->
        let writes = Array.of_list (H.writes h) in
        Perm.iter_constrained writes ~precedes:co_precedes ~f:(fun worder ->
            Stats.count_solve_decision ();
            let fr = push ctx in
            let conflict =
              match add_chain fr worder with
              | Some _ as c -> c
              | None ->
                  let c = ref None in
                  for l = 0 to H.nlocs h - 1 do
                    if !c = None then c := add_fr fr l worder
                  done;
                  !c
            in
            match conflict with
            | Some _ ->
                Stats.count_solve_conflict ();
                pop ctx;
                false
            | None ->
                let ok = leaf stage (Leaf.Write_order worder) in
                if not ok then pop ctx;
                ok)
    | Enum.Co_per_loc ->
        let nlocs = H.nlocs h in
        let per_loc =
          Array.init nlocs (fun l -> Array.of_list (H.writes_to h l))
        in
        let chosen = Array.make (max 1 nlocs) [||] in
        let rec go l =
          if l = nlocs then
            leaf stage
              (Leaf.Co
                 (Coherence.of_write_order h
                    (Array.concat (Array.to_list chosen))))
          else
            Perm.iter_constrained per_loc.(l) ~precedes:co_precedes
              ~f:(fun ord ->
                Stats.count_solve_decision ();
                let fr = push ctx in
                let conflict =
                  match add_chain fr ord with
                  | Some _ as c -> c
                  | None -> add_fr fr l ord
                in
                match conflict with
                | Some _ ->
                    Stats.count_solve_conflict ();
                    pop ctx;
                    false
                | None ->
                    chosen.(l) <- Array.copy ord;
                    let ok = go (l + 1) in
                    if not ok then pop ctx;
                    ok)
        in
        go 0
  in
  (* -------- synchronization phase -------- *)
  (* The enumerator's walk over labeled orders by prefix; each complete
     order it yields enters the view graphs as one frame, its chain. *)
  let sync_phase =
    if not (Enum.sync_needed p) then fun ~rf:_ stage -> co_phase stage
    else
      let walk = Enum.sync_walk h in
      fun ~rf stage ->
        match Lazy.force stage with
        | None -> false
        | Some st ->
            walk st ~rf:(Lazy.force rf) ~f:(fun seq ->
                match Leaf.with_sync st seq with
                | None -> false
                | Some st -> (
                    Stats.count_solve_decision ();
                    let fr = push ctx in
                    match add_chain fr seq with
                    | Some _ ->
                        Stats.count_solve_conflict ();
                        pop ctx;
                        false
                    | None ->
                        let ok = co_phase (Lazy.from_val (Some st)) in
                        if not ok then pop ctx;
                        ok))
  in
  (* -------- reads-from phase -------- *)
  if not (Enum.rf_needed p) then
    sync_phase ~rf:(Lazy.from_val None) (Lazy.from_val (Some ctx.leaf))
  else begin
    let reads = Array.of_list (H.reads h) in
    let cands =
      Array.map (fun r -> Array.of_list (Reads_from.candidates h r)) reads
    in
    if Array.exists (fun c -> Array.length c = 0) cands then begin
      (* Some read returns a value nobody wrote: same short-circuit as
         the enumerator. *)
      Stats.add_pruned 1;
      false
    end
    else begin
      (* Fail-first: decide the most constrained reads first.  Nogoods
         are assignment-sets, so variable order is free. *)
      let order = Array.init (Array.length reads) Fun.id in
      Array.sort
        (fun i j -> compare (Array.length cands.(i)) (Array.length cands.(j)))
        order;
      let bracketed = List.mem Model.Own_ppo_bracketed p.Model.ordering in
      let propagate_rf fr r w =
        let sup = (r, w) in
        let conflict = ref None in
        let add u v = if !conflict = None then conflict := add_edge ctx fr ~sup u v in
        if w <> H.init then add w r;
        if writer_legal then begin
          let loc = (H.op h r).Op.loc in
          if w = H.init then
            (* fr: an init reader precedes every write to the location. *)
            List.iter (fun w' -> if w' <> r then add r w') (H.writes_to h loc)
          else
            (* fr through coherence pairs already forced statically. *)
            List.iter
              (fun w' -> if Rel.mem ctx.forced0 w w' then add r w')
              (H.writes_to h loc);
          if bracketed && Op.is_acquire (H.op h r) && w <> H.init then begin
            (* The acquire half of the RC brackets. *)
            let row = H.proc_ops h (H.op h r).Op.proc in
            let idx = (H.op h r).Op.index in
            Array.iteri
              (fun i o ->
                if i > idx && Op.is_ordinary (H.op h o) then add w o)
              row
          end
        end;
        !conflict
      in
      let rec assign k =
        if k = Array.length order then
          (* Forced only while this assignment is still in [writer]. *)
          let rf = lazy (Reads_from.make h ~writer:(fun r -> ctx.writer.(r))) in
          sync_phase
            ~rf:(lazy (Some (Lazy.force rf)))
            (lazy (Leaf.with_rf ctx.leaf (Lazy.force rf)))
        else begin
          let r = reads.(order.(k)) in
          let cs = cands.(order.(k)) in
          let ok = ref false in
          let j = ref 0 in
          while (not !ok) && !j < Array.length cs do
            let w = cs.(!j) in
            incr j;
            if (not bracketed) || Leaf.acquire_ok h r w then
              if Nogood.blocks ctx.store ~assigned (r, w) then
                Stats.count_solve_nogood_hit ()
              else begin
                Stats.count_solve_decision ();
                let fr = push ctx in
                ctx.writer.(r) <- w;
                (match propagate_rf fr r w with
                | Some why ->
                    Stats.count_solve_conflict ();
                    if Nogood.learn ctx.store why then
                      Stats.count_solve_nogood ()
                | None -> if assign (k + 1) then ok := true);
                if not !ok then begin
                  ctx.writer.(r) <- unassigned;
                  pop ctx
                end
              end
          done;
          !ok
        end
      in
      assign 0
    end
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let witness_params (p : Model.params) h =
  let leaf = Leaf.prepare p h in
  let views = prop_views h p leaf in
  let ctx =
    {
      h;
      params = p;
      leaf;
      views;
      support = Hashtbl.create 64;
      store = Nogood.create ();
      writer = Array.make (max 1 (H.nops h)) unassigned;
      forced0 =
        (match Enum.co_mode p with
        | Enum.Co_none -> Rel.create (H.nops h)
        | _ -> forced_static h p views);
      frames = [];
      found = None;
    }
  in
  let (_ : bool) = run ctx in
  ctx.found

let witness (m : Model.t) h =
  match m.Model.params with
  (* Object legality replays sequential object specifications; the
     propagation graphs and from-read rules here are register-minded (a
     queue dequeue consumes state, so value-match pruning does not
     transfer): the enumerator decides those. *)
  | Some p when p.Model.legality <> Model.Object_legal ->
      Smem_obs.Trace.span ~cat:"solve"
        ~args:
          [
            ("model", Smem_obs.Json.Str m.Model.key);
            ("nops", Smem_obs.Json.Int (H.nops h));
          ]
        ("solve/" ^ m.Model.key)
      @@ fun () -> witness_params p h
  | _ -> m.Model.witness h

let check m h = Option.is_some (witness m h)
let install () = Model.register_solver witness
