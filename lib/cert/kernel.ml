(* The independent checking kernel.

   Everything here is re-derived from the history and the model's
   parameter triple using only {!History}/{!Op} accessors and the
   standard library: the kernel deliberately reuses none of the search
   engine (Engine, View, Orders, Reads_from, Coherence, Diagnose), so a
   bug there cannot silently co-sign its own verdicts.  Relations are
   plain boolean matrices. *)

open Smem_core

type accepted =
  | Complete
  | Unverified_cap of { nops : int; max_search_ops : int }

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* ------------------------------------------------------------------ *)
(* Boolean-matrix relations                                           *)

let fresh_rel n = Array.make_matrix (max 1 n) (max 1 n) false

let union_into dst src =
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> if v then dst.(i).(j) <- true) row)
    src

let copy_rel m = Array.map Array.copy m

let closure m =
  let n = Array.length m in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if m.(i).(k) then
        for j = 0 to n - 1 do
          if m.(k).(j) then m.(i).(j) <- true
        done
    done
  done

(* ------------------------------------------------------------------ *)
(* Ordering-requirement building blocks (the definitions of lib/core's
   Orders and Leaf, re-stated from the paper)                          *)

let add_po_of_proc h m p =
  let row = History.proc_ops h p in
  let k = Array.length row in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      m.(row.(i)).(row.(j)) <- true
    done
  done

let add_po h m =
  for p = 0 to History.nprocs h - 1 do
    add_po_of_proc h m p
  done

let add_po_loc h m =
  for p = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h p in
    let k = Array.length row in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        if Op.same_loc (History.op h row.(i)) (History.op h row.(j)) then
          m.(row.(i)).(row.(j)) <- true
      done
    done
  done

(* ppo keeps a program-order pair unless it is a write followed by a
   read of a different location; closure restores indirect pairs.
   SPARC's LoadOp and StoreStore ([~any_loc]) drop every write→read
   pair, and closure adds nothing to them. *)
let ppo_of_rows ?(any_loc = false) h rows =
  let m = fresh_rel (History.nops h) in
  Array.iter
    (fun row ->
      let k = Array.length row in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          let a = History.op h row.(i) and b = History.op h row.(j) in
          let bypassable =
            Op.is_write a && Op.is_read b && (any_loc || not (Op.same_loc a b))
          in
          if not bypassable then m.(row.(i)).(row.(j)) <- true
        done
      done)
    rows;
  closure m;
  m

let ppo_all ?any_loc h =
  ppo_of_rows ?any_loc h
    (Array.init (History.nprocs h) (fun p -> History.proc_ops h p))

let ppo_of_proc h p = ppo_of_rows h [| History.proc_ops h p |]

let ppo_within h ~member =
  ppo_of_rows h
    (Array.init (History.nprocs h) (fun p ->
         History.proc_ops h p |> Array.to_list |> List.filter member
         |> Array.of_list))

let add_real_time h m =
  let n = History.nops h in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      match (History.interval h a, History.interval h b) with
      | Some (_, fa), Some (sb, _) when a <> b && fa < sb -> m.(a).(b) <- true
      | _ -> ()
    done
  done

let add_wb h m ~writer =
  List.iter
    (fun r ->
      let w = writer.(r) in
      if w <> History.init then m.(w).(r) <- true)
    (History.reads h)

(* all (earlier, later) pairs of a committed total order — not just
   consecutive ones: a view that omits an intermediate operation must
   still order the operations around it *)
let add_total m seq =
  let k = Array.length seq in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      m.(seq.(i)).(seq.(j)) <- true
    done
  done

(* same-processor pairs with a labeled endpoint: WO's two-way fences *)
let add_fence h m =
  for p = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h p in
    let k = Array.length row in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        if
          Op.is_labeled (History.op h row.(i))
          || Op.is_labeled (History.op h row.(j))
        then m.(row.(i)).(row.(j)) <- true
      done
    done
  done

(* RC's §3.4 bracketing: an acquire's writer precedes the acquiring
   processor's later ordinary operations; a processor's earlier ordinary
   operations precede its release *)
let add_bracket h m ~writer =
  for q = 0 to History.nprocs h - 1 do
    let row = History.proc_ops h q in
    let k = Array.length row in
    for i = 0 to k - 1 do
      let op = History.op h row.(i) in
      if Op.is_acquire op then begin
        let w = writer.(row.(i)) in
        if w <> History.init then
          for j = i + 1 to k - 1 do
            if Op.is_ordinary (History.op h row.(j)) then m.(w).(row.(j)) <- true
          done
      end;
      if Op.is_release op then
        for j = 0 to i - 1 do
          if Op.is_ordinary (History.op h row.(j)) then
            m.(row.(j)).(row.(i)) <- true
        done
    done
  done

(* ------------------------------------------------------------------ *)
(* Coherence orders                                                   *)

type co = { rank : int array; loc_of : int array }

let build_co h per_loc =
  let n = max 1 (History.nops h) in
  let rank = Array.make n (-1) and loc_of = Array.make n (-1) in
  Array.iteri
    (fun l ws ->
      Array.iteri
        (fun i w ->
          rank.(w) <- i;
          loc_of.(w) <- l)
        ws)
    per_loc;
  { rank; loc_of }

let co_precedes co a b =
  co.loc_of.(a) >= 0 && co.loc_of.(a) = co.loc_of.(b) && co.rank.(a) < co.rank.(b)

let add_co_rel h m co =
  let n = History.nops h in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if co_precedes co a b then m.(a).(b) <- true
    done
  done

(* A write serialization: the views agree on one, or an ordering base
   is built from one (a single shared view then derives it from
   itself). *)
let needs_co (params : Model.params) =
  match params.Model.mutual with
  | Model.Coherence_agreement | Model.Global_write_order | Model.Labeled_sc
  | Model.Labeled_pc ->
      true
  | Model.No_mutual | Model.Labeled_total ->
      List.exists
        (function
          | Model.Semi_causal | Model.Causal_plus_coherence -> true
          | _ -> false)
        params.Model.ordering

(* ------------------------------------------------------------------ *)
(* Semi-causality (PC's ordering, also RC_pc's labeled requirement)    *)

let sem_matrix h ~ppo ~writer ~co ~member =
  let m = copy_rel ppo in
  (* remote writes-before: a write ppo-before r's writer precedes r *)
  List.iter
    (fun r ->
      if member r then begin
        let w' = writer.(r) in
        if w' <> History.init && member w' then
          List.iter
            (fun a -> if member a && ppo.(a).(w') then m.(a).(r) <- true)
            (History.writes h)
      end)
    (History.reads h);
  (* remote reads-before: r precedes writes ppo-after a co-later write
     to its location *)
  List.iter
    (fun r ->
      if member r then begin
        let w = writer.(r) in
        let loc = (History.op h r).Op.loc in
        List.iter
          (fun o' ->
            if
              member o' && o' <> w
              && (w = History.init || co_precedes co w o')
            then
              List.iter
                (fun b -> if member b && ppo.(o').(b) then m.(r).(b) <- true)
                (History.writes h))
          (History.writes_to h loc)
      end)
    (History.reads h);
  closure m;
  m

(* ------------------------------------------------------------------ *)
(* RC side conditions                                                 *)

let acquire_rf_ok h writer =
  List.for_all
    (fun r ->
      let op = History.op h r in
      (not (Op.is_acquire op))
      ||
      let w = writer.(r) in
      w = History.init
      || Op.is_labeled (History.op h w)
      || List.for_all
           (fun w' -> Op.is_ordinary (History.op h w'))
           (History.writes_to h op.Op.loc))
    (History.reads h)

let labeled_seq_legal h ~writer seq =
  let last = Array.make (max 1 (History.nlocs h)) History.init in
  Array.for_all
    (fun id ->
      let op = History.op h id in
      if Op.is_write op then begin
        last.(op.Op.loc) <- id;
        true
      end
      else
        let w = writer.(id) in
        if w = History.init then last.(op.Op.loc) = History.init
        else if Op.is_labeled (History.op h w) then last.(op.Op.loc) = w
        else true)
    seq

(* ------------------------------------------------------------------ *)
(* The ordering requirement as a per-view relation                    *)

(* A view's order is the union of the ordering set's base relations,
   each built from its own inputs (semi-causality from ppo, the causal
   order from po) in a matrix of its own, with no closure across
   bases.  The set is decoded once per certificate; the result maps the
   committed (writer, sync, co) to each view owner's order. *)
let view_orders h (params : Model.params) =
  let n = History.nops h in
  let co_exn = function
    | Some c -> c
    | None ->
        reject
          "inconsistent parameter triple: the ordering requirement needs a \
           coherence order the mutual-consistency requirement does not provide"
  in
  let sync_exn = function
    | Some s -> s
    | None -> reject "inconsistent parameter triple: no sync order"
  in
  let proc_exn p =
    if p < 0 then
      reject "a per-owner ordering requirement needs processor views"
    else p
  in
  let matrix fill =
    let m = fresh_rel n in
    fill m;
    m
  in
  (* What each base contributes: a shared relation of the committed
     choices (built once when none enters it), and an owner's part. *)
  let fixed m = `Shared (fun ~writer:_ ~sync:_ ~co:_ -> m) in
  let decode = function
    | Model.Program_order -> [ fixed (matrix (add_po h)) ]
    | Model.Partial_program_order -> [ fixed (ppo_all h) ]
    | Model.Load_op_store_store -> [ fixed (ppo_all ~any_loc:true h) ]
    | Model.Own_program_order ->
        [ `Owner (fun m p -> add_po_of_proc h m (proc_exn p)) ]
    | Model.Po_loc -> [ fixed (matrix (add_po_loc h)) ]
    | Model.Real_time -> [ fixed (matrix (add_real_time h)) ]
    | (Model.Causal_order | Model.Causal_plus_coherence) as base ->
        [
          `Shared
            (fun ~writer ~sync:_ ~co ->
              matrix (fun m ->
                  add_po h m;
                  add_wb h m ~writer;
                  if base = Model.Causal_plus_coherence then
                    add_co_rel h m (co_exn co);
                  closure m));
        ]
    | Model.Semi_causal ->
        let ppo = ppo_all h in
        [
          `Shared
            (fun ~writer ~sync:_ ~co ->
              sem_matrix h ~ppo ~writer ~co:(co_exn co) ~member:(fun _ -> true));
        ]
    | Model.Own_ppo_bracketed ->
        let labeled = Array.make (max 1 n) false in
        List.iter (fun a -> labeled.(a) <- true) (History.labeled h);
        let member a = labeled.(a) in
        [
          `Shared
            (fun ~writer ~sync ~co ->
              matrix (fun m ->
                  add_bracket h m ~writer;
                  match params.Model.mutual with
                  | Model.Labeled_sc -> add_total m (sync_exn sync)
                  | Model.Labeled_pc ->
                      union_into m
                        (sem_matrix h ~ppo:(ppo_within h ~member) ~writer
                           ~co:(co_exn co) ~member)
                  | _ ->
                      reject
                        "inconsistent parameter triple: a bracketed ordering \
                         requires a labeled mutual-consistency requirement"));
          `Owner (fun m p -> union_into m (ppo_of_proc h (proc_exn p)));
        ]
    | Model.Sync_fences ->
        [
          `Shared
            (fun ~writer:_ ~sync ~co:_ ->
              matrix (fun m ->
                  add_fence h m;
                  add_po_loc h m;
                  add_total m (sync_exn sync)));
        ]
    | Model.Session { ryw; mr; mw; wfr } ->
        (* Pairwise projections of (transitive) program order, restated
           from the guarantee definitions; wfr additionally orders each
           read's writer before the reader's later writes.  The
           relation is shared — restriction to each view happens in the
           ordering check, exactly like the causal orders. *)
        [
          `Shared
            (fun ~writer ~sync:_ ~co:_ ->
              matrix (fun m ->
                  for p = 0 to History.nprocs h - 1 do
                    let row = History.proc_ops h p in
                    let k = Array.length row in
                    for i = 0 to k - 1 do
                      for j = i + 1 to k - 1 do
                        let a = History.op h row.(i)
                        and b = History.op h row.(j) in
                        if
                          (ryw && Op.is_write a && Op.is_read b)
                          || (mr && Op.is_read a && Op.is_read b)
                          || (mw && Op.is_write a && Op.is_write b)
                        then m.(row.(i)).(row.(j)) <- true
                      done
                    done
                  done;
                  if wfr then
                    List.iter
                      (fun r ->
                        let w = writer.(r) in
                        if w <> History.init then begin
                          let ro = History.op h r in
                          Array.iter
                            (fun id ->
                              let o' = History.op h id in
                              if o'.Op.index > ro.Op.index && Op.is_write o'
                              then m.(w).(id) <- true)
                            (History.proc_ops h ro.Op.proc)
                        end)
                      (History.reads h)));
        ]
  in
  (* A union of one relation is that relation: no copy. *)
  let union = function
    | [] -> fresh_rel n
    | [ m ] -> m
    | m :: rest ->
        let u = copy_rel m in
        List.iter (union_into u) rest;
        u
  in
  let parts = List.concat_map decode params.Model.ordering in
  let shared = List.filter_map (function `Shared f -> Some f | _ -> None) parts in
  let owned = List.filter_map (function `Owner f -> Some f | _ -> None) parts in
  fun ~writer ~sync ~co ->
    let shared = union (List.map (fun f -> f ~writer ~sync ~co) shared) in
    fun p ->
      let m = copy_rel shared in
      List.iter (fun f -> f m p) owned;
      m

(* ------------------------------------------------------------------ *)
(* Legality: replaying a view sequence against a location store        *)

(* Location sorts are re-derived from the name prefix (the convention
   {!Smem_core.Sort} documents) rather than through that module: the
   kernel restates even this classification so the search engine's
   code is nowhere on its trust path. *)
type sort = Reg | Que | Cnt

let sort_of h l =
  let name = History.loc_name h l in
  if String.length name >= 2 && name.[1] = ':' then
    match name.[0] with 'q' -> Que | 'c' -> Cnt | _ -> Reg
  else Reg

(* A location's replay state.  Value- and writer-legality use one int
   cell per location regardless of sort (every pre-existing model reads
   object locations as plain registers); object legality replays each
   sort's sequential specification. *)
type cell = Val of int | Wtr of int | Fifo of int list | Count of int

let initial_cell legality sort =
  match (legality, sort) with
  | Model.Value_legal, _ -> Val 0
  | (Model.Writer_legal | Model.Forwarding), _ -> Wtr History.init
  | Model.Object_legal, Reg -> Val 0
  | Model.Object_legal, Que -> Fifo []
  | Model.Object_legal, Cnt -> Count 0

let initial_cells h legality =
  Array.init
    (max 1 (History.nlocs h))
    (fun l -> initial_cell legality (sort_of h l))

(* [None] when the operation is not a legal transition. *)
let cell_step ~writer cell (op : Op.t) =
  if Op.is_write op then
    Some
      (match cell with
      | Val _ -> Val op.Op.value
      | Wtr _ -> Wtr op.Op.id
      | Fifo q -> Fifo (q @ [ op.Op.value ])
      | Count n -> Count (n + 1))
  else
    match cell with
    | Val v -> if v = op.Op.value then Some cell else None
    | Wtr w -> if w = writer.(op.Op.id) then Some cell else None
    | Fifo q -> (
        if op.Op.value = 0 then if q = [] then Some cell else None
        else
          match q with
          | head :: rest when head = op.Op.value -> Some (Fifo rest)
          | _ -> None)
    | Count n -> if op.Op.value = n then Some cell else None

(* [cell_step] behind SPARC's value axiom, restated: under forwarding
   a read first sees its processor's program-order-latest earlier write
   to its location that the view has not [placed] yet (one still in the
   store buffer), and its location's cell only when there is none. *)
let view_step h ~legality ~writer ~placed cell (op : Op.t) =
  if legality <> Model.Forwarding || Op.is_write op then
    cell_step ~writer cell op
  else
    let row = History.proc_ops h op.Op.proc in
    let rec buffered i =
      if i < 0 then cell_step ~writer cell op
      else
        let o = History.op h row.(i) in
        if Op.is_write o && o.Op.loc = op.Op.loc && not placed.(o.Op.id) then
          if writer.(op.Op.id) = o.Op.id then Some cell else None
        else buffered (i - 1)
    in
    buffered (op.Op.index - 1)

let walk_legal h ~legality ~writer seq =
  let mem = initial_cells h legality in
  let placed = Array.make (max 1 (History.nops h)) false in
  List.for_all
    (fun id ->
      let op = History.op h id in
      match view_step h ~legality ~writer ~placed mem.(op.Op.loc) op with
      | Some c ->
          mem.(op.Op.loc) <- c;
          placed.(id) <- true;
          true
      | None -> false)
    seq

(* ------------------------------------------------------------------ *)
(* Structural view checks per population                              *)

(* A partition's block per location, and the number of blocks: a
   listed location takes the index of the block naming it; every
   unlisted one gets a singleton block, numbered on from the listed
   blocks in location-id order. *)
let blocks_of h = function
  | Model.Modulo k -> (Array.init (History.nlocs h) (fun l -> l mod k), k)
  | Model.Named listed ->
      let count = ref (List.length listed) in
      let block =
        Array.init (History.nlocs h) (fun l ->
            match List.find_index (List.mem (History.loc_name h l)) listed with
            | Some b -> b
            | None ->
                incr count;
                !count - 1)
      in
      (block, !count)

(* Besides its owner's operations, a per-processor view holds every
   operation (per-proc-all), every write, or every update: the writes
   plus queue dequeues by any processor (a dequeue mutates the queue,
   so it appears in every view). *)
let in_every_view h (params : Model.params) (o : Op.t) =
  match params.Model.population with
  | Model.Per_proc_all -> true
  | Model.Own_plus_updates -> Op.is_write o || sort_of h o.Op.loc = Que
  | _ -> Op.is_write o

let check_views h (params : Model.params) views =
  let n = History.nops h in
  List.iter
    (fun (_, seq) ->
      List.iter
        (fun a -> if a < 0 || a >= n then reject "view id %d out of range" a)
        seq)
    views;
  let check_exact what seq expect =
    let got = Array.make (max 1 n) 0 in
    List.iter (fun a -> got.(a) <- got.(a) + 1) seq;
    for a = 0 to n - 1 do
      if expect.(a) && got.(a) <> 1 then
        reject "%s must contain operation %d exactly once" what a;
      if (not expect.(a)) && got.(a) <> 0 then
        reject "%s must not contain operation %d" what a
    done
  in
  match params.Model.population with
  | Model.Shared_all -> (
      match views with
      | [ (p, seq) ] ->
          if p <> -1 then reject "the shared view must use processor -1";
          check_exact "the shared view" seq (Array.make (max 1 n) true)
      | _ -> reject "expected exactly one shared view")
  | Model.Own_plus_writes | Model.Per_proc_all | Model.Own_plus_updates ->
      if List.length views <> History.nprocs h then
        reject "expected one view per processor";
      let seen = Array.make (History.nprocs h) false in
      List.iter
        (fun (p, seq) ->
          if p < 0 || p >= History.nprocs h then
            reject "view processor %d out of range" p;
          if seen.(p) then reject "duplicate view for processor %d" p;
          seen.(p) <- true;
          let expect = Array.make (max 1 n) false in
          Array.iter
            (fun (o : Op.t) ->
              expect.(o.Op.id) <- o.Op.proc = p || in_every_view h params o)
            (History.ops h);
          check_exact (Printf.sprintf "the view of processor %d" p) seq expect)
        views
  | Model.Per_location ->
      if List.length views <> History.nlocs h then
        reject "expected one view per location";
      let covered = Array.make (max 1 (History.nlocs h)) false in
      List.iter
        (fun (p, seq) ->
          if p <> -1 then reject "location views must use processor -1";
          match seq with
          | [] -> reject "empty location view"
          | a :: _ ->
              let l = (History.op h a).Op.loc in
              if covered.(l) then
                reject "duplicate view for location %s" (History.loc_name h l);
              covered.(l) <- true;
              let expect = Array.make (max 1 n) false in
              Array.iter
                (fun (o : Op.t) -> if o.Op.loc = l then expect.(o.Op.id) <- true)
                (History.ops h);
              check_exact
                (Printf.sprintf "the view of location %s" (History.loc_name h l))
                seq expect)
        views
  | Model.Per_proc_block partition ->
      (* One view per (processor, block) pair whose population — the
         owner's operations on the block's locations plus every write
         to them — is nonempty; empty pairs are omitted.  A view's
         block is recovered from its operations' locations (blocks
         partition the locations, so a nonempty view determines it). *)
      let block, blocks = blocks_of h partition in
      let expect_of p b =
        let expect = Array.make (max 1 n) false in
        let any = ref false in
        Array.iter
          (fun (o : Op.t) ->
            if block.(o.Op.loc) = b && (o.Op.proc = p || Op.is_write o)
            then begin
              expect.(o.Op.id) <- true;
              any := true
            end)
          (History.ops h);
        if !any then Some expect else None
      in
      let nonempty = ref 0 in
      for p = 0 to History.nprocs h - 1 do
        for b = 0 to blocks - 1 do
          if Option.is_some (expect_of p b) then incr nonempty
        done
      done;
      if List.length views <> !nonempty then
        reject "expected %d (processor, block) views" !nonempty;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p, seq) ->
          if p < 0 || p >= History.nprocs h then
            reject "view processor %d out of range" p;
          match seq with
          | [] -> reject "empty (processor, block) view"
          | a :: _ -> (
              let b = block.((History.op h a).Op.loc) in
              if Hashtbl.mem seen (p, b) then
                reject "duplicate view for processor %d block %d" p b;
              Hashtbl.replace seen (p, b) ();
              match expect_of p b with
              | None -> reject "unexpected view for processor %d block %d" p b
              | Some expect ->
                  check_exact
                    (Printf.sprintf "the view of processor %d block %d" p b)
                    seq expect))
        views

(* ------------------------------------------------------------------ *)
(* Mutual consistency: derive the coherence order from the views       *)

let derive_co h (params : Model.params) views =
  let view_writes seq =
    List.filter (fun a -> Op.is_write (History.op h a)) seq
  in
  (match params.Model.mutual with
  | Model.Global_write_order -> (
      match List.map (fun (_, seq) -> view_writes seq) views with
      | [] -> ()
      | first :: rest ->
          List.iter
            (fun o ->
              if o <> first then
                reject "views disagree on the global write order")
            rest)
  | _ -> ());
  let per_loc_of seq =
    Array.init (max 1 (History.nlocs h)) (fun l ->
        List.filter
          (fun a ->
            let o = History.op h a in
            Op.is_write o && o.Op.loc = l)
          seq)
  in
  (* Agreement among the views that see a location's writes at all: a
     partition-consistency view holds no writes outside its block, so
     its (empty) projection constrains nothing there.  Populations
     whose views all contain every write (checked structurally before
     this point) degenerate to the old all-views-equal rule, since a
     nonempty write set projects nonempty into each of them. *)
  match views with
  | [] -> reject "no views"
  | _ ->
      let nlocs = max 1 (History.nlocs h) in
      let co_loc = Array.make nlocs [] in
      let seen = Array.make nlocs false in
      List.iter
        (fun (_, seq) ->
          Array.iteri
            (fun l ws ->
              match ws with
              | [] -> ()
              | ws when not seen.(l) ->
                  seen.(l) <- true;
                  co_loc.(l) <- ws
              | ws ->
                  if ws <> co_loc.(l) then
                    reject "views disagree on the write order for %s"
                      (History.loc_name h l))
            (per_loc_of seq))
        views;
      (* A location every view misses has either no writes at all, or
         writes no view was required to contain — the derived order is
         then empty and the ordering check simply has nothing to add. *)
      build_co h (Array.map Array.of_list co_loc)

(* ------------------------------------------------------------------ *)
(* Reads-from and sync-order validation                               *)

let rf_required (params : Model.params) =
  (match params.Model.legality with
  | Model.Writer_legal | Model.Forwarding -> true
  | Model.Value_legal | Model.Object_legal -> false)
  || List.exists
       (function
         | Model.Causal_order | Model.Causal_plus_coherence -> true
         | _ -> false)
       params.Model.ordering

let sync_required (params : Model.params) =
  match params.Model.mutual with
  | Model.Labeled_sc | Model.Labeled_total -> true
  | _ -> false

let check_rf h params rf =
  let n = History.nops h in
  let writer = Array.make (max 1 n) History.init in
  if not (rf_required params) then begin
    if rf <> [] then
      reject "the model commits to no reads-from map; drop the rf evidence";
    writer
  end
  else begin
    let seen = Array.make (max 1 n) false in
    List.iter
      (fun (r, w) ->
        if r < 0 || r >= n then reject "rf: operation id %d out of range" r;
        let op = History.op h r in
        if not (Op.is_read op) then reject "rf: operation %d is not a read" r;
        if seen.(r) then reject "rf: duplicate entry for read %d" r;
        seen.(r) <- true;
        if params.Model.legality = Model.Object_legal && sort_of h op.Op.loc = Cnt
        then begin
          (* A counter read returns a count, not a written value: it
             has no writer and must be pinned to the initial
             pseudo-write (contributing no writes-before edge). *)
          if w <> History.init then
            reject "rf: counter read %d cannot have a writer" r
        end
        else if w = History.init then begin
          if op.Op.value <> 0 then
            reject "rf: read %d returns %d but is mapped to the initial write"
              r op.Op.value
        end
        else begin
          if w < 0 || w >= n then reject "rf: writer id %d out of range" w;
          let wo = History.op h w in
          if not (Op.is_write wo) then reject "rf: writer %d is not a write" w;
          if wo.Op.loc <> op.Op.loc then
            reject "rf: read %d and writer %d access different locations" r w;
          if wo.Op.value <> op.Op.value then
            reject "rf: read %d returns %d but writer %d wrote %d" r op.Op.value
              w wo.Op.value
        end;
        writer.(r) <- w)
      rf;
    List.iter
      (fun r -> if not seen.(r) then reject "rf: read %d is unassigned" r)
      (History.reads h);
    writer
  end

let check_sync h params ~writer sync =
  let n = History.nops h in
  match (sync, sync_required params) with
  | None, false -> None
  | Some _, false ->
      reject "the model commits to no labeled order; drop the sync evidence"
  | None, true -> reject "missing the total order on labeled operations"
  | Some s, true ->
      let s = Array.of_list s in
      Array.iter
        (fun a -> if a < 0 || a >= n then reject "sync: id %d out of range" a)
        s;
      let labeled = History.labeled h in
      if
        List.sort compare (Array.to_list s) <> List.sort compare labeled
      then
        reject "sync order must be a permutation of the labeled operations";
      let pos = Array.make (max 1 n) (-1) in
      Array.iteri (fun i a -> pos.(a) <- i) s;
      let po = fresh_rel n in
      add_po h po;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if po.(a).(b) && pos.(a) > pos.(b) then
                reject "sync order contradicts program order (%d before %d)" b a)
            labeled)
        labeled;
      if
        params.Model.mutual = Model.Labeled_sc
        && not (labeled_seq_legal h ~writer s)
      then reject "sync order is not legal for the labeled subhistory";
      Some s

(* ------------------------------------------------------------------ *)
(* Witness verification                                               *)

let verify_witness h (params : Model.params) ~views ~rf ~sync =
  check_views h params views;
  let writer = check_rf h params rf in
  if
    List.mem Model.Own_ppo_bracketed params.Model.ordering
    && not (acquire_rf_ok h writer)
  then
    reject
      "an acquire reads an ordinary write to a location that also carries \
       labeled writes";
  let sync = check_sync h params ~writer sync in
  let co = if needs_co params then Some (derive_co h params views) else None in
  let order_of = view_orders h params ~writer ~sync ~co in
  let n = History.nops h in
  List.iter
    (fun (p, seq) ->
      let order = order_of p in
      let pos = Array.make (max 1 n) (-1) in
      List.iteri (fun i a -> pos.(a) <- i) seq;
      (* includes a = b: a self-edge of a closed causal relation means
         the underlying global order is cyclic *)
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if order.(a).(b) && pos.(a) >= 0 && pos.(b) >= 0 && pos.(a) >= pos.(b)
          then
            reject "view %d violates the ordering requirement (%d before %d)" p
              b a
        done
      done;
      if not (walk_legal h ~legality:params.Model.legality ~writer seq) then
        reject "view %d is not a legal serialization" p)
    views

(* ------------------------------------------------------------------ *)
(* Frontier arithmetic (must agree with the emitter's summary)         *)

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let candidate_space h =
  let rf_count =
    List.fold_left
      (fun acc r ->
        let op = History.op h r in
        let cands =
          List.length
            (List.filter
               (fun w -> (History.op h w).Op.value = op.Op.value)
               (History.writes_to h op.Op.loc))
          + if op.Op.value = 0 then 1 else 0
        in
        sat_mul acc cands)
      1 (History.reads h)
  in
  let nprocs = History.nprocs h in
  let co_count = ref 1 in
  for l = 0 to History.nlocs h - 1 do
    let chain = Array.make nprocs 0 in
    List.iter
      (fun w ->
        let p = (History.op h w).Op.proc in
        chain.(p) <- chain.(p) + 1)
      (History.writes_to h l);
    let n = ref 0 in
    Array.iter
      (fun c ->
        for i = 1 to c do
          incr n;
          co_count :=
            (if !co_count > max_int / !n then max_int else !co_count * !n / i)
        done)
      chain
  done;
  (rf_count, !co_count)

(* ------------------------------------------------------------------ *)
(* Independent witness search (for refuting forbidden certificates)    *)

let exists_rf h ~legality ~f =
  let reads = Array.of_list (History.reads h) in
  let nreads = Array.length reads in
  let cands =
    Array.map
      (fun r ->
        let op = History.op h r in
        if legality = Model.Object_legal && sort_of h op.Op.loc = Cnt then
          (* counter reads have no writer: the assignment is forced *)
          [| History.init |]
        else
          let ws =
            List.filter
              (fun w -> (History.op h w).Op.value = op.Op.value)
              (History.writes_to h op.Op.loc)
          in
          Array.of_list (if op.Op.value = 0 then History.init :: ws else ws))
      reads
  in
  if Array.exists (fun c -> Array.length c = 0) cands then false
  else begin
    let writer = Array.make (max 1 (History.nops h)) History.init in
    let rec go i =
      if i = nreads then f writer
      else
        Array.exists
          (fun w ->
            writer.(reads.(i)) <- w;
            go (i + 1))
          cands.(i)
    in
    go 0
  end

(* enumerate the linear extensions of [precedes] over [items] *)
let exists_perm (items : int array) ~precedes ~f =
  let k = Array.length items in
  let used = Array.make k false in
  let out = Array.make k (-1) in
  let rec go depth =
    if depth = k then f out
    else begin
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < k do
        if not used.(!i) then begin
          let a = items.(!i) in
          let ok = ref true in
          for j = 0 to k - 1 do
            if (not used.(j)) && j <> !i && precedes items.(j) a then ok := false
          done;
          if !ok then begin
            used.(!i) <- true;
            out.(depth) <- a;
            if go (depth + 1) then found := true else used.(!i) <- false
          end
        end;
        incr i
      done;
      !found
    end
  in
  go 0

let same_proc_before h a b =
  let oa = History.op h a and ob = History.op h b in
  Op.same_proc oa ob && oa.Op.index < ob.Op.index

(* product over locations of coherence orders respecting each
   processor's program order on its own writes *)
let exists_per_loc_co h ~f =
  let nlocs = History.nlocs h in
  let per_loc =
    Array.init nlocs (fun l -> Array.of_list (History.writes_to h l))
  in
  let chosen = Array.make (max 1 nlocs) [||] in
  let rec go l =
    if l = nlocs then f (Array.sub chosen 0 nlocs)
    else
      exists_perm per_loc.(l) ~precedes:(same_proc_before h) ~f:(fun ord ->
          chosen.(l) <- Array.copy ord;
          go (l + 1))
  in
  go 0

let view_specs h (params : Model.params) =
  let n = History.nops h in
  match params.Model.population with
  | Model.Shared_all -> [ (-1, List.init n Fun.id) ]
  | Model.Own_plus_writes | Model.Per_proc_all | Model.Own_plus_updates ->
      List.init (History.nprocs h) (fun p ->
          let keep a =
            let o = History.op h a in
            o.Op.proc = p || in_every_view h params o
          in
          (p, List.filter keep (List.init n Fun.id)))
  | Model.Per_location ->
      List.init (History.nlocs h) (fun l ->
          (-1, List.filter (fun a -> (History.op h a).Op.loc = l) (List.init n Fun.id)))
  | Model.Per_proc_block partition ->
      let block, blocks = blocks_of h partition in
      List.concat
        (List.init (History.nprocs h) (fun p ->
             List.filter_map
               (fun b ->
                 let ops =
                   List.filter
                     (fun a ->
                       let o = History.op h a in
                       block.(o.Op.loc) = b
                       && (o.Op.proc = p || Op.is_write o))
                     (List.init n Fun.id)
                 in
                 if ops = [] then None else Some (p, ops))
               (List.init blocks Fun.id)))

(* backtracking placement of one view: order-predecessor readiness plus
   the legality walk (View.exists restated, without memoization).  The
   save/restore pair covers reads too: a queue dequeue consumes the
   head, so a backtracked read must put the cell back. *)
let place_view h ~ops ~order ~legality ~writer =
  let n = History.nops h in
  let ids = Array.of_list ops in
  let k = Array.length ids in
  let placed = Array.make (max 1 n) false in
  let in_view = Array.make (max 1 n) false in
  Array.iter (fun a -> in_view.(a) <- true) ids;
  let mem = initial_cells h legality in
  let ready a =
    let ok = ref true in
    for b = 0 to n - 1 do
      if order.(b).(a) && in_view.(b) && not placed.(b) then ok := false
    done;
    !ok
  in
  let rec go depth =
    depth = k
    ||
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i < k do
      let a = ids.(!i) in
      if (not placed.(a)) && ready a then begin
        let op = History.op h a in
        match view_step h ~legality ~writer ~placed mem.(op.Op.loc) op with
        | Some c ->
            let saved = mem.(op.Op.loc) in
            mem.(op.Op.loc) <- c;
            placed.(a) <- true;
            if go (depth + 1) then found := true
            else begin
              placed.(a) <- false;
              mem.(op.Op.loc) <- saved
            end
        | None -> ()
      end;
      incr i
    done;
    !found
  in
  go 0

let search_exn (params : Model.params) h =
  let n = History.nops h in
  let specs = view_specs h params in
  let po = fresh_rel n in
  add_po h po;
  let labeled = Array.of_list (History.labeled h) in
  let orders = view_orders h params in
  let bracketed = List.mem Model.Own_ppo_bracketed params.Model.ordering in
  let co_needed = needs_co params in
  let try_candidate ~writer ~sync ~co ~impose =
    let order_of = orders ~writer ~sync ~co in
    List.for_all
      (fun (p, ops) ->
        let order = order_of p in
        (match impose with Some m -> union_into order m | None -> ());
        place_view h ~ops ~order ~legality:params.Model.legality ~writer)
      specs
  in
  let with_co ~writer ~sync f =
    match params.Model.mutual with
    | Model.Global_write_order ->
        let writes = Array.of_list (History.writes h) in
        exists_perm writes ~precedes:(same_proc_before h) ~f:(fun ws ->
            let per_loc = Array.make (max 1 (History.nlocs h)) [] in
            Array.iter
              (fun w ->
                let l = (History.op h w).Op.loc in
                per_loc.(l) <- w :: per_loc.(l))
              ws;
            let per_loc =
              Array.map (fun l -> Array.of_list (List.rev l)) per_loc
            in
            let impose = fresh_rel n in
            add_total impose ws;
            f ~writer ~sync ~co:(Some (build_co h per_loc)) ~impose:(Some impose))
    | _ when co_needed ->
        exists_per_loc_co h ~f:(fun per_loc ->
            let co = build_co h per_loc in
            let impose = fresh_rel n in
            add_co_rel h impose co;
            f ~writer ~sync ~co:(Some co) ~impose:(Some impose))
    | _ -> f ~writer ~sync ~co:None ~impose:None
  in
  let with_sync ~writer f =
    if not (sync_required params) then f ~writer ~sync:None
    else
      exists_perm labeled
        ~precedes:(fun a b -> po.(a).(b))
        ~f:(fun seq ->
          (params.Model.mutual <> Model.Labeled_sc
          || labeled_seq_legal h ~writer seq)
          && f ~writer ~sync:(Some (Array.copy seq)))
  in
  let with_rf f =
    if rf_required params then
      exists_rf h ~legality:params.Model.legality ~f:(fun writer ->
          ((not bracketed) || acquire_rf_ok h writer) && f ~writer)
    else f ~writer:(Array.make (max 1 n) History.init)
  in
  with_rf (fun ~writer ->
      with_sync ~writer (fun ~writer ~sync ->
          with_co ~writer ~sync try_candidate))

let search params h =
  try search_exn params h
  with Reject msg -> invalid_arg ("Kernel.search: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)

let default_max_search_ops = 8

let kernel_verifies = Smem_obs.Metrics.counter "cert.kernel_verifies"
let kernel_rejections = Smem_obs.Metrics.counter "cert.kernel_rejections"
let kernel_unverified_cap = Smem_obs.Metrics.counter "cert.kernel_unverified_cap"

let verify_checked ~max_search_ops (c : Cert.t) =
  try
    if c.Cert.version <> Cert.version then
      reject "unsupported certificate version %d" c.Cert.version;
    let params =
      match Registry.find c.Cert.model with
      | None -> reject "unknown model %S" c.Cert.model
      | Some m -> m.Model.params
    in
    let h =
      try Cert.history c
      with Invalid_argument msg -> reject "malformed history: %s" msg
    in
    match (c.Cert.verdict, c.Cert.evidence) with
    | Cert.Allowed, Cert.Witness { views; rf; sync; notes = _ } ->
        verify_witness h params ~views ~rf ~sync;
        Ok Complete
    | Cert.Forbidden, Cert.Frontier { rf_maps; co_orders } ->
        let rf', co' = candidate_space h in
        if rf' <> rf_maps || co' <> co_orders then
          reject
            "frontier summary does not match the history (claimed %d rf maps \
             x %d coherence orders, recomputed %d x %d)"
            rf_maps co_orders rf' co';
        if History.nops h <= max_search_ops then begin
          if search_exn params h then
            reject
              "the history is allowed: independent enumeration found a witness";
          Ok Complete
        end
        else Ok (Unverified_cap { nops = History.nops h; max_search_ops })
    | Cert.Allowed, Cert.Frontier _ ->
        reject "an allowed verdict must carry witness evidence"
    | Cert.Forbidden, Cert.Witness _ ->
        reject "a forbidden verdict must carry frontier evidence"
  with Reject msg -> Error msg

let verify ?(max_search_ops = default_max_search_ops) (c : Cert.t) =
  Smem_obs.Metrics.incr kernel_verifies;
  let result =
    Smem_obs.Trace.span ~cat:"cert"
      ~args:
        [
          ("model", Smem_obs.Json.Str c.Cert.model);
          ( "test",
            match c.Cert.test with
            | Some t -> Smem_obs.Json.Str t
            | None -> Smem_obs.Json.Null );
        ]
      "cert/kernel-verify"
      (fun () -> verify_checked ~max_search_ops c)
  in
  (match result with
  | Error _ -> Smem_obs.Metrics.incr kernel_rejections
  | Ok (Unverified_cap _) -> Smem_obs.Metrics.incr kernel_unverified_cap
  | Ok Complete -> ());
  result
