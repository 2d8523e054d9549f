module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel

type view_spec = { proc : int; ops : Bitset.t; order : Rel.t }

let rf_edges h ~rf =
  let rel = Rel.create (History.nops h) in
  List.iter
    (fun r ->
      let w = Reads_from.writer rf r in
      if w <> History.init then Rel.add rel w r)
    (History.reads h);
  rel

let fr_edges h ~rf ~co =
  let rel = Rel.create (History.nops h) in
  List.iter
    (fun r ->
      let w = Reads_from.writer rf r in
      let loc = (History.op h r).Op.loc in
      if w = History.init then
        List.iter (fun w' -> if w' <> r then Rel.add rel r w') (History.writes_to h loc)
      else List.iter (fun w' -> Rel.add rel r w') (Coherence.successors_from co w))
    (History.reads h);
  rel

let check ?rf_rel h ~rf ~co ~extra ~views =
  let rf_rel = match rf_rel with Some r -> r | None -> rf_edges h ~rf in
  let base = Rel.union rf_rel (fr_edges h ~rf ~co) in
  Rel.union_into ~into:base (Coherence.to_rel co);
  Rel.union_into ~into:base extra;
  let solve_view spec =
    let graph = Rel.restrict (Rel.union spec.order base) spec.ops in
    Stats.count_toposort ();
    (* Span-per-toposort is the finest trace granularity; the [active]
       guard keeps the untraced hot path free of even the closure
       allocation. *)
    let sorted =
      if Smem_obs.Trace.active () then
        Smem_obs.Trace.span ~cat:"engine"
          ~args:[ ("proc", Smem_obs.Json.Int spec.proc) ]
          "engine/toposort"
          (fun () -> Rel.topological_sort graph)
      else Rel.topological_sort graph
    in
    match sorted with
    | None -> None
    | Some order ->
        let seq = List.filter (Bitset.mem spec.ops) order in
        Some (spec.proc, seq)
  in
  (* Notes are rendered only when someone reads them: a verdict-only
     check never pays for the two asprintf calls. *)
  let notes () =
    let rf_note = Format.asprintf "reads-from: %a" (Reads_from.pp h) rf in
    let co_note = Format.asprintf "%a" (Coherence.pp h) co in
    if String.trim co_note = "" then [ rf_note ] else [ rf_note; co_note ]
  in
  let rec solve acc = function
    | [] ->
        Some
          (Witness.per_proc ~rf:(Reads_from.pairs h rf) (List.rev acc) ~notes)
    | spec :: rest -> (
        match solve_view spec with
        | None -> None
        | Some view -> solve (view :: acc) rest)
  in
  solve [] views
