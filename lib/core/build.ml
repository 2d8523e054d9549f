module Bitset = Smem_relation.Bitset
module Rel = Smem_relation.Rel
module Perm = Smem_relation.Perm

type operations = [ `All_ops | `Writes_of_others ]

type mutual =
  [ `No_agreement | `Coherence | `Global_write_order | `Total_agreement ]

type ordering = [ `Po | `Ppo | `Po_loc | `Own_po | `Causal | `Semi_causal ]

let is_dynamic = function `Causal | `Semi_causal -> true | _ -> false

let needs_rf orderings = List.exists is_dynamic orderings

let view_ops h operations proc =
  match operations with
  | `All_ops -> History.all_ops_set h
  | `Writes_of_others -> History.view_ops_writes h proc

let witness ~operations ~mutual ~orderings h =
  let nops = History.nops h in
  let nprocs = History.nprocs h in
  let found = ref None in
  (* Everything that does not depend on the enumerated (rf, co)
     candidate is hoisted here and computed once per history: the
     shared po/ppo/po-loc relations, the per-view static ordering
     unions, and the view populations.  The old code rebuilt all of it
     inside the Reads_from.iter × Coherence.iter product, once per
     candidate per processor. *)
  let po = lazy (Orders.po h) in
  let ppo = lazy (Orders.ppo h) in
  let po_loc = lazy (Orders.po_loc h) in
  let static_orderings, dynamic_orderings =
    List.partition (fun o -> not (is_dynamic o)) orderings
  in
  let static_order proc =
    let acc = Rel.create nops in
    List.iter
      (fun o ->
        let rel =
          match o with
          | `Po -> Lazy.force po
          | `Ppo -> Lazy.force ppo
          | `Po_loc -> Lazy.force po_loc
          | `Own_po -> Orders.po_of_proc h proc
          | `Causal | `Semi_causal -> assert false
        in
        Rel.union_into ~into:acc rel)
      static_orderings;
    acc
  in
  let view_procs =
    match mutual with
    | `Total_agreement -> [ -1 ]
    | _ -> List.init nprocs Fun.id
  in
  let static_views =
    List.map
      (fun p ->
        let ops =
          if p = -1 then History.all_ops_set h else view_ops h operations p
        in
        (p, ops, static_order p))
      view_procs
  in
  (* The dynamic orderings (causal, semi-causal) are candidate-dependent
     but processor-independent, so they are computed once per candidate
     and unioned into each view's hoisted static order. *)
  let dyn_rel ~rf ~co =
    match dynamic_orderings with
    | [] -> None
    | ds ->
        let acc = Rel.create nops in
        List.iter
          (fun o ->
            let rel =
              match o with
              | `Causal ->
                  Orders.causal_with h ~po:(Lazy.force po) ~rf:(Option.get rf)
              | `Semi_causal ->
                  Orders.sem_with h ~ppo:(Lazy.force ppo) ~rf:(Option.get rf)
                    ~co:(Option.get co)
              | _ -> assert false
            in
            Rel.union_into ~into:acc rel)
          ds;
        Some acc
  in
  let order_for static = function
    | None -> static
    | Some dyn -> Rel.union static dyn
  in
  let engine_a ~rf ~co ~rf_rel ~extra =
    let dyn = dyn_rel ~rf:(Some rf) ~co:(Some co) in
    let views =
      List.map
        (fun (p, ops, static) ->
          { Engine.proc = p; ops; order = order_for static dyn })
        static_views
    in
    match Engine.check h ~rf_rel ~rf ~co ~extra ~views with
    | Some w ->
        found := Some w;
        true
    | None -> false
  in
  let _ : bool =
    match mutual with
    | `No_agreement ->
        (* Independent views: engine B, with reads-from enumeration only
           when an ordering needs it. *)
        let statics = Array.of_list static_views in
        let attempt rf =
          let dyn = dyn_rel ~rf ~co:None in
          let rec go p acc =
            if p = nprocs then begin
              found := Some (Witness.per_proc (List.rev acc) ~notes:[]);
              true
            end
            else
              let _, ops, static = statics.(p) in
              let order = order_for static dyn in
              if not (Rel.acyclic order) then false
              else
                match View.exists h ~ops ~order ~legality:View.By_value with
                | None -> false
                | Some seq -> go (p + 1) ((p, seq) :: acc)
          in
          go 0 []
        in
        if needs_rf orderings then Reads_from.iter h ~f:(fun rf -> attempt (Some rf))
        else attempt None
    | `Coherence | `Total_agreement ->
        let extra = Rel.create nops in
        Reads_from.iter h ~f:(fun rf ->
            let rf_rel = Engine.rf_edges h ~rf in
            Coherence.iter h ~f:(fun co -> engine_a ~rf ~co ~rf_rel ~extra))
    | `Global_write_order ->
        let writes = Array.of_list (History.writes h) in
        Reads_from.iter h ~f:(fun rf ->
            let rf_rel = Engine.rf_edges h ~rf in
            Perm.iter_constrained writes ~precedes:(Coherence.default_respect h)
              ~f:(fun worder ->
                Stats.count_co ();
                let co = Coherence.of_write_order h worder in
                engine_a ~rf ~co ~rf_rel ~extra:(Orders.chain nops worder)))
  in
  !found

let make ~key ~name ?description ~operations ~mutual ~orderings () =
  if mutual = `Total_agreement && operations <> `All_ops then
    invalid_arg "Build.make: total agreement requires all operations in views";
  if List.mem `Semi_causal orderings && mutual = `No_agreement then
    invalid_arg "Build.make: semi-causality needs a coherence witness";
  if List.mem `Own_po orderings && mutual = `Total_agreement then
    invalid_arg
      "Build.make: own-po needs per-processor views, and total agreement \
       has one shared view";
  let description =
    match description with
    | Some d -> d
    | None ->
        Printf.sprintf "composed model: operations=%s, mutual=%s, ordering=%s"
          (match operations with `All_ops -> "all" | `Writes_of_others -> "writes")
          (match mutual with
          | `No_agreement -> "none"
          | `Coherence -> "coherence"
          | `Global_write_order -> "global-writes"
          | `Total_agreement -> "total")
          (String.concat "+"
             (List.map
                (function
                  | `Po -> "po"
                  | `Ppo -> "ppo"
                  | `Po_loc -> "po-loc"
                  | `Own_po -> "own-po"
                  | `Causal -> "causal"
                  | `Semi_causal -> "semi-causal")
                orderings))
  in
  Model.make ~key ~name ~description (witness ~operations ~mutual ~orderings)

let parse_operations = function
  | "all" -> Ok `All_ops
  | "writes" -> Ok `Writes_of_others
  | s -> Error (Printf.sprintf "unknown operation set %S (all | writes)" s)

let parse_mutual = function
  | "none" -> Ok `No_agreement
  | "coherence" -> Ok `Coherence
  | "global-writes" -> Ok `Global_write_order
  | "total" -> Ok `Total_agreement
  | s ->
      Error
        (Printf.sprintf
           "unknown mutual consistency %S (none | coherence | global-writes | total)"
           s)

let parse_ordering = function
  | "po" -> Ok `Po
  | "ppo" -> Ok `Ppo
  | "po-loc" -> Ok `Po_loc
  | "own-po" -> Ok `Own_po
  | "causal" -> Ok `Causal
  | "semi-causal" -> Ok `Semi_causal
  | s ->
      Error
        (Printf.sprintf
           "unknown ordering %S (po | ppo | po-loc | own-po | causal | semi-causal)"
           s)
