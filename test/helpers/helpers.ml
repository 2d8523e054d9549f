(* Shared test infrastructure: QCheck generators for histories and
   machine programs, and validators that check witnesses independently
   of the engines that produced them. *)

module H = Smem_core.History
module Op = Smem_core.Op
module Rel = Smem_relation.Rel

(* ---------------- generators ---------------- *)

let loc_names = [| "x"; "y"; "z" |]

(* A random event: location in [0, nlocs), write values in [1, maxv],
   read values in [0, maxv] (0 = possibly the initial value).

   [labeled_allowed = `No] generates only ordinary accesses; [`Mixed]
   draws the attribute independently per access; [`Separated] dedicates
   the last location to synchronization (all its accesses labeled,
   everything else ordinary) — the "properly labeled" discipline the
   paper assumes in §5. *)
let gen_event ~nlocs ~maxv ~labeled_allowed =
  let open QCheck.Gen in
  let* loc = int_range 0 (nlocs - 1) in
  let* labeled =
    match labeled_allowed with
    | `No -> return false
    | `Mixed -> bool
    | `Separated -> return (loc = nlocs - 1)
  in
  let* is_write = bool in
  if is_write then
    let* v = int_range 1 maxv in
    return (H.write ~labeled loc_names.(loc) v)
  else
    let* v = int_range 0 maxv in
    return (H.read ~labeled loc_names.(loc) v)

let gen_history ?(labeled_allowed = `No) ?(max_procs = 3) ?(max_ops = 3)
    ?(nlocs = 2) ?(maxv = 2) () =
  let open QCheck.Gen in
  let* nprocs = int_range 2 max_procs in
  let* rows =
    list_repeat nprocs
      (let* n = int_range 1 max_ops in
       list_repeat n (gen_event ~nlocs ~maxv ~labeled_allowed))
  in
  return (H.make rows)

(* Histories with random real-time intervals on some operations, for
   the atomic-memory model. *)
let gen_timed_history ?(max_procs = 3) ?(max_ops = 3) ?(nlocs = 2) ?(maxv = 2)
    () =
  let open QCheck.Gen in
  let* nprocs = int_range 2 max_procs in
  let timed_event =
    let* e = gen_event ~nlocs ~maxv ~labeled_allowed:`No in
    let* timed = bool in
    if not timed then return e
    else
      let* s = int_range 0 6 in
      let* d = int_range 0 3 in
      (* rebuild the event with an interval; gen_event yields opaque
         events, so draw the fields again instead *)
      ignore e;
      let* loc = int_range 0 (nlocs - 1) in
      let* is_write = bool in
      if is_write then
        let* v = int_range 1 maxv in
        return (H.write ~at:(s, s + d) loc_names.(loc) v)
      else
        let* v = int_range 0 maxv in
        return (H.read ~at:(s, s + d) loc_names.(loc) v)
  in
  let* rows =
    list_repeat nprocs
      (let* n = int_range 1 max_ops in
       list_repeat n timed_event)
  in
  return (H.make rows)

let arb_timed_history ?max_procs ?max_ops ?nlocs ?maxv () =
  QCheck.make
    ~print:(fun h -> Format.asprintf "%a" H.pp h)
    (gen_timed_history ?max_procs ?max_ops ?nlocs ?maxv ())

let print_history h = Format.asprintf "%a" H.pp h

let arb_history ?labeled_allowed ?max_procs ?max_ops ?nlocs ?maxv () =
  QCheck.make ~print:print_history
    (gen_history ?labeled_allowed ?max_procs ?max_ops ?nlocs ?maxv ())

(* Random machine programs: write values are distinct per processor so
   traces stay informative. *)
let gen_program ?(labeled_allowed = `No) ?(max_procs = 3) ?(max_ops = 3)
    ?(nlocs = 2) () =
  let open QCheck.Gen in
  let module D = Smem_machine.Driver in
  let* nprocs = int_range 2 max_procs in
  let counter = ref 0 in
  let* code =
    list_repeat nprocs
      (let* n = int_range 1 max_ops in
       list_repeat n
         (let* loc = int_range 0 (nlocs - 1) in
          let* labeled =
            match labeled_allowed with
            | `No -> return false
            | `Mixed -> bool
            | `Separated -> return (loc = nlocs - 1)
          in
          let* is_write = bool in
          if is_write then begin
            incr counter;
            return
              { D.kind = Op.Write; loc; value = !counter; labeled }
          end
          else return { D.kind = Op.Read; loc; value = 0; labeled }))
  in
  return
    {
      D.nprocs;
      nlocs;
      loc_names = Array.sub loc_names 0 nlocs;
      code = Array.of_list code;
    }

let print_program (p : Smem_machine.Driver.program) =
  let event (i : Smem_machine.Driver.instr) =
    Printf.sprintf "%s%s %s %d"
      (match i.Smem_machine.Driver.kind with Op.Read -> "r" | Op.Write -> "w")
      (if i.labeled then "*" else "")
      p.loc_names.(i.loc) i.value
  in
  Array.to_list p.code
  |> List.mapi (fun i row ->
         Printf.sprintf "p%d: %s" i (String.concat " ; " (List.map event row)))
  |> String.concat "\n"

let arb_program ?labeled_allowed ?max_procs ?max_ops ?nlocs () =
  QCheck.make ~print:print_program
    (gen_program ?labeled_allowed ?max_procs ?max_ops ?nlocs ())

(* ---------------- independent validators ---------------- *)

(* Value-legality of a sequence: every read returns the most recent
   write to its location (or 0).  This re-implements legality naively,
   independently of View/Engine. *)
let legal_sequence h ids =
  let mem = Hashtbl.create 7 in
  List.for_all
    (fun id ->
      let op = H.op h id in
      if Op.is_write op then begin
        Hashtbl.replace mem op.Op.loc op.Op.value;
        true
      end
      else
        let current =
          match Hashtbl.find_opt mem op.Op.loc with Some v -> v | None -> 0
        in
        current = op.Op.value)
    ids

(* Does a sequence respect a relation (restricted to the ids present)? *)
let respects h rel ids =
  ignore h;
  let position = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace position id i) ids;
  let ok = ref true in
  Rel.iter_pairs
    (fun a b ->
      match (Hashtbl.find_opt position a, Hashtbl.find_opt position b) with
      | Some pa, Some pb -> if pa >= pb then ok := false
      | _ -> ())
    rel;
  !ok

(* A view of processor p must contain exactly p's ops plus others'
   writes. *)
let correct_view_population h p ids =
  let expected = H.view_ops_writes h p in
  let got = Smem_relation.Bitset.of_list (H.nops h) ids in
  Smem_relation.Bitset.equal expected got


(* ---------------- composed models ---------------- *)

(* The composer's models under test: every valid single-ordering
   combination of operations, mutual consistency and one base order
   (39 models), plus three sets of two bases, each base built from its
   own inputs — ppo with the owner's po (at the CLI defaults), po with
   semi-causality under coherence, and the causal order with po-loc
   under a global write order. *)
let composed =
  let module B = Smem_core.Build in
  let module M = Smem_core.Model in
  let make operations mutual orderings =
    let key =
      Printf.sprintf "custom(%s,%s,%s)"
        (B.operations_to_string operations)
        (B.mutual_to_string mutual)
        (String.concat "+" (List.map M.ordering_to_string orderings))
    in
    match B.make ~key ~name:key ~operations ~mutual ~orderings () with
    | m -> Some m
    | exception Invalid_argument _ -> None
  in
  List.concat_map
    (fun operations ->
      List.concat_map
        (fun mutual ->
          List.filter_map (fun o -> make operations mutual [ o ]) B.composable)
        [ `No_agreement; `Coherence; `Global_write_order; `Total_agreement ])
    [ `All_ops; `Writes_of_others ]
  @ List.filter_map Fun.id
      [
        make `Writes_of_others `No_agreement
          [ M.Partial_program_order; M.Own_program_order ];
        make `Writes_of_others `Coherence [ M.Program_order; M.Semi_causal ];
        make `Writes_of_others `Global_write_order [ M.Causal_order; M.Po_loc ];
      ]
