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

(* ---------------- full enumerations ---------------- *)

(* Every linear extension of [r] restricted to [universe] (default: the
   whole universe), in the order of a backtracking walk that tries the
   ready elements in increasing index order; stops, returning [true], as
   soon as [f] accepts.  [f]'s array is reused: copy it to keep it. *)
let linear_extensions ?universe r ~f =
  let n = Rel.size r in
  let universe =
    match universe with
    | Some u -> u
    | None -> Smem_relation.Bitset.of_list n (List.init n Fun.id)
  in
  let mem = Smem_relation.Bitset.mem universe in
  let members = Smem_relation.Bitset.elements universe in
  let indeg = Array.make n 0 in
  Rel.iter_pairs
    (fun a b -> if mem a && mem b then indeg.(b) <- indeg.(b) + 1)
    r;
  let out = Array.make (List.length members) (-1) in
  let placed = Array.make n false in
  let shift a d =
    Rel.iter_successors (fun b -> if mem b then indeg.(b) <- indeg.(b) + d) r a
  in
  let rec go depth =
    depth = Array.length out && f out
    || depth < Array.length out
       && List.exists
            (fun a ->
              (not placed.(a))
              && indeg.(a) = 0
              &&
              (out.(depth) <- a;
               placed.(a) <- true;
               shift a (-1);
               let accepted = go (depth + 1) in
               shift a 1;
               placed.(a) <- false;
               accepted))
            members
  in
  go 0

(* The enumerator as it was before labeled orders were searched by
   prefix: a reads-from map, then every linear extension of program
   order on the labeled operations, each handed whole to
   [Leaf.with_sync], then the coherence choice; the differential
   baseline of the prefix walk.  [Leaf.with_sync] applies weak
   ordering's value rule, which the full enumeration did not have: an
   order it refutes must be one whose views fail anyway, and the
   reference checks that by searching them under the order
   ([Failure] when they all succeed). *)
let reference_witness (p : Smem_core.Model.params) h =
  let module Enum = Smem_core.Enum in
  let module Leaf = Smem_core.Leaf in
  let module Model = Smem_core.Model in
  let leaf = Leaf.prepare p h in
  let found = ref None in
  let accept = function
    | Some _ as w ->
        found := w;
        true
    | None -> false
  in
  let co_phase =
    match Enum.co_mode p with
    | Enum.Co_none -> fun stage -> accept (Leaf.check stage Leaf.No_co)
    | Enum.Co_per_loc ->
        fun stage ->
          Smem_core.Coherence.iter h ~f:(fun co ->
              accept (Leaf.check stage (Leaf.Co co)))
    | Enum.Co_global ->
        let writes = Array.of_list (H.writes h) in
        fun stage ->
          Smem_relation.Perm.iter_constrained writes
            ~precedes:(Smem_core.Coherence.default_respect h) ~f:(fun worder ->
              accept (Leaf.check stage (Leaf.Write_order worder)))
  in
  let views_accept stage seq =
    p.Model.legality = Model.Value_legal
    && Enum.co_mode p = Enum.Co_none
    &&
    let total = Smem_core.Orders.total_order (H.nops h) seq in
    List.for_all
      (fun (v : Smem_core.Engine.view_spec) ->
        Option.is_some
          (Smem_core.View.exists h ~ops:v.Smem_core.Engine.ops
             ~order:(Rel.union v.Smem_core.Engine.order total)
             ~legality:Smem_core.View.By_value))
      (Leaf.views stage)
  in
  let sync_phase stage =
    if not (Enum.sync_needed p) then co_phase stage
    else
      let labeled =
        Smem_relation.Bitset.of_list (H.nops h) (H.labeled h)
      in
      linear_extensions ~universe:labeled (Smem_core.Orders.po h) ~f:(fun seq ->
          match Leaf.with_sync stage seq with
          | Some stage -> co_phase stage
          | None ->
              if p.Model.mutual = Model.Labeled_total && views_accept stage seq
              then
                failwith
                  (Format.asprintf
                     "the labeled step refutes an order the views accept: %a"
                     (H.pp_ops h) (Array.to_list seq));
              false)
  in
  let (_ : bool) =
    if Enum.rf_needed p then
      let skip r =
        p.Model.legality = Model.Object_legal
        && Smem_core.Sort.of_loc h (H.op h r).Op.loc = Smem_core.Sort.Counter
      in
      Smem_core.Reads_from.iter ~skip h ~f:(fun rf ->
          match Leaf.with_rf leaf rf with
          | Some stage -> sync_phase stage
          | None -> false)
    else sync_phase leaf
  in
  !found

(* Canonicalization as it was before rows were placed one at a time:
   every processor order encoded whole, with its own renaming, and the
   least encoding kept; the differential baseline of [Canon.encode]. *)
let reference_encode h =
  let module Sort = Smem_core.Sort in
  let encode_order order =
    let buf = Buffer.create 256 in
    let loc_map = Hashtbl.create 8 in
    let value_maps = Hashtbl.create 8 in
    let rename_loc l =
      match Hashtbl.find_opt loc_map l with
      | Some l' -> l'
      | None ->
          let l' = Hashtbl.length loc_map in
          Hashtbl.add loc_map l l';
          Hashtbl.add value_maps l' (Hashtbl.create 4);
          l'
    in
    let rename_value l' v =
      if v = 0 then 0
      else
        let vm = Hashtbl.find value_maps l' in
        match Hashtbl.find_opt vm v with
        | Some v' -> v'
        | None ->
            let v' = Hashtbl.length vm + 1 in
            Hashtbl.add vm v v';
            v'
    in
    List.iter
      (fun p ->
        Buffer.add_char buf '|';
        Array.iter
          (fun id ->
            let op = H.op h id in
            let sort = Sort.of_loc h op.Op.loc in
            let l' = rename_loc op.Op.loc in
            let v' =
              match sort with
              | Sort.Counter -> op.Op.value
              | Sort.Register | Sort.Queue -> rename_value l' op.Op.value
            in
            Buffer.add_char buf
              (match op.Op.kind with Op.Read -> 'r' | Op.Write -> 'w');
            if Op.is_labeled op then Buffer.add_char buf '*';
            (match sort with
            | Sort.Register -> ()
            | Sort.Queue -> Buffer.add_char buf 'q'
            | Sort.Counter -> Buffer.add_char buf 'c');
            Buffer.add_string buf (string_of_int l');
            Buffer.add_char buf '=';
            Buffer.add_string buf (string_of_int v');
            (match H.interval h id with
            | None -> ()
            | Some (s, f) ->
                Buffer.add_char buf '@';
                Buffer.add_string buf (string_of_int s);
                Buffer.add_char buf ':';
                Buffer.add_string buf (string_of_int f));
            Buffer.add_char buf ';')
          (H.proc_ops h p))
      order;
    Buffer.contents buf
  in
  let rec orders = function
    | [] -> [ [] ]
    | rows ->
        List.concat_map
          (fun p ->
            List.map (List.cons p) (orders (List.filter (( <> ) p) rows)))
          rows
  in
  List.fold_left
    (fun best order -> min best (encode_order order))
    (encode_order (List.init (H.nprocs h) Fun.id))
    (orders (List.init (H.nprocs h) Fun.id))

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

(* [legal_sequence] under SPARC's value axiom (store forwarding): a read
   first sees its processor's latest earlier write to its location that
   the sequence has not reached yet, and memory only when there is
   none. *)
let legal_forwarding_sequence h ids =
  let mem = Hashtbl.create 7 and placed = Hashtbl.create 7 in
  List.for_all
    (fun id ->
      let op = H.op h id in
      Hashtbl.replace placed id ();
      if Op.is_write op then begin
        Hashtbl.replace mem op.Op.loc op.Op.value;
        true
      end
      else
        let buffered =
          Array.fold_left
            (fun acc w ->
              let o = H.op h w in
              if
                Op.is_write o && o.Op.loc = op.Op.loc
                && o.Op.index < op.Op.index
                && not (Hashtbl.mem placed w)
              then Some o.Op.value
              else acc)
            None (H.proc_ops h op.Op.proc)
        in
        let current =
          match buffered with
          | Some v -> v
          | None -> (
              match Hashtbl.find_opt mem op.Op.loc with Some v -> v | None -> 0)
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
