(* ---- the catalogue ------------------------------------------------ *)

(* A model is a row: key, display name, description, and the §2
   parameter quadruple (population, ordering, mutual, legality). *)
let row key name description population ordering mutual legality =
  Enum.model ~key ~name ~description
    { Model.population; ordering; mutual; legality }

(* Partition consistency (Cheng–Higham–Kawash): a view per processor per
   block of locations.  [inst_pc_part] has checked the arguments. *)
let pc_part key name description partition =
  row key name description (Model.Per_proc_block partition)
    [ Model.Program_order ] Model.Coherence_agreement Model.Value_legal

let pc_part_blocks k =
  pc_part
    (Printf.sprintf "pc-part(blocks=%d)" k)
    (Printf.sprintf "Partition Consistency (%d blocks)" k)
    (Printf.sprintf
       "Partition consistency over the mod-%d location partition: one view \
        per processor per block (own operations on the block plus all \
        writes to it) respecting program order, all views agreeing on a \
        per-location write serialization (Cheng-Higham-Kawash). One block \
        is PC-G; singleton blocks are coherence."
       k)
    (Model.Modulo k)

let pc_part_named blocks =
  let spec = String.concat "|" (List.map (String.concat ".") blocks) in
  pc_part
    (Printf.sprintf "pc-part(partition=%s)" spec)
    "Partition Consistency (named partition)"
    (Printf.sprintf
       "Partition consistency over the explicit location partition %s \
        (unlisted locations get singleton blocks)."
       spec)
    (Model.Named blocks)

(* Session guarantees (Terry et al. 1994, via Almeida): views ordered
   only by the enabled guarantees; [wfr] commits to a reads-from map,
   so it needs writer legality. *)
let session ~ryw ~mr ~mw ~wfr =
  let ordering = Model.Session { ryw; mr; mw; wfr } in
  let key = Model.ordering_to_string ordering in
  let on b = if b then "on" else "off" in
  row key ("Session Guarantees " ^ key)
    (Printf.sprintf
       "Session guarantees (Terry et al.): read-your-writes %s, monotonic \
        reads %s, monotonic writes %s, writes-follow-reads %s.  \
        Per-processor views of own operations plus all writes, ordered \
        only by the enabled guarantees."
       (on ryw) (on mr) (on mw) (on wfr))
    Model.Own_plus_writes [ ordering ] Model.No_mutual
    (if wfr then Model.Writer_legal else Model.Value_legal)

(* Strongest to weakest by the extended Figure 5; [n] are the paper's
   references. *)
let all =
  Model.
    [
      (* Misra [16], Herlihy–Wing [10]: stronger than SC (§6). *)
      row "atomic" "Atomic Memory"
        "Sequential consistency plus real-time precedence: the shared view \
         orders an operation before any operation invoked after its \
         response (Misra 1986; linearizability).  Coincides with SC on \
         histories without timing information."
        Shared_all [ Program_order; Real_time ] No_mutual Writer_legal;
      (* Lamport [13], §3.1. *)
      row "sc" "Sequential Consistency"
        "One legal interleaving of all operations, respecting program \
         order, shared by all processors (Lamport 1979)."
        Shared_all [ Program_order ] No_mutual Writer_legal;
      (* Sindhu–Frailong–Cekleov [17], §3.2. *)
      row "tso" "Total Store Ordering"
        "Per-processor views of own operations plus all writes; a single \
         global write order shared by all views; partial program order \
         (reads may bypass earlier writes to other locations)."
        Own_plus_writes [ Partial_program_order ] Global_write_order
        Writer_legal;
      (* Sindhu–Frailong–Cekleov [17]: SPARC's axioms, whose value
         axiom §3.2's views leave out (EXPERIMENTS.md finding 1). *)
      row "tso-op" "SPARC Total Store Ordering"
        "SPARC TSO (Sindhu, Frailong, Cekleov), the histories of the \
         store-buffer machine of section 3.2: TSO's views and global write \
         order under the LoadOp and StoreStore axioms, where a read may \
         return its processor's latest earlier write to its location \
         before memory does (store forwarding)."
        Own_plus_writes [ Load_op_store_store ] Global_write_order Forwarding;
      (* Gharachorloo et al. for DASH [6], §3.3. *)
      row "pc" "Processor Consistency (DASH)"
        "Per-processor views of own operations plus all writes; coherence \
         as mutual consistency; semi-causality (ppo + remote writes-before \
         + remote reads-before) as the ordering requirement."
        Own_plus_writes [ Semi_causal ] Coherence_agreement Writer_legal;
      (* Gharachorloo et al. [6], §3.4, reading the release condition as
         "precedes" where the paper says "follows" (DESIGN.md). *)
      row "rc-sc" "Release Consistency (RC_sc)"
        "Release consistency with sequentially consistent labeled \
         (synchronization) operations, as in the DASH architecture."
        Own_plus_writes [ Own_ppo_bracketed ] Labeled_sc Writer_legal;
      row "rc-pc" "Release Consistency (RC_pc)"
        "Release consistency with processor consistent labeled \
         (synchronization) operations, as in the DASH architecture."
        Own_plus_writes [ Own_ppo_bracketed ] Labeled_pc Writer_legal;
      (* Dubois–Scheurich–Briggs [1], cited in §3.4; incomparable with RC. *)
      row "wo" "Weak Ordering"
        "Selective synchronization with two-way fences: one global legal \
         order on labeled (synchronizing) accesses, every operation \
         ordered across each of its processor's synchronization points \
         (Dubois, Scheurich, Briggs 1988)."
        Own_plus_writes [ Sync_fences ] Labeled_total Value_legal;
      (* Goodman [9] per Ahamad et al. [2]; incomparable with DASH PC. *)
      row "pc-g" "Processor Consistency (Goodman)"
        "PRAM plus coherence: per-processor views respecting program order \
         that agree on a per-location write serialization (Goodman 1989, \
         as formalized by Ahamad et al. 1992)."
        Own_plus_writes [ Program_order ] Coherence_agreement Value_legal;
      (* Cheng–Higham–Kawash partition consistency: the two exemplars. *)
      pc_part_blocks 2;
      pc_part_blocks 4;
      (* The new memory of §7: causal memory plus coherence. *)
      row "causal-coh" "Coherent Causal Memory"
        "Causal memory plus coherence (the new memory suggested in the \
         paper's concluding remarks): views respect causal order and agree \
         on a per-location write serialization."
        Own_plus_writes [ Causal_plus_coherence ] Coherence_agreement
        Value_legal;
      (* Ahamad–Burns–Hutto–Neiger [3], §3.5. *)
      row "causal" "Causal Memory"
        "Independent per-processor views of own operations plus all \
         writes, respecting the causal order (program order + \
         writes-before, transitively); no mutual consistency."
        Own_plus_writes [ Causal_order ] No_mutual Value_legal;
      (* Mostéfaoui–Perrin–Raynal; equals causal memory on registers. *)
      row "causal-obj" "Object Causal Memory"
        "Causal consistency over sequential-spec objects \
         (Mostefaoui-Perrin-Raynal): queues (q:*) and counters (c:*) as \
         well as registers.  Per-processor views of own operations plus \
         all updates respect the causal order and replay as legal \
         sequential object histories; coincides with causal memory on \
         register-only histories."
        Own_plus_updates [ Causal_order ] No_mutual Object_legal;
      (* §2's parameter 2 (the mutual consistency of PC and RC) alone. *)
      row "coh" "Coherence"
        "Each location is sequentially consistent in isolation: a single \
         serialization of all accesses per location, respecting \
         per-location program order."
        Per_location [ Program_order ] No_mutual Writer_legal;
      (* Lipton–Sandberg [15], §3.5. *)
      row "pram" "Pipelined RAM"
        "Independent per-processor views of own operations plus all \
         writes, respecting program order only; no mutual consistency."
        Own_plus_writes [ Program_order ] No_mutual Value_legal;
      (* Terry et al. session guarantees: the two exemplars. *)
      session ~ryw:true ~mr:true ~mw:true ~wfr:true;
      session ~ryw:true ~mr:true ~mw:false ~wfr:false;
      (* Hutto–Ahamad: weaker than PRAM, a further memory as §7 invites. *)
      row "slow" "Slow Memory"
        "Independent views respecting the owner's program order and each \
         processor's per-location write order only (Hutto and Ahamad)."
        Own_plus_writes [ Own_program_order; Po_loc ] No_mutual Value_legal;
      (* The weakest δp = w memory: the lattice's floor. *)
      row "local" "Local Consistency"
        "Independent views respecting only the owner's program order; \
         other processors' writes may be observed in any order."
        Own_plus_writes [ Own_program_order ] No_mutual Value_legal;
    ]

let catalogued key = List.find (fun (m : Model.t) -> m.Model.key = key) all
let comparable = List.map catalogued [ "sc"; "tso"; "pc"; "causal"; "pram" ]

(* Every model is certifiable.  The name stays because
   perfbench/load.ml reads it. *)
let certifiable = all

let keys () = List.map (fun (m : Model.t) -> m.Model.key) all

(* ---- did-you-mean ------------------------------------------------- *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* ---- families ----------------------------------------------------- *)

type family_info = {
  family : string;
  doc : string;
  params : (string * string) list;
  instantiate : Model_ref.t -> (Model.t, string) result;
}

let check_args (r : Model_ref.t) ~known =
  match Model_ref.unknown_args r ~known with
  | [] -> Ok ()
  | bad :: _ ->
      let suggestion =
        List.fold_left
          (fun best k ->
            let d = levenshtein bad k in
            match best with
            | Some (_, d') when d' <= d -> best
            | _ when d <= 3 -> Some (k, d)
            | _ -> best)
          None known
      in
      Error
        (Printf.sprintf "unknown argument %S of %s%s" bad r.Model_ref.family
           (match suggestion with
           | Some (k, _) -> Printf.sprintf " (did you mean %S?)" k
           | None ->
               if known = [] then ""
               else
                 Printf.sprintf " (known: %s)" (String.concat ", " known)))

let ( let* ) = Result.bind

let inst_pc_part (r : Model_ref.t) =
  let* () = check_args r ~known:[ "blocks"; "partition" ] in
  let* blocks = Model_ref.int_arg r "blocks" in
  let partition = List.assoc_opt "partition" r.Model_ref.args in
  match (blocks, partition) with
  | Some _, Some _ -> Error "pc-part takes blocks= or partition=, not both"
  | None, None -> Error "pc-part requires blocks=<k> or partition=<a.b|c>"
  | Some k, None ->
      if k < 1 || k > 64 then
        Error (Printf.sprintf "pc-part blocks must be in 1..64, got %d" k)
      else Ok (pc_part_blocks k)
  | None, Some spec ->
      let blocks =
        List.map (String.split_on_char '.') (String.split_on_char '|' spec)
      in
      if spec = "" || List.exists (List.exists (fun l -> l = "")) blocks then
        Error (Printf.sprintf "bad pc-part partition %S (want a.b|c)" spec)
      else
        let locs = List.concat blocks in
        let dup =
          List.exists
            (fun l -> List.length (List.filter (String.equal l) locs) > 1)
            locs
        in
        if dup then
          Error (Printf.sprintf "pc-part partition %S lists a location twice" spec)
        else Ok (pc_part_named blocks)

let inst_session (r : Model_ref.t) =
  let* () = check_args r ~known:[ "ryw"; "mr"; "mw"; "wfr" ] in
  let* ryw = Model_ref.flag r "ryw" in
  let* mr = Model_ref.flag r "mr" in
  let* mw = Model_ref.flag r "mw" in
  let* wfr = Model_ref.flag r "wfr" in
  Ok (session ~ryw ~mr ~mw ~wfr)

let inst_causal_obj (r : Model_ref.t) =
  let* () = check_args r ~known:[] in
  Ok (catalogued "causal-obj")

let families =
  [
    {
      family = "pc-part";
      doc =
        "Partition consistency (Cheng-Higham-Kawash): per-processor views \
         per location-partition block, with a shared per-location write \
         serialization.  One block ~ PC-G, singleton blocks ~ coherence.";
      params =
        [
          ("blocks", "positive integer <= 64: location id modulo k partition");
          ( "partition",
            "explicit blocks by location name, '.'-separated within a block, \
             '|' between blocks; unlisted locations get singleton blocks" );
        ];
      instantiate = inst_pc_part;
    };
    {
      family = "session";
      doc =
        "Session guarantees (Terry et al.): per-processor views ordered \
         only by the enabled guarantees.";
      params =
        [
          ("ryw", "flag: read-your-writes (own write->read program order)");
          ("mr", "flag: monotonic reads (own read->read program order)");
          ("mw", "flag: monotonic writes (every write->write program order)");
          ( "wfr",
            "flag: writes-follow-reads (read's writer before subsequent own \
             writes; commits to a reads-from map)" );
        ];
      instantiate = inst_session;
    };
    {
      family = "causal-obj";
      doc =
        "Causal consistency over sequential-spec objects \
         (Mostefaoui-Perrin-Raynal): queues (q:*), counters (c:*), \
         registers.";
      params = [];
      instantiate = inst_causal_obj;
    };
  ]

(* ---- resolution --------------------------------------------------- *)

(* Instances are memoized so repeated references share one [Model.t]
   (hence one verdict-cache key).  The daemon resolves references from
   several worker domains, so the table is guarded. *)
let memo : (string, Model.t) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let memo_find key =
  Mutex.lock memo_lock;
  let r = Hashtbl.find_opt memo key in
  Mutex.unlock memo_lock;
  r

let memo_add key m =
  Mutex.lock memo_lock;
  (* Another domain may have instantiated the same reference
     concurrently; keep the first instance so callers share it. *)
  let m =
    match Hashtbl.find_opt memo key with
    | Some existing -> existing
    | None ->
        Hashtbl.replace memo key m;
        m
  in
  Mutex.unlock memo_lock;
  m

let suggest s =
  let candidates =
    keys () @ List.map (fun f -> f.family) families
  in
  List.fold_left
    (fun best k ->
      let d = levenshtein s k in
      match best with
      | _ when k = s -> best
      | Some (_, d') when d' <= d -> best
      | _ when d <= 3 -> Some (k, d)
      | _ -> best)
    None candidates
  |> Option.map fst

(* The catalogue by key, built once; only read afterwards, so worker
   domains share it without a lock. *)
let catalogue : (string, Model.t) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (m : Model.t) -> Hashtbl.replace t m.Model.key m)
    (List.rev all);
  t

let resolve s =
  match Hashtbl.find_opt catalogue s with
  | Some m -> Ok m
  | None -> (
      match memo_find s with
      | Some m -> Ok m
      | None -> (
          match Model_ref.parse s with
          | Error e -> Error e
          | Ok r -> (
              match
                List.find_opt (fun f -> f.family = r.Model_ref.family) families
              with
              (* The grammar trims the whitespace around a token, a
                 key's included. *)
              | None when Hashtbl.mem catalogue r.Model_ref.family ->
                  if r.Model_ref.args = [] then
                    Ok (Hashtbl.find catalogue r.Model_ref.family)
                  else
                    Error
                      (Printf.sprintf "model %S takes no arguments"
                         r.Model_ref.family)
              | None ->
                  Error
                    (Printf.sprintf "unknown model or family %S%s"
                       r.Model_ref.family
                       (match suggest r.Model_ref.family with
                       | Some k -> Printf.sprintf " (did you mean %S?)" k
                       | None -> ""))
              | Some f -> (
                  match f.instantiate r with
                  | Error _ as e -> e
                  | Ok m ->
                      (* Prefer the catalogued exemplar when the
                         reference canonicalizes to its key, then
                         memoize under the canonical key and under the
                         input spelling, so both hit next time. *)
                      let m =
                        match Hashtbl.find_opt catalogue m.Model.key with
                        | Some canonical -> canonical
                        | None -> memo_add m.Model.key m
                      in
                      let m = if s = m.Model.key then m else memo_add s m in
                      Ok m))))

let find s = Result.to_option (resolve s)
