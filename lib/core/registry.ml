let all =
  [
    Atomic.model;
    Sc.model;
    Tso.model;
    Tso_operational.model;
    Pc.model;
    Rc.rc_sc;
    Rc.rc_pc;
    Weak_ordering.model;
    Pc_goodman.model;
    Pc_part.exemplar_2;
    Pc_part.exemplar_4;
    Causal_coherent.model;
    Causal.model;
    Obj_causal.model;
    Coherence_only.model;
    Pram.model;
    Session.exemplar_all;
    Session.exemplar_rm;
    Slow.model;
    Local.model;
  ]

let comparable = [ Sc.model; Tso.model; Pc.model; Causal.model; Pram.model ]

let certifiable =
  List.filter (fun (m : Model.t) -> Option.is_some m.Model.params) all

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
      else Ok (Pc_part.instantiate ~blocks:k)
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
        else Ok (Pc_part.instantiate_named ~partition:blocks)

let inst_session (r : Model_ref.t) =
  let* () = check_args r ~known:[ "ryw"; "mr"; "mw"; "wfr" ] in
  let* ryw = Model_ref.flag r "ryw" in
  let* mr = Model_ref.flag r "mr" in
  let* mw = Model_ref.flag r "mw" in
  let* wfr = Model_ref.flag r "wfr" in
  Ok (Session.instantiate { Session.ryw; mr; mw; wfr })

let inst_causal_obj (r : Model_ref.t) =
  let* () = check_args r ~known:[] in
  Ok Obj_causal.model

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
      | Some (_, d') when d' <= d -> best
      | _ when d <= 3 -> Some (k, d)
      | _ -> best)
    None candidates
  |> Option.map fst

let resolve s =
  match List.find_opt (fun (m : Model.t) -> m.Model.key = s) all with
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
                        match
                          List.find_opt
                            (fun (c : Model.t) -> c.Model.key = m.Model.key)
                            all
                        with
                        | Some canonical -> canonical
                        | None -> memo_add m.Model.key m
                      in
                      let m = if s = m.Model.key then m else memo_add s m in
                      Ok m))))

let find s = Result.to_option (resolve s)
