module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Canon = Smem_core.Canon
module Cache = Smem_cache.Cache
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Test = Smem_litmus.Test
module Clock = Smem_obs.Clock
module Trace = Smem_obs.Trace
module Json = Smem_obs.Json

type t = { cache : Cache.t option; jobs : int; clock : unit -> int }

(* The clock is a seam: responses carry [elapsed_ns], and the
   deterministic simulation harness needs byte-identical responses
   across runs, so it injects a virtual clock advancing a fixed tick
   per reading.  Production reads the monotonic clock. *)
let create ?cache ?(jobs = 1) ?(clock = Clock.now) () = { cache; jobs; clock }
let cache t = t.cache

(* A layer span, named as perfbench's traced replay names the layer.
   The guard keeps the untraced path from building [args]. *)
let span name args f =
  if Trace.active () then Trace.span ~cat:"serve" ~args:(args ()) name f
  else f ()

(* The digest depends on the history alone, so it is taken once per
   history, and every model's lookup shares it.  Every model but the
   partition models is blind to the symmetries {!Canon} quotients by;
   a pc-part cell can be answered for another spelling of the test
   (ROADMAP item 1). *)
let digest h =
  span "canon.digest"
    (fun () -> [ ("nops", Json.Int (Smem_core.History.nops h)) ])
    (fun () -> Canon.digest h)

let checker t h =
  match t.cache with
  | None -> fun model -> (Model.check model h, false)
  | Some c ->
      let digest = digest h in
      fun model ->
        let key = model.Model.key in
        span "cache.lookup"
          (fun () -> [ ("model", Json.Str key) ])
          (fun () ->
            Cache.find_or_add c ~digest ~model:key (fun () ->
                Model.check model h))

let check_model t model h = checker t h model

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

type failure = { code : Response.error_code; message : string }

let ( let* ) = Result.bind

(* Registry.resolve's failure message carries the reason — a grammar
   parse error, a bad family argument, or an unknown name with a
   did-you-mean suggestion. *)
let resolve_key key =
  match Registry.resolve key with
  | Ok m -> Ok m
  | Error reason ->
      Error { code = Response.Unknown_model; message = reason }

let resolve_model key =
  span "registry.resolve"
    (fun () -> [ ("keys", Json.Int 1) ])
    (fun () -> resolve_key key)

let resolve_models keys =
  span "registry.resolve"
    (fun () -> [ ("keys", Json.Int (List.length keys)) ])
    (fun () ->
      match keys with
      | [] -> Ok Registry.all
      | keys ->
          List.fold_right
            (fun key acc ->
              let* acc = acc in
              let* m = resolve_key key in
              Ok (m :: acc))
            keys (Ok []))

let resolve_test = function
  | Request.Named name -> (
      match Smem_litmus.Corpus.find name with
      | Some t -> Ok t
      | None ->
          Error
            {
              code = Response.Unknown_test;
              message = "unknown corpus test: " ^ name;
            })
  | Request.Inline text -> (
      match
        span "litmus.parse"
          (fun () -> [ ("bytes", Json.Int (String.length text)) ])
          (fun () -> Smem_litmus.Parse.test_of_string text)
      with
      | Ok t -> Ok t
      | Error e ->
          Error
            {
              code = Response.Bad_request;
              message =
                Format.asprintf "litmus parse: %a" Smem_litmus.Parse.pp_error e;
            })

let scope_to_config (s : Request.scope) =
  {
    Smem_lattice.Enumerate.procs = s.Request.procs;
    nlocs = s.Request.nlocs;
    max_value = s.Request.max_value;
    labeled = s.Request.labeled;
  }

let resolve_scopes = function
  | [] -> Smem_lattice.Classify.standard_scopes
  | scopes -> List.map scope_to_config scopes

(* ------------------------------------------------------------------ *)
(* Figure 5 decides cells                                              *)

let m_implied = Smem_obs.Metrics.counter "check.implied"

module Figure5 = Smem_lattice.Figure5

(* The fill's walk order: registry position, strongest first; keys
   outside the catalogue (family instances) come last. *)
let rank =
  let tbl = Hashtbl.create 32 in
  List.iteri
    (fun i (m : Model.t) -> Hashtbl.replace tbl m.Model.key i)
    Registry.all;
  fun (m : Model.t) ->
    Option.value (Hashtbl.find_opt tbl m.Model.key) ~default:max_int

(* A row's cell by model key. *)
let rec lookup key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else lookup key rest

(* The missing cells of a row, strongest first: each is implied by a
   known cell or searched, then every decided cell is stored back as
   one row.  The known verdicts of Figure 5's nodes are two masks over
   their positions, so an implication is a few ANDs.  Answers each
   missing cell's verdict, in [missing]'s order. *)
let decide t digest h cached missing =
  let fig = Figure5.implications h in
  let allowed = ref 0 and forbidden = ref 0 in
  let know pos v =
    Option.iter
      (fun i ->
        if v then allowed := !allowed lor (1 lsl i)
        else forbidden := !forbidden lor (1 lsl i))
      pos
  in
  List.iter (fun (key, v) -> know (Figure5.position key) v) cached;
  (* Known cells that break a containment: only a corrupted cache can
     hold them, and then nothing is inferred from the row. *)
  let infer =
    not (Figure5.contradicts fig ~allowed:!allowed ~forbidden:!forbidden)
  in
  let cells =
    Array.of_list
      (List.map
         (fun (m : Model.t) -> (rank m, Figure5.position m.Model.key, m))
         missing)
  in
  let walk = Array.init (Array.length cells) Fun.id in
  Array.stable_sort
    (fun a b ->
      let (ra, _, _), (rb, _, _) = (cells.(a), cells.(b)) in
      compare ra rb)
    walk;
  let verdicts = Array.make (Array.length cells) false in
  let decided = ref [] in
  Array.iter
    (fun k ->
      let _, pos, (m : Model.t) = cells.(k) in
      let key = m.Model.key in
      (* A model asked twice is decided once.  A missing cell is not
         cached, so a node already known was decided in this walk. *)
      let earlier =
        match pos with
        | Some i when (!allowed lor !forbidden) land (1 lsl i) <> 0 ->
            Some (!allowed land (1 lsl i) <> 0)
        | Some _ -> None
        | None -> lookup key !decided
      in
      verdicts.(k) <-
        (match earlier with
        | Some v -> v
        | None ->
            let inferred =
              match pos with
              | Some i when infer ->
                  Figure5.implied fig ~allowed:!allowed ~forbidden:!forbidden i
              | _ -> None
            in
            let v =
              match inferred with
              | Some v ->
                  Smem_obs.Metrics.incr m_implied;
                  v
              | None -> Model.check m h
            in
            know pos v;
            decided := (key, v) :: !decided;
            v))
    walk;
  (match (t.cache, digest) with
  | Some c, Some digest -> Cache.add_row c ~digest !decided
  | _ -> ());
  verdicts

(* One test's row, read with one lookup: each model's cell as
   [(verdict, cached)], in [models]' order. *)
let fill t digest h models =
  let cached =
    match (t.cache, digest) with
    | Some c, Some digest ->
        let keys = List.map (fun (m : Model.t) -> m.Model.key) models in
        span "cache.lookup"
          (fun () -> [ ("cells", Json.Int (List.length keys)) ])
          (fun () -> Cache.find_row c ~digest ~models:keys)
    | _ -> []
  in
  let known =
    List.map (fun (m : Model.t) -> lookup m.Model.key cached) models
  in
  let missing =
    List.fold_right2
      (fun m k acc -> if Option.is_none k then m :: acc else acc)
      models known []
  in
  let decided =
    if missing = [] then [||] else decide t digest h cached missing
  in
  let next = ref 0 in
  List.map
    (function
      | Some v -> (v, true)
      | None ->
          let v = decided.(!next) in
          incr next;
          (v, false))
    known

(* One check/corpus cell. *)
let cell test (model : Model.t) (got, cached) =
  ( Verdict.v ~subject:test.Test.name ~authority:model.Model.key ~cached
      ?expected:(Test.expected test model.Model.key)
      (Some (Verdict.status_of_bool got)),
    cached )

(* Digests are taken here, on the calling domain; rows fan out across
   tests, never across one test's cells, whose order the fill needs. *)
let check_cells t tests models =
  let rows =
    List.map
      (fun tst ->
        (tst, Option.map (fun _ -> digest tst.Test.history) t.cache))
      tests
  in
  let fill_test (tst, digest) =
    List.map2 (cell tst) models (fill t digest tst.Test.history models)
  in
  let results =
    List.concat
      (if t.jobs > 1 then Smem_parallel.Pool.map ~jobs:t.jobs fill_test rows
       else List.map fill_test rows)
  in
  let verdicts = List.map fst results in
  let cached = List.length (List.filter snd results) in
  (Response.Verdicts verdicts, cached, List.length results - cached)

let relation_name = function
  | Smem_lattice.Classify.Equal -> "equal"
  | Smem_lattice.Classify.Stronger -> "stronger"
  | Smem_lattice.Classify.Weaker -> "weaker"
  | Smem_lattice.Classify.Incomparable -> "incomparable"

let classify t models scopes =
  let matrix =
    Smem_lattice.Classify.classify_scopes ~jobs:t.jobs ~models scopes
  in
  let keys =
    Array.of_list
      (List.map (fun m -> m.Model.key) matrix.Smem_lattice.Classify.models)
  in
  let n = Array.length keys in
  let relations = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if i <> j then
        relations :=
          ( keys.(i),
            keys.(j),
            relation_name (Smem_lattice.Classify.relation matrix i j) )
          :: !relations
    done
  done;
  Response.Classification
    {
      total = matrix.Smem_lattice.Classify.total;
      allowed =
        List.mapi
          (fun i _ ->
            (keys.(i), matrix.Smem_lattice.Classify.allowed_counts.(i)))
          matrix.Smem_lattice.Classify.models;
      relations = !relations;
      hasse =
        List.map
          (fun (i, j) -> (keys.(i), keys.(j)))
          (Smem_lattice.Classify.hasse_edges matrix);
    }

let witness_text name h =
  Smem_litmus.Print.to_string (Test.of_history ~name ~expect:[] h)

let distinguish t a b scopes =
  match Smem_lattice.Distinguish.compare ~jobs:t.jobs ~a ~b scopes with
  | Smem_lattice.Distinguish.Equal ->
      Response.Distinction { relation = "equal"; witnesses = [] }
  | Smem_lattice.Distinguish.A_stronger w ->
      Response.Distinction
        {
          relation = "a-stronger";
          witnesses = [ ("allowed-by-b-only", witness_text "b_only" w) ];
        }
  | Smem_lattice.Distinguish.B_stronger w ->
      Response.Distinction
        {
          relation = "b-stronger";
          witnesses = [ ("allowed-by-a-only", witness_text "a_only" w) ];
        }
  | Smem_lattice.Distinguish.Incomparable (wa, wb) ->
      Response.Distinction
        {
          relation = "incomparable";
          witnesses =
            [
              ("allowed-by-a-only", witness_text "a_only" wa);
              ("allowed-by-b-only", witness_text "b_only" wb);
            ];
        }

let certify test model format =
  let cert = Smem_cert.Cert.make model ~name:test.Test.name test.Test.history in
  match Smem_cert.Kernel.verify cert with
  | Error reason ->
      Error
        {
          code = Response.Rejected;
          message = "kernel rejected the certificate: " ^ reason;
        }
  | Ok _ ->
      Ok
        (Response.Certificate
           {
             format = (match format with `Sexp -> "sexp" | `Json -> "json");
             body = Smem_cert.Cert.to_string ~format cert;
           })

(* The model catalogue, from the registry — the single source of truth
   the CLI table and docs/API.md's model listing are generated from. *)
let catalogue () =
  Response.Catalogue
    {
      models =
        List.map
          (fun (m : Model.t) ->
            {
              Response.key = m.Model.key;
              name = m.Model.name;
              description = m.Model.description;
              params = Model.params_strings m.Model.params;
            })
          Registry.all;
      families =
        List.map
          (fun (f : Registry.family_info) ->
            {
              Response.family = f.Registry.family;
              doc = f.Registry.doc;
              params = f.Registry.params;
            })
          Registry.families;
    }

let execute t = function
  | Request.Check { test; models } ->
      let* test = resolve_test test in
      let* models = resolve_models models in
      Ok (check_cells t [ test ] models)
  | Request.Corpus { models } ->
      let* models = resolve_models models in
      Ok (check_cells t Smem_litmus.Corpus.all models)
  | Request.Classify { models; scopes } ->
      let* models =
        match models with
        | [] -> Ok Registry.comparable
        | keys -> resolve_models keys
      in
      Ok (classify t models (resolve_scopes scopes), 0, 0)
  | Request.Distinguish { a; b; scopes } ->
      let* a = resolve_model a in
      let* b = resolve_model b in
      Ok (distinguish t a b (resolve_scopes scopes), 0, 0)
  | Request.Certify { test; model; format } ->
      let* test = resolve_test test in
      let* model = resolve_model model in
      let* payload = certify test model format in
      Ok ((payload, 0, 1))
  | Request.Models -> Ok (catalogue (), 0, 0)

(* The view search raises the typed {!Smem_core.View.Too_large} on
   histories past its word-encoding capacity.  Workers re-raise in the
   parent ({!Smem_parallel.Pool.map}), so catching around [execute]
   covers the parallel cells too; the client gets a structured
   [too-large] instead of the catch-all [internal]. *)
let execute_safe t req =
  try execute t req
  with Smem_core.View.Too_large { nops; limit } ->
    Error
      {
        code = Response.Too_large;
        message =
          Printf.sprintf
            "history has %d operations; the view search supports at most %d"
            nops limit;
      }

let handle ?id t req =
  let t0 = t.clock () in
  let elapsed () = max 0 (t.clock () - t0) in
  let kind = Request.kind req in
  match execute_safe t req with
  | Ok (payload, cached, computed) ->
      { Response.id; kind; cached; computed; elapsed_ns = elapsed (); payload }
  | Error { code; message } ->
      {
        Response.id;
        kind;
        cached = 0;
        computed = 0;
        elapsed_ns = elapsed ();
        payload = Response.Error { code; message };
      }
