(* Tests for the serving subsystem: the bounded verdict cache (including
   full-key sharding and parallel-domain safety), the request-executing
   service (cached verdicts must equal fresh ones), the NDJSON server
   loop (partial batches, malformed frames mid-stream — driven over real
   socketpairs), the persistent verdict store, and the multi-client
   daemon (interleaved clients, drain, warm restart). *)

module H = Smem_core.History
module Model = Smem_core.Model
module Canon = Smem_core.Canon
module Cache = Smem_cache.Cache
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Wire = Smem_api.Wire
module Service = Smem_serve.Service
module Server = Smem_serve.Server
module Frames = Smem_serve.Frames
module Sched = Smem_serve.Sched
module Store = Smem_serve.Store
module Daemon = Smem_serve.Daemon
module Registry = Smem_core.Registry
module Corpus = Smem_litmus.Corpus
module Test = Smem_litmus.Test
module Helpers = Smem_testlib.Helpers

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- cache ---------------- *)

let cache_basics () =
  let c = Cache.create ~capacity:16 () in
  check (Alcotest.option Alcotest.bool) "miss" None
    (Cache.find c ~digest:"d1" ~model:"sc");
  Cache.add c ~digest:"d1" ~model:"sc" true;
  Cache.add c ~digest:"d1" ~model:"pram" false;
  check (Alcotest.option Alcotest.bool) "hit true" (Some true)
    (Cache.find c ~digest:"d1" ~model:"sc");
  check (Alcotest.option Alcotest.bool) "hit false" (Some false)
    (Cache.find c ~digest:"d1" ~model:"pram");
  check (Alcotest.option Alcotest.bool) "other digest" None
    (Cache.find c ~digest:"d2" ~model:"sc");
  let s = Cache.stats c in
  check Alcotest.int "entries" 2 s.Cache.entries;
  check Alcotest.int "hits" 2 s.Cache.hits;
  check Alcotest.int "misses" 2 s.Cache.misses

(* A fresh row keeps each key's last cell, a later row merges into it,
   and a row read counts one hit or miss per cell asked. *)
let cache_rows () =
  let c = Cache.create ~capacity:16 () in
  let find model = Cache.find c ~digest:"d" ~model in
  Cache.add_row c ~digest:"d" [ ("sc", true); ("tso", false); ("sc", false) ];
  check (Alcotest.option Alcotest.bool) "last write wins" (Some false)
    (find "sc");
  check Alcotest.int "one cell per key" 2 (Cache.stats c).Cache.entries;
  Cache.add_row c ~digest:"d" [ ("tso", true); ("pc", true) ];
  check (Alcotest.option Alcotest.bool) "merged" (Some true) (find "tso");
  let row = Cache.find_row c ~digest:"d" ~models:[ "sc"; "pram"; "pc" ] in
  check Alcotest.int "whole row" 3 (List.length row);
  let s = Cache.stats c in
  check Alcotest.int "entries" 3 s.Cache.entries;
  check Alcotest.int "hits" 4 s.Cache.hits;
  check Alcotest.int "misses" 1 s.Cache.misses

let cache_bounded () =
  (* One shard makes eviction order deterministic: strict FIFO. *)
  let c = Cache.create ~shards:1 ~capacity:4 () in
  for i = 1 to 8 do
    Cache.add c ~digest:(string_of_int i) ~model:"sc" true
  done;
  let s = Cache.stats c in
  check Alcotest.int "bounded" 4 s.Cache.entries;
  check Alcotest.int "evictions" 4 s.Cache.evictions;
  (* the oldest four are gone, the newest four resident *)
  for i = 1 to 4 do
    check (Alcotest.option Alcotest.bool)
      (Printf.sprintf "%d evicted" i)
      None
      (Cache.find c ~digest:(string_of_int i) ~model:"sc")
  done;
  for i = 5 to 8 do
    check (Alcotest.option Alcotest.bool)
      (Printf.sprintf "%d resident" i)
      (Some true)
      (Cache.find c ~digest:(string_of_int i) ~model:"sc")
  done

let cache_find_or_add () =
  let c = Cache.create ~capacity:8 () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    true
  in
  let v1, cached1 = Cache.find_or_add c ~digest:"d" ~model:"sc" compute in
  let v2, cached2 = Cache.find_or_add c ~digest:"d" ~model:"sc" compute in
  check Alcotest.bool "first verdict" true v1;
  check Alcotest.bool "first fresh" false cached1;
  check Alcotest.bool "second verdict" true v2;
  check Alcotest.bool "second cached" true cached2;
  check Alcotest.int "computed once" 1 !calls

let cache_clear () =
  let c = Cache.create ~capacity:8 () in
  Cache.add c ~digest:"d" ~model:"sc" true;
  Cache.clear c;
  check Alcotest.int "empty" 0 (Cache.stats c).Cache.entries;
  check (Alcotest.option Alcotest.bool) "gone" None
    (Cache.find c ~digest:"d" ~model:"sc")

let cache_rejects_bad_args () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Cache.create: capacity must be positive") (fun () ->
      ignore (Cache.create ~capacity:0 ()))

let cache_digests_spread_over_shards () =
  (* A request reads and writes one history's row whole, so the digest
     alone picks the shard; distinct histories must still spread over
     the shards rather than serialize on one mutex. *)
  let shards = 8 in
  let c = Cache.create ~shards ~capacity:1024 () in
  let indices =
    List.init 64 (fun i ->
        Cache.shard_index c ~digest:(Digest.to_hex (Digest.string (string_of_int i))))
  in
  List.iter
    (fun ix -> check Alcotest.bool "index in range" true (ix >= 0 && ix < shards))
    indices;
  check Alcotest.int "64 digests reach every shard" shards
    (List.length (List.sort_uniq compare indices));
  (* every model's verdict of one history lives in that history's row *)
  List.iter (fun m -> Cache.add c ~digest:"hot" ~model:m true) [ "sc"; "tso"; "pram" ];
  check Alcotest.int "one row holds the three verdicts" 3
    (List.length (Cache.find_row c ~digest:"hot" ~models:[]))

let cache_parallel_find_or_add () =
  (* Four domains hammer one shard with disjoint key ranges: every
     returned verdict is the one computed for that key (none lost or
     crossed), and the FIFO accounting stays exact — entries = capacity,
     evictions = inserts - capacity. *)
  let domains = 4 and per = 256 and cap = 64 in
  let c = Cache.create ~shards:1 ~capacity:cap () in
  let worker d () =
    let wrong = ref 0 in
    for i = 0 to per - 1 do
      let digest = Printf.sprintf "%d-%d" d i in
      let expect = (d + i) mod 2 = 0 in
      let v, cached = Cache.find_or_add c ~digest ~model:"sc" (fun () -> expect) in
      if v <> expect || cached then incr wrong
    done;
    !wrong
  in
  let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
  let wrong = List.fold_left (fun acc t -> acc + Domain.join t) 0 spawned in
  check Alcotest.int "no lost or crossed verdicts" 0 wrong;
  let s = Cache.stats c in
  check Alcotest.int "entries at capacity" cap s.Cache.entries;
  check Alcotest.int "exact eviction count"
    ((domains * per) - cap)
    s.Cache.evictions

let cache_parallel_same_key () =
  (* All domains race find_or_add on the same keys: the cache must hand
     every caller the key's verdict, never a neighbour's. *)
  let c = Cache.create ~shards:4 ~capacity:1024 () in
  let worker () =
    let wrong = ref 0 in
    for i = 0 to 199 do
      let digest = string_of_int i in
      let expect = i mod 2 = 0 in
      let v, _ = Cache.find_or_add c ~digest ~model:"sc" (fun () -> expect) in
      if v <> expect then incr wrong
    done;
    !wrong
  in
  let spawned = List.init 4 (fun _ -> Domain.spawn worker) in
  let wrong = List.fold_left (fun acc t -> acc + Domain.join t) 0 spawned in
  check Alcotest.int "shared keys race cleanly" 0 wrong;
  check Alcotest.int "one entry per key" 200 (Cache.stats c).Cache.entries

(* ---------------- service: cached = fresh ---------------- *)

let cached_equals_fresh =
  QCheck.Test.make ~name:"cached verdict equals fresh verdict" ~count:150
    (Helpers.arb_history ~labeled_allowed:`Mixed ())
    (fun h ->
      let service =
        Service.create ~cache:(Cache.create ~capacity:1024 ()) ()
      in
      List.for_all
        (fun m ->
          let fresh = Model.check m h in
          let v1, c1 = Service.check_model service m h in
          let v2, c2 = Service.check_model service m h in
          v1 = fresh && v2 = fresh && (not c1) && c2)
        (List.filter_map Registry.find [ "sc"; "causal"; "pram"; "coh" ]))

let service_renaming_hits =
  QCheck.Test.make ~name:"renamed resubmission is a cache hit" ~count:100
    (Helpers.arb_history ())
    (fun h ->
      let service =
        Service.create ~cache:(Cache.create ~capacity:1024 ()) ()
      in
      let renamed =
        let rows =
          List.init (H.nprocs h) (fun p ->
              H.proc_ops h (H.nprocs h - 1 - p)
              |> Array.to_list
              |> List.map (fun id ->
                     let op = H.op h id in
                     let loc = "q" ^ H.loc_name h op.Smem_core.Op.loc in
                     let v = op.Smem_core.Op.value in
                     if Smem_core.Op.is_write op then H.write loc v
                     else H.read loc v))
        in
        H.make rows
      in
      let sc = Option.get (Registry.find "sc") in
      let v1, _ = Service.check_model service sc h in
      let v2, cached = Service.check_model service sc renamed in
      v1 = v2 && cached)

(* ---------------- service: Figure 5 never changes a verdict ---------- *)

let statuses (r : Response.t) =
  match r.Response.payload with
  | Response.Verdicts vs -> List.map (fun v -> v.Verdict.status) vs
  | _ -> Alcotest.fail "check did not answer with verdicts"

let check_inline ?(models = []) service text =
  Service.handle service (Request.Check { test = Request.Inline text; models })

(* Every catalogue model's own search, cell by cell. *)
let searched h =
  List.map
    (fun m -> Some (Verdict.status_of_bool (Model.check m h)))
    Registry.all

(* A 20-model check answers exactly what each model's search answers,
   with and without a cache, at jobs 1 and 2.  With a cache, the
   weaker half of the row is asked for first, so the full check also
   infers from cached cells. *)
let served_equals_searched h =
  let text =
    Smem_litmus.Print.to_string (Test.of_history ~name:"q" ~expect:[] h)
  in
  let h =
    match Smem_litmus.Parse.test_of_string text with
    | Ok t -> t.Test.history
    | Error _ -> Alcotest.fail "printed history does not parse"
  in
  let want = searched h in
  let half =
    List.filteri (fun i _ -> i mod 2 = 1)
      (List.map (fun (m : Model.t) -> m.Model.key) Registry.all)
  in
  List.for_all
    (fun (jobs, cached) ->
      let cache = if cached then Some (Cache.create ~capacity:64 ()) else None in
      let service = Service.create ?cache ~jobs () in
      if cached then ignore (check_inline ~models:half service text);
      statuses (check_inline service text) = want
      && statuses (check_inline service text) = want)
    [ (1, false); (2, false); (1, true); (2, true) ]

let inference_never_changes_a_verdict labeled =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "served = searched on every cell (%s)"
         (match labeled with `No -> "unlabeled" | _ -> "labeled"))
    ~count:60
    (Helpers.arb_history ~labeled_allowed:labeled ())
    served_equals_searched

let inference_on_generated_corpus () =
  let tests = Smem_corpus.Corpus.generate ~seed:42 ~count:200 () in
  let service = Service.create ~cache:(Cache.create ~capacity:1024 ()) () in
  List.iter
    (fun (t : Test.t) ->
      let show = List.map (Option.map Verdict.bool_of_status) in
      check
        (Alcotest.list (Alcotest.option Alcotest.bool))
        t.Test.name
        (show (searched t.Test.history))
        (show (statuses (check_inline service (Smem_litmus.Print.to_string t)))))
    tests

(* A row whose cached cells break a containment can only come from a
   corrupted cache: nothing is inferred from it, every missing cell is
   searched, and the cached cells are served as they are (so the
   corruption stays visible to a cached-vs-recompute check). *)
let contradicting_row_is_searched () =
  let t = Option.get (Corpus.find "fig1") in
  let h = t.Test.history in
  let cache = Cache.create ~capacity:64 () in
  let digest = Canon.digest h in
  (* SC allows, TSO forbids: impossible, SC is contained in TSO *)
  Cache.add cache ~digest ~model:"sc" true;
  Cache.add cache ~digest ~model:"tso" false;
  let implied () =
    Option.value (Smem_obs.Metrics.find "check.implied") ~default:0
  in
  Smem_core.Stats.reset ();
  let implied0 = implied () in
  let r =
    Service.handle (Service.create ~cache ())
      (Request.Check { test = Request.Named "fig1"; models = [] })
  in
  let searched = (Smem_core.Stats.snapshot ()).Smem_core.Stats.checks in
  check Alcotest.int "nothing implied" 0 (implied () - implied0);
  check Alcotest.int "every missing cell searched" (List.length Registry.all - 2)
    searched;
  check Alcotest.int "two cells cached" 2 r.Response.cached;
  List.iter2
    (fun (m : Model.t) got ->
      let want =
        match m.Model.key with
        | "sc" -> true
        | "tso" -> false
        | _ -> Model.check m h
      in
      check (Alcotest.option Alcotest.bool) m.Model.key (Some want)
        (Option.map Verdict.bool_of_status got))
    Registry.all (statuses r)

(* ---------------- service: corpus twice ---------------- *)

let corpus_twice () =
  let service =
    Service.create ~cache:(Cache.create ~capacity:65536 ()) ()
  in
  let req = Request.Corpus { models = [] } in
  let first = Service.handle service req in
  let second = Service.handle service req in
  let verdicts r =
    match r.Response.payload with
    | Response.Verdicts vs -> vs
    | _ -> Alcotest.fail "corpus did not answer with verdicts"
  in
  let v1 = verdicts first and v2 = verdicts second in
  let cells = List.length Corpus.all * List.length (Registry.all) in
  check Alcotest.int "all cells" cells (List.length v1);
  check Alcotest.int "first pass computed" cells first.Response.computed;
  check Alcotest.int "second pass cached" cells second.Response.cached;
  check Alcotest.int "second pass computed" 0 second.Response.computed;
  check Alcotest.bool "every second-pass verdict marked cached" true
    (List.for_all (fun v -> v.Verdict.cached) v2);
  (* statuses agree pairwise, and with a fresh uncached check *)
  List.iter2
    (fun a b ->
      check Alcotest.string "subject" a.Verdict.subject b.Verdict.subject;
      check Alcotest.string "authority" a.Verdict.authority b.Verdict.authority;
      check Alcotest.bool "status equal" true
        (a.Verdict.status = b.Verdict.status))
    v1 v2;
  let fresh = Service.create () in
  List.iter
    (fun v ->
      let test = Corpus.find v.Verdict.subject |> Option.get in
      let model = Registry.find v.Verdict.authority |> Option.get in
      let expect, _ =
        Service.check_model fresh model test.Smem_litmus.Test.history
      in
      check Alcotest.bool
        (v.Verdict.subject ^ "/" ^ v.Verdict.authority ^ " matches fresh")
        true
        (v.Verdict.status = Some (Verdict.status_of_bool expect)))
    v2

(* ---------------- service: structured errors ---------------- *)

let service_errors () =
  let s = Service.create () in
  let code r =
    match r.Response.payload with
    | Response.Error { code; _ } -> Some code
    | _ -> None
  in
  let got req = code (Service.handle s req) in
  check Alcotest.bool "unknown model" true
    (got (Request.Check { test = Named "fig1"; models = [ "zz" ] })
    = Some Response.Unknown_model);
  check Alcotest.bool "unknown test" true
    (got (Request.Check { test = Named "no-such-test"; models = [] })
    = Some Response.Unknown_test);
  check Alcotest.bool "bad litmus" true
    (got (Request.Check { test = Inline "]["; models = [] })
    = Some Response.Bad_request);
  check Alcotest.bool "id echoed" true
    ((Service.handle ~id:9 s (Request.Corpus { models = [ "sc" ] })).Response.id
    = Some 9);
  (* The grammar tolerates whitespace around a token, so a padded key
     is its model; a did-you-mean never names the input itself. *)
  List.iter
    (fun (m : Model.t) ->
      check Alcotest.bool (m.Model.key ^ " padded") true
        (match Registry.resolve (" " ^ m.Model.key ^ " ") with
        | Ok m' -> m' == m
        | Error _ -> false))
    Registry.all;
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " is not its own suggestion") true
        (Registry.suggest name <> Some name))
    (Registry.keys ()
    @ List.map (fun (f : Registry.family_info) -> f.Registry.family)
        Registry.families);
  check
    Alcotest.(result reject string)
    "a key with arguments"
    (Error {|model "sc" takes no arguments|})
    (Registry.resolve " sc(x) ")

let service_models_catalogue () =
  (* The catalogue request lists every catalogued model with its
     parameter quadruple and every on-demand family — the single source
     the CLI table and docs/API.md's model listing are generated from. *)
  let s = Service.create () in
  match (Service.handle s Request.Models).Response.payload with
  | Response.Catalogue { models; families } ->
      check Alcotest.int "every catalogued model listed"
        (List.length Registry.all) (List.length models);
      check Alcotest.bool "every model is listed with its quadruple" true
        (List.for_all
           (fun (m : Response.model_info) ->
             List.map fst m.Response.params
             = [ "population"; "ordering"; "mutual"; "legality" ])
           models);
      let family_names =
        List.map (fun (f : Response.family_info) -> f.Response.family) families
      in
      List.iter
        (fun f ->
          check Alcotest.bool (f ^ " family listed") true
            (List.mem f family_names))
        [ "pc-part"; "session" ]
  | _ -> Alcotest.fail "models request did not answer a catalogue"

(* A history at the view search's word-encoding boundary must come back
   as a structured [Too_large] error, not crash the daemon (the search
   raises the typed {!Smem_core.View.Too_large} and the service catches
   exactly that).  One below the boundary must still answer verdicts. *)
let service_too_large_boundary () =
  let s = Service.create () in
  let inline n =
    (* n writes of distinct values on one processor: the single-view
       By_value search answers instantly when it runs at all. *)
    let h = H.make [ List.init n (fun i -> H.write "x" (i + 1)) ] in
    let test =
      {
        Smem_litmus.Test.name = Printf.sprintf "boundary%d" n;
        doc = "";
        history = h;
        expectations = [];
      }
    in
    Request.Inline (Smem_litmus.Print.to_string test)
  in
  (* pram routes every processor through View.exists (By_value). *)
  let at = Service.handle s (Request.Check { test = inline Sys.int_size; models = [ "pram" ] }) in
  (match at.Response.payload with
  | Response.Error { code = Response.Too_large; message } ->
      check Alcotest.bool "message names the limit" true
        (let limit = string_of_int (Sys.int_size - 1) in
         let rec mem i =
           i + String.length limit <= String.length message
           && (String.sub message i (String.length limit) = limit
              || mem (i + 1))
         in
         mem 0)
  | Response.Error { code; _ } ->
      Alcotest.failf "wrong error code %s" (Response.error_code_to_string code)
  | _ -> Alcotest.fail "expected a Too_large error at the boundary");
  let below =
    Service.handle s
      (Request.Check { test = inline (Sys.int_size - 1); models = [ "pram" ] })
  in
  match below.Response.payload with
  | Response.Verdicts [ v ] ->
      check Alcotest.bool "below the boundary answers" true
        (v.Verdict.status = Some Verdict.Allowed)
  | _ -> Alcotest.fail "expected a verdict below the boundary"

(* The events of a trace recorded while [f] runs, with [f]'s result. *)
let traced f =
  let module Json = Smem_obs.Json in
  let module Trace = Smem_obs.Trace in
  let file = Filename.temp_file "smem_serve_test" ".json" in
  Trace.start ~file ();
  let r = Fun.protect ~finally:Trace.stop f in
  let contents = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  match Json.of_string contents with
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr evs) -> (r, evs)
      | _ -> Alcotest.fail "trace has no traceEvents array")
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e

(* The digest depends on the history alone, so a request canonicalizes
   each test once, before its cells fan out — never once per cell, and
   never on a worker domain.  Counted from the service's own
   [canon.digest] spans. *)
let service_one_digest_per_test () =
  let module Json = Smem_obs.Json in
  let digests f =
    let r, events = traced f in
    let digests =
      List.filter
        (fun e -> Json.member "name" e = Some (Json.Str "canon.digest"))
        events
    in
    let self = Json.Int (Domain.self () :> int) in
    List.iter
      (fun e ->
        check Alcotest.bool "digested on the calling domain" true
          (Json.member "tid" e = Some self))
      digests;
    (r, List.length digests)
  in
  let fresh jobs =
    Service.create ~cache:(Cache.create ~capacity:65536 ()) ~jobs ()
  in
  let models = List.length Registry.all in
  let s = fresh 2 in
  let check_inline text =
    digests (fun () ->
        Service.handle s (Request.Check { test = Request.Inline text; models = [] }))
  in
  let first, n1 =
    check_inline
      "test probe \"one\"\np0: w x 1 ; w y 2 ; r y 2\np1: r y 2 ; r x 0\n"
  in
  check Alcotest.int "one digest for a 20-model check" 1 n1;
  check Alcotest.int "every cell computed" models first.Response.computed;
  (* processors swapped, x -> b and y -> a, y's 2 -> 9 and x's 1 -> 4 *)
  let again, n2 =
    check_inline
      "test probe2 \"two\"\np0: r a 9 ; r b 0\np1: w b 4 ; w a 9 ; r a 9\n"
  in
  check Alcotest.int "the re-spelled test adds one digest" 1 n2;
  check Alcotest.int "every re-spelled cell cached" models again.Response.cached;
  check Alcotest.int "no re-spelled cell computed" 0 again.Response.computed;
  let corpus jobs =
    digests (fun () -> Service.handle (fresh jobs) (Request.Corpus { models = [] }))
  in
  let one, n_one = corpus 1 and two, n_two = corpus 2 in
  check Alcotest.int "jobs:2 corpus: one digest per test"
    (List.length Corpus.all) n_two;
  check Alcotest.int "jobs:1 corpus: one digest per test"
    (List.length Corpus.all) n_one;
  check Alcotest.bool "jobs:2 verdicts equal jobs:1's" true
    (two.Response.payload = one.Response.payload);
  check Alcotest.int "cached counts agree" one.Response.cached two.Response.cached;
  check Alcotest.int "computed counts agree" one.Response.computed
    two.Response.computed

(* Figure 5 reaches every catalogue model, but only through proved
   edges under the guards their proofs use.  A cold 20-model check
   still searches causal-obj where queues or counters make it differ
   from causal, and rc-sc where an acquire reads a location with
   labeled and ordinary writes; a register-only, properly labeled test
   that atomic allows costs one search. *)
let figure5_reaches_every_model () =
  let module Json = Smem_obs.Json in
  let cold test =
    let service = Service.create ~cache:(Cache.create ~capacity:64 ()) () in
    Smem_core.Stats.reset ();
    let r, events =
      traced (fun () ->
          Service.handle service (Request.Check { test; models = [] }))
    in
    let searched =
      List.filter_map
        (fun e ->
          match Json.member "name" e with
          | Some (Json.Str name)
            when String.starts_with ~prefix:"check/" name ->
              Some (String.sub name 6 (String.length name - 6))
          | _ -> None)
        events
    in
    let verdicts =
      List.combine
        (List.map (fun (m : Model.t) -> m.Model.key) Registry.all)
        (List.map (Option.map Verdict.bool_of_status) (statuses r))
    in
    ((fun key -> List.assoc key verdicts), searched)
  in
  List.iter
    (fun name ->
      let verdict, searched = cold (Request.Named name) in
      check Alcotest.bool (name ^ ": causal-obj searched") true
        (List.mem "causal-obj" searched);
      check Alcotest.bool (name ^ ": causal-obj differs from causal") true
        (verdict "causal-obj" <> verdict "causal"))
    [ "queue-skip"; "counter-inc" ];
  let verdict, searched =
    cold
      (Request.Inline
         "test acq-mixed \"acquire of a mixed location\"\n\
          p0: w x 1 ; w x 1\np1: r* x 1 ; w* x 1\n")
  in
  check Alcotest.bool "rc-sc searched" true (List.mem "rc-sc" searched);
  check (Alcotest.option Alcotest.bool) "sc allows" (Some true) (verdict "sc");
  check (Alcotest.option Alcotest.bool) "rc-sc forbids" (Some false)
    (verdict "rc-sc");
  let verdict, searched =
    cold
      (Request.Inline
         "test mp-labeled \"message passing\"\n\
          p0: w x 1 ; w* s 1\np1: r* s 1 ; r x 1\n")
  in
  check (Alcotest.option Alcotest.bool) "atomic allows" (Some true)
    (verdict "atomic");
  check (Alcotest.list Alcotest.string) "only atomic searched" [ "atomic" ]
    searched;
  check Alcotest.int "one search" 1
    (Smem_core.Stats.snapshot ()).Smem_core.Stats.checks;
  Smem_core.Stats.reset ()

(* ---------------- server loop ---------------- *)

(* Drive the NDJSON loop through temp files (the loop takes plain
   channels, so no process machinery is needed). *)
let run_server ?batch lines =
  let in_path = Filename.temp_file "smem_serve_in" ".ndjson" in
  let out_path = Filename.temp_file "smem_serve_out" ".ndjson" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      List.iter (output_string oc) lines;
      close_out oc;
      let ic = open_in in_path and oc = open_out out_path in
      Server.run ?batch ~jobs:2 ~cache:(Cache.create ~capacity:4096 ()) ic oc;
      close_in ic;
      close_out oc;
      let ic = open_in out_path in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read []))

let server_answers_in_order () =
  let reqs =
    [
      Wire.request_line ~id:10
        (Request.Check { test = Named "fig1"; models = [ "sc" ] });
      Wire.request_line (Request.Check { test = Named "fig2"; models = [ "sc" ] });
      Wire.request_line ~id:30
        (Request.Check { test = Named "mp"; models = [ "causal" ] });
    ]
  in
  let out = run_server ~batch:2 reqs in
  check Alcotest.int "one response per request" 3 (List.length out);
  let parsed =
    List.map
      (fun l ->
        match Wire.parse_response_line l with
        | Ok r -> r
        | Error e -> Alcotest.failf "unparseable response %S: %s" l e)
      out
  in
  check
    (Alcotest.list (Alcotest.option Alcotest.int))
    "ids echoed, arrival number otherwise" [ Some 10; Some 2; Some 30 ]
    (List.map (fun r -> r.Response.id) parsed);
  List.iter
    (fun r -> check Alcotest.bool "ok" true (Response.ok r))
    parsed

let server_bad_line_in_position () =
  let reqs =
    [
      Wire.request_line (Request.Check { test = Named "fig1"; models = [ "sc" ] });
      "this is not json\n";
      Wire.request_line (Request.Check { test = Named "fig2"; models = [ "sc" ] });
    ]
  in
  let out = run_server reqs in
  check Alcotest.int "three responses" 3 (List.length out);
  let parsed =
    List.map (fun l -> Wire.parse_response_line l |> Result.get_ok) out
  in
  let statuses = List.map Response.ok parsed in
  check (Alcotest.list Alcotest.bool) "error in position" [ true; false; true ]
    statuses;
  match (List.nth parsed 1).Response.payload with
  | Response.Error { code = Response.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "middle response is not a bad-request error"

(* A rejected line is answered in the version it revealed: a v2 line
   whose only fault is a malformed structured model reference comes
   back in v2, under its kind and id, as the same line naming an
   unknown key does; a v1 line keeps the smem-api/1 answer (kind
   [error], arrival number). *)
let server_rejected_v2_line_in_kind () =
  let module Json = Smem_obs.Json in
  let out =
    run_server
      [
        {|{"schema":"smem-api/2","version":2,"id":2,"kind":"check","test":{"corpus":"mp"},"models":[{"family":"session","args":[{"name":"ryw,mr"}]}]}|}
        ^ "\n";
        {|{"schema":"smem-api/1","id":9,"kind":"check","test":{"corpus":"mp"},"models":[{"family":"a b"}]}|}
        ^ "\n";
      ]
  in
  match List.map (fun l -> Json.of_string l |> Result.get_ok) out with
  | [ v2; v1 ] ->
      let field name j = Json.member name j in
      check Alcotest.bool "v2 schema" true
        (field "schema" v2 = Some (Json.Str Wire.schema));
      check Alcotest.bool "v2 version" true
        (field "version" v2 = Some (Json.Int Wire.version));
      check Alcotest.bool "kind check" true
        (field "kind" v2 = Some (Json.Str "check"));
      check Alcotest.bool "id echoed" true (field "id" v2 = Some (Json.Int 2));
      (match (Wire.parse_response_line (List.hd out) |> Result.get_ok).Response.payload with
      | Response.Error { code = Response.Unknown_model; _ } -> ()
      | _ -> Alcotest.fail "not an unknown-model error");
      check Alcotest.bool "v1 schema kept" true
        (field "schema" v1 = Some (Json.Str Wire.schema_v1));
      check Alcotest.bool "v1 kind error" true
        (field "kind" v1 = Some (Json.Str "error"));
      check Alcotest.bool "v1 arrival number" true
        (field "id" v1 = Some (Json.Int 2))
  | _ -> Alcotest.fail "expected two responses"

let server_second_pass_all_cached () =
  (* The serve-smoke CI property, in-process: the same corpus sent
     twice over one connection answers the second pass entirely from
     cache, with identical statuses. *)
  let reqs =
    List.map
      (fun t ->
        Wire.request_line
          (Request.Check { test = Named t.Smem_litmus.Test.name; models = [] }))
      Corpus.all
  in
  let out = run_server (reqs @ reqs) in
  let parsed =
    List.map (fun l -> Wire.parse_response_line l |> Result.get_ok) out
  in
  let n = List.length Corpus.all in
  check Alcotest.int "responses" (2 * n) (List.length parsed);
  let firsts = List.filteri (fun i _ -> i < n) parsed in
  let seconds = List.filteri (fun i _ -> i >= n) parsed in
  List.iter2
    (fun a b ->
      check Alcotest.int "warm pass fully cached" 0 b.Response.computed;
      match (a.Response.payload, b.Response.payload) with
      | Response.Verdicts va, Response.Verdicts vb ->
          List.iter2
            (fun x y ->
              check Alcotest.bool "status stable" true
                (x.Verdict.status = y.Verdict.status))
            va vb
      | _ -> Alcotest.fail "corpus check did not answer verdicts")
    firsts seconds

(* ---------------- server loop over a live socket ---------------- *)

(* The temp-file harness above cannot catch the head-of-line stall (a
   regular file always has "more to read"), so these drive the loop
   over a real socketpair: the client writes, then *waits* — exactly
   the traffic shape that used to hang until 16 lines or EOF. *)

let write_fd fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let read_line_fd ?(timeout = 10.) fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then Alcotest.fail "timed out waiting for a reply"
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> Alcotest.fail "timed out waiting for a reply"
      | _ ->
          let n = Unix.read fd b 0 1 in
          if n = 0 then Alcotest.fail "connection closed before the reply"
          else
            let ch = Bytes.get b 0 in
            if ch = '\n' then Buffer.contents buf
            else begin
              Buffer.add_char buf ch;
              go ()
            end
  in
  go ()

let response_of_line line = Wire.parse_response_line line |> Result.get_ok

let with_server f =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ic = Unix.in_channel_of_descr sfd in
  let oc = Unix.out_channel_of_descr sfd in
  let t =
    Thread.create
      (fun () ->
        (try Server.run ~jobs:2 ~cache:(Cache.create ~capacity:4096 ()) ic oc
         with Sys_error _ -> ());
        try flush oc with Sys_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close cfd with Unix.Unix_error _ -> ());
      Thread.join t;
      try Unix.close sfd with Unix.Unix_error _ -> ())
    (fun () -> f cfd)

let server_partial_batch () =
  (* The regression this PR fixes: one request, default batch of 16,
     connection held open — the reply must come anyway. *)
  with_server (fun fd ->
      write_fd fd
        (Wire.request_line ~id:1
           (Request.Check { test = Named "fig1"; models = [ "sc" ] }));
      let r = response_of_line (read_line_fd fd) in
      check (Alcotest.option Alcotest.int) "id" (Some 1) r.Response.id;
      check Alcotest.bool "ok" true (Response.ok r);
      (* the connection is still open and serving *)
      write_fd fd
        (Wire.request_line ~id:2
           (Request.Check { test = Named "fig2"; models = [ "sc" ] }));
      let r2 = response_of_line (read_line_fd fd) in
      check (Alcotest.option Alcotest.int) "second id" (Some 2) r2.Response.id;
      check Alcotest.bool "second ok" true (Response.ok r2))

let server_malformed_frame_mid_stream () =
  with_server (fun fd ->
      write_fd fd
        (Wire.request_line ~id:1
           (Request.Check { test = Named "fig1"; models = [ "sc" ] }));
      let r1 = response_of_line (read_line_fd fd) in
      check Alcotest.bool "first ok" true (Response.ok r1);
      write_fd fd "{\"schema\":\"smem-api/1\" oops\n";
      let r2 = response_of_line (read_line_fd fd) in
      check Alcotest.bool "malformed answered, not ok" false (Response.ok r2);
      (match r2.Response.payload with
      | Response.Error { code = Response.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "malformed frame did not answer bad-request");
      check (Alcotest.option Alcotest.int) "arrival number" (Some 2)
        r2.Response.id;
      (* the stream survives the bad frame *)
      write_fd fd
        (Wire.request_line ~id:7
           (Request.Check { test = Named "mp"; models = [ "causal" ] }));
      let r3 = response_of_line (read_line_fd fd) in
      check (Alcotest.option Alcotest.int) "stream continues" (Some 7)
        r3.Response.id;
      check Alcotest.bool "third ok" true (Response.ok r3))

let server_answers_in_kind () =
  (* The smem-api/1 back-compatibility contract: a v1 client of a v2
     server gets v1 response lines — the legacy schema string, no
     [version] field — with the same verdicts a v2 client sees. *)
  let module Json = Smem_obs.Json in
  with_server (fun fd ->
      write_fd fd
        ("{\"schema\":\"smem-api/1\",\"id\":1,\"kind\":\"check\","
        ^ "\"test\":{\"corpus\":\"mp\"},"
        ^ "\"models\":[\"sc\",\"session(ryw,mr)\"]}\n");
      let v1_line = read_line_fd fd in
      let v1_json = Json.of_string v1_line |> Result.get_ok in
      check (Alcotest.option Alcotest.string) "v1 schema echoed"
        (Some Wire.schema_v1)
        (match Json.member "schema" v1_json with
        | Some (Json.Str s) -> Some s
        | _ -> None);
      check Alcotest.bool "no version field in a v1 reply" true
        (Json.member "version" v1_json = None);
      write_fd fd
        (Wire.request_line ~proto:Wire.V2 ~id:2
           (Request.Check
              { test = Named "mp"; models = [ "sc"; "session(ryw,mr)" ] }));
      let v2_line = read_line_fd fd in
      let v2_json = Json.of_string v2_line |> Result.get_ok in
      check (Alcotest.option Alcotest.string) "v2 schema echoed"
        (Some Wire.schema)
        (match Json.member "schema" v2_json with
        | Some (Json.Str s) -> Some s
        | _ -> None);
      check Alcotest.bool "version field in a v2 reply" true
        (Json.member "version" v2_json = Some (Json.Int Wire.version));
      let verdicts_of line =
        let r = response_of_line line in
        match r.Response.payload with
        | Response.Verdicts vs ->
            List.map
              (fun (v : Verdict.t) ->
                (v.Verdict.subject, v.Verdict.authority, v.Verdict.status))
              vs
        | _ -> Alcotest.fail "expected verdicts"
      in
      check Alcotest.bool "v1 and v2 clients see the same verdicts" true
        (verdicts_of v1_line = verdicts_of v2_line))

(* ---------------- frames ---------------- *)

let frames_drain_without_blocking () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let f = Frames.of_fd r in
      write_fd w "one\r\ntwo\nthr";
      check (Alcotest.option Alcotest.string) "next strips cr" (Some "one")
        (Frames.next f);
      check (Alcotest.list Alcotest.string) "drain takes complete lines only"
        [ "two" ] (Frames.drain f ~max:10);
      check (Alcotest.list Alcotest.string) "no blocking on a partial line" []
        (Frames.drain f ~max:10);
      write_fd w "ee\n";
      check (Alcotest.option Alcotest.string) "partial line completed"
        (Some "three") (Frames.next f);
      Unix.close w;
      check (Alcotest.option Alcotest.string) "eof" None (Frames.next f))

(* An in-memory source handing out at most [chunk] bytes per read. *)
let chunked_source text ~chunk =
  let pos = ref 0 in
  {
    Frames.read =
      (fun buf off len ->
        let k = min (min len chunk) (String.length text - !pos) in
        Bytes.blit_string text !pos buf off k;
        pos := !pos + k;
        k);
    readable = (fun () -> true);
  }

let all_lines f =
  let rec go acc =
    match Frames.next f with Some l -> go (l :: acc) | None -> List.rev acc
  in
  go []

(* Framing is linear in the line: a 4 MB line read in 64 KB chunks
   comes back intact, and framing it allocates a small multiple of its
   length (rescanning and recopying the pending bytes on every read
   allocated some 40 times the line, a multiple that grows with the
   line). *)
let frames_long_line_linear () =
  let n = 4 * 1024 * 1024 in
  let line = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
  let text = "\n" ^ line ^ "\r\n\nshort\r\ntail\r" in
  let f = Frames.of_source (chunked_source text ~chunk:65536) in
  let before = Gc.allocated_bytes () in
  let lines = all_lines f in
  let allocated = Gc.allocated_bytes () -. before in
  check (Alcotest.list Alcotest.string)
    "blank lines, stripped \\r, the tail as read"
    [ ""; "<line>"; ""; "short"; "tail\r" ]
    (List.map (fun l -> if l == List.nth lines 1 then "<line>" else l) lines);
  check Alcotest.bool "the long line intact" true (List.nth lines 1 = line);
  let ratio = allocated /. float n in
  if ratio > 8. then
    Alcotest.failf "framing a %d-byte line allocated %.0f bytes (%.1fx)" n
      allocated ratio

let frames_byte_at_a_time () =
  let line = String.init 5000 (fun i -> Char.chr (65 + (i mod 26))) in
  let text = line ^ "\n\r\n\n" ^ line ^ "\r\nend" in
  check (Alcotest.list Alcotest.string) "lines"
    [ line; ""; ""; line; "end" ]
    (all_lines (Frames.of_source (chunked_source text ~chunk:1)))

(* ---------------- sched ---------------- *)

let sched_map_in_order () =
  let s = Sched.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown s)
    (fun () ->
      let results = Sched.map s (List.init 40 (fun i () -> i * i)) in
      check (Alcotest.list Alcotest.int) "results in input order"
        (List.init 40 (fun i -> i * i))
        results;
      Alcotest.check_raises "task exception re-raised at submitter" Exit
        (fun () -> ignore (Sched.map s [ (fun () -> raise Exit) ]));
      check (Alcotest.list Alcotest.int) "pool survives a raising task"
        [ 7 ]
        (Sched.map s [ (fun () -> 7) ]))

(* ---------------- store ---------------- *)

let store_roundtrip () =
  let path = Filename.temp_file "smem_store" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let c1 = Cache.create ~capacity:64 () in
      let s1 = Store.attach ~path c1 in
      check Alcotest.int "fresh store replays nothing" 0 (Store.replayed s1);
      Cache.add c1 ~digest:"d1" ~model:"sc" true;
      Cache.add c1 ~digest:"d1" ~model:"pc" false;
      Cache.add c1 ~digest:"d2" ~model:"sc" true;
      check Alcotest.int "appended" 3 (Store.appended s1);
      Store.close s1;
      let c2 = Cache.create ~capacity:64 () in
      let s2 = Store.attach ~path c2 in
      check Alcotest.int "replayed" 3 (Store.replayed s2);
      check (Alcotest.option Alcotest.bool) "verdict survives restart"
        (Some false)
        (Cache.find c2 ~digest:"d1" ~model:"pc");
      check (Alcotest.option Alcotest.bool) "positive verdict too" (Some true)
        (Cache.find c2 ~digest:"d2" ~model:"sc");
      (* replay must not re-append what it just read *)
      check Alcotest.int "replay appends nothing" 0 (Store.appended s2);
      Store.close s2)

let store_tolerates_garbage_and_truncation () =
  let path = Filename.temp_file "smem_store" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let c1 = Cache.create ~capacity:64 () in
      let s1 = Store.attach ~path c1 in
      Cache.add c1 ~digest:"good" ~model:"sc" true;
      Store.close s1;
      (* simulate a crash mid-append plus stray junk *)
      let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
      output_string oc "not a record at all\n";
      output_string oc "trunc sc";
      (* no verdict, no newline *)
      close_out oc;
      let c2 = Cache.create ~capacity:64 () in
      let s2 = Store.attach ~path c2 in
      check Alcotest.int "only the good record replays" 1 (Store.replayed s2);
      check (Alcotest.option Alcotest.bool) "good record intact" (Some true)
        (Cache.find c2 ~digest:"good" ~model:"sc");
      (* the store still accepts new appends after a dirty replay *)
      Cache.add c2 ~digest:"after" ~model:"sc" false;
      check Alcotest.int "appends resume" 1 (Store.appended s2);
      Store.close s2)

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* A record decided under another definition of its model (here: a
   tso record whose fingerprint no longer matches) is stale: after a
   restart that cell is searched again, and the rest are served warm. *)
let store_stale_fingerprint_restarts_that_cell () =
  let path = Filename.temp_file "smem_store" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let request cache =
        Service.handle (Service.create ~cache ())
          (Request.Check
             {
               test = Request.Named "fig1";
               models = [ "sc"; "tso"; "tso-op"; "pram" ];
             })
      in
      let c1 = Cache.create ~capacity:64 () in
      let s1 = Store.attach ~path c1 in
      let cold = request c1 in
      check Alcotest.int "cold: nothing cached" 0 cold.Response.cached;
      check Alcotest.int "cold: every cell logged" 4 (Store.appended s1);
      Store.close s1;
      let lines = read_lines path in
      check Alcotest.string "v2 header" "# smem-store/2" (List.hd lines);
      (* tso's record under a fingerprint no definition has; tso-op's
         under the one it had while it was the store-buffer replay,
         the MD5 of its retired version string. *)
      let retired =
        String.sub (Digest.to_hex (Digest.string "tso-op/1")) 0 16
      in
      write_lines path
        (List.map
           (fun l ->
             match String.split_on_char ' ' l with
             | [ d; (("tso" | "tso-op") as key); fp; v ] ->
                 check
                   (Alcotest.option Alcotest.string)
                   (key ^ "'s fingerprint") (Store.fingerprint key) (Some fp);
                 let stale =
                   if key = "tso" then "0123456789abcdef" else retired
                 in
                 String.concat " " [ d; key; stale; v ]
             | _ -> l)
           lines);
      let c2 = Cache.create ~capacity:64 () in
      let s2 = Store.attach ~path c2 in
      check Alcotest.int "two records replay" 2 (Store.replayed s2);
      check Alcotest.int "two records stale" 2 (Store.stale s2);
      let warm = request c2 in
      check Alcotest.int "warm: two cells cached" 2 warm.Response.cached;
      check Alcotest.int "warm: the stale cells decided again" 2
        warm.Response.computed;
      (match warm.Response.payload with
      | Response.Verdicts vs ->
          List.iter
            (fun v ->
              let stale = List.mem v.Verdict.authority [ "tso"; "tso-op" ] in
              check Alcotest.bool
                (v.Verdict.authority ^ " cached")
                (not stale) v.Verdict.cached)
            vs;
          check
            (Alcotest.list (Alcotest.option Alcotest.bool))
            "same verdicts"
            (List.map (fun v -> Option.map Verdict.bool_of_status v.Verdict.status)
               (match cold.Response.payload with
               | Response.Verdicts vs -> vs
               | _ -> []))
            (List.map (fun v -> Option.map Verdict.bool_of_status v.Verdict.status) vs)
      | _ -> Alcotest.fail "warm check did not answer with verdicts");
      check Alcotest.int "the recomputed cells are logged anew" 2
        (Store.appended s2);
      Store.close s2)

(* smem-store/1 kept no fingerprints: none of its records can be
   trusted, so the log replays nothing and starts afresh as v2. *)
let store_v1_log_is_stale () =
  let path = Filename.temp_file "smem_store" ".log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      write_lines path [ "# smem-store/1"; "d1 sc 1"; "d1 pram 0" ];
      let c = Cache.create ~capacity:64 () in
      let s = Store.attach ~path c in
      check Alcotest.int "nothing replayed" 0 (Store.replayed s);
      check Alcotest.int "both records stale" 2 (Store.stale s);
      check (Alcotest.option Alcotest.bool) "no verdict loaded" None
        (Cache.find c ~digest:"d1" ~model:"sc");
      Cache.add c ~digest:"d1" ~model:"sc" false;
      Store.close s;
      match read_lines path with
      | [ header; record ] ->
          check Alcotest.string "restarted as v2" "# smem-store/2" header;
          check Alcotest.int "one v2 record" 4
            (List.length (String.split_on_char ' ' record))
      | lines -> Alcotest.failf "%d lines in the restarted log" (List.length lines))

(* ---------------- daemon ---------------- *)

let temp_sock_path () =
  let path = Filename.temp_file "smem_daemon" ".sock" in
  Sys.remove path;
  path

let daemon_interleaved_clients () =
  let path = temp_sock_path () in
  let cache = Cache.create ~capacity:4096 () in
  let d =
    Daemon.create ~jobs:2 ~cache ~endpoints:[ Daemon.Unix_socket path ] ()
  in
  Daemon.start d;
  let names = [ "fig1"; "fig2"; "mp"; "lb"; "iriw" ] in
  let client i =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX path);
        List.for_all Fun.id
          (List.mapi
             (fun j name ->
               let id = (i * 100) + j + 1 in
               write_fd fd
                 (Wire.request_line ~id
                    (Request.Check { test = Named name; models = [ "sc" ] }));
               (* request/response lockstep interleaves the clients *)
               let r = response_of_line (read_line_fd fd) in
               r.Response.id = Some id && Response.ok r)
             names))
  in
  let results = Array.make 4 false in
  let threads =
    List.init 4 (fun i ->
        Thread.create (fun () -> results.(i) <- client i) ())
  in
  List.iter Thread.join threads;
  Daemon.stop d;
  Daemon.wait d;
  Array.iteri
    (fun i ok ->
      check Alcotest.bool
        (Printf.sprintf "client %d: every reply in order and ok" i)
        true ok)
    results;
  check Alcotest.bool "socket file removed on drain" false
    (Sys.file_exists path)

let daemon_warm_restart () =
  let sock = temp_sock_path () in
  let store_path = Filename.temp_file "smem_store" ".log" in
  Sys.remove store_path;
  let names = [ "fig1"; "fig2"; "mp" ] in
  let pass () =
    let cache = Cache.create ~capacity:4096 () in
    let d =
      Daemon.create ~jobs:2 ~cache ~store:store_path
        ~endpoints:[ Daemon.Unix_socket sock ] ()
    in
    Daemon.start d;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let totals =
      List.mapi
        (fun j name ->
          write_fd fd
            (Wire.request_line ~id:(j + 1)
               (Request.Check { test = Named name; models = [] }));
          let r = response_of_line (read_line_fd fd) in
          check Alcotest.bool (name ^ " ok") true (Response.ok r);
          (r.Response.cached, r.Response.computed))
        names
    in
    Unix.close fd;
    Daemon.stop d;
    Daemon.wait d;
    List.fold_left
      (fun (c, k) (c', k') -> (c + c', k + k'))
      (0, 0) totals
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists store_path then Sys.remove store_path)
    (fun () ->
      let _, computed_cold = pass () in
      check Alcotest.bool "cold pass computes" true (computed_cold > 0);
      (* brand-new daemon, brand-new cache, same store file *)
      let cached_warm, computed_warm = pass () in
      check Alcotest.int "warm restart computes nothing" 0 computed_warm;
      check Alcotest.bool "warm restart serves from the store" true
        (cached_warm > 0))

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          tc "basics" cache_basics;
          tc "rows: last write wins, one hit or miss per cell" cache_rows;
          tc "bounded + fifo eviction" cache_bounded;
          tc "find_or_add" cache_find_or_add;
          tc "clear" cache_clear;
          tc "bad args" cache_rejects_bad_args;
          tc "distinct digests spread over shards" cache_digests_spread_over_shards;
          tc "parallel find_or_add: exact accounting" cache_parallel_find_or_add;
          tc "parallel find_or_add: shared keys" cache_parallel_same_key;
        ] );
      ( "service",
        tc "corpus twice: warm pass cached, verdicts stable" corpus_twice
        :: tc "structured errors" service_errors
        :: tc "models request answers the catalogue" service_models_catalogue
        :: tc "view-search boundary answers Too_large"
             service_too_large_boundary
        :: tc "one canon.digest per test" service_one_digest_per_test
        :: tc "generated corpus: served = searched"
             inference_on_generated_corpus
        :: tc "a contradicting row is searched, not inferred"
             contradicting_row_is_searched
        :: tc "Figure 5 reaches every catalogue model"
             figure5_reaches_every_model
        :: List.map QCheck_alcotest.to_alcotest
             [
               cached_equals_fresh;
               service_renaming_hits;
               inference_never_changes_a_verdict `No;
               inference_never_changes_a_verdict `Mixed;
             ] );
      ( "server",
        [
          tc "in-order responses, id echo" server_answers_in_order;
          tc "bad line answered in position" server_bad_line_in_position;
          tc "rejected v2 line answered in v2" server_rejected_v2_line_in_kind;
          tc "second pass all cached" server_second_pass_all_cached;
          tc "partial batch answered without waiting" server_partial_batch;
          tc "malformed frame mid-stream" server_malformed_frame_mid_stream;
          tc "v1 client of a v2 server answered in kind"
            server_answers_in_kind;
        ] );
      ( "frames",
        [
          tc "drain takes only what is available" frames_drain_without_blocking;
          tc "a 4 MB line in 64 KB chunks, linear" frames_long_line_linear;
          tc "a 5 KB line a byte at a time" frames_byte_at_a_time;
        ] );
      ("sched", [ tc "map: ordered results, exceptions" sched_map_in_order ]);
      ( "store",
        [
          tc "roundtrip across restart" store_roundtrip;
          tc "garbage and truncation tolerated"
            store_tolerates_garbage_and_truncation;
          tc "a stale fingerprint restarts that cell cold"
            store_stale_fingerprint_restarts_that_cell;
          tc "a v1 log is stale as a whole" store_v1_log_is_stale;
        ] );
      ( "daemon",
        [
          tc "four interleaved clients, in-order replies"
            daemon_interleaved_clients;
          tc "warm restart answers from the store" daemon_warm_restart;
        ] );
    ]
