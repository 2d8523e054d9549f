(* smem: command-line front end for the shared-memory characterization
   toolkit.  Subcommands:

     models     list the memory models
     check      check a litmus file against models
     corpus     run the built-in corpus (verdict matrix)
     explain    show witness views for a corpus test or file
     lattice    recompute the paper's Figure 5 empirically
     mutex      explore a mutual-exclusion algorithm on a machine
     simulate   machine reachability for a litmus test *)

module Model = Smem_core.Model
module History = Smem_core.History
module Witness = Smem_core.Witness
module Registry = Smem_core.Registry
module Test = Smem_litmus.Test
module Corpus = Smem_litmus.Corpus
module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel
module Machines = Smem_machine.Machines
module Driver = Smem_machine.Driver
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Wire = Smem_api.Wire
module Service = Smem_serve.Service
open Cmdliner

(* Model arguments go through {!Registry.resolve}: catalogue keys and
   family references ([pc-part(blocks=3)], [session(ryw,mr)]) both
   work, and the failure message carries the grammar or argument error
   — with a did-you-mean suggestion for near-misses. *)
let model_conv =
  let parse s =
    match Registry.resolve s with
    | Ok m -> Ok m
    | Error reason -> Error (`Msg reason)
  in
  Arg.conv (parse, fun ppf (m : Model.t) -> Format.pp_print_string ppf m.Model.key)

let machine_conv =
  let parse s =
    match Machines.find s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown machine %S (known: %s)" s
               (String.concat ", " (List.map Machines.name Machines.all))))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Machines.name m))

let models_arg =
  Arg.(
    value
    & opt_all model_conv []
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Model(s) to check against.")

let resolve_models = function [] -> Registry.all | ms -> ms

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the search (1 = serial; 0 = one per \
           recommended core).  Verdicts are identical for every value.")

let resolve_jobs = function
  | 0 -> Smem_parallel.Pool.default_jobs ()
  | n when n < 1 -> 1
  | n -> n

let default_cache_capacity = 65536

let cache_arg =
  Arg.(
    value & opt int default_cache_capacity
    & info [ "cache" ] ~docv:"N"
        ~doc:
          "Verdict cache capacity in rows, one row per canonical history \
           digest holding its verdicts under every model (0 disables \
           caching).  Equivalent histories — up to processor permutation \
           and location/value renaming — share a row.")

(* Every verdict-producing subcommand goes through one Service: typed
   requests in, structured responses out; the CLI only parses arguments
   and renders. *)
let make_service ?(jobs = 1) capacity =
  let cache =
    if capacity > 0 then Some (Smem_cache.Cache.create ~capacity ())
    else None
  in
  Service.create ?cache ~jobs ()

let model_keys models =
  List.map (fun (m : Model.t) -> m.Model.key) models

let die_on_error (resp : Response.t) =
  match resp.Response.payload with
  | Response.Error { message; _ } ->
      Format.eprintf "error: %s@." message;
      exit 2
  | _ -> resp

let verdicts_of_response (resp : Response.t) =
  match (die_on_error resp).Response.payload with
  | Response.Verdicts vs -> vs
  | _ ->
      Format.eprintf "error: unexpected %s payload@." resp.Response.kind;
      exit 2

let disagreements vs = List.filter (fun v -> not (Verdict.agrees v)) vs

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print search statistics on exit: checks run, reads-from maps \
           and coherence orders enumerated, candidates pruned, \
           topological sorts, complete labeled orders, and wall time.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print every registered observability metric on exit (the \
           search counters plus pool, machine, fuzz and certificate \
           instrumentation), as a name/value table.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans of the instrumented hot paths (the service's \
           parse, resolve, digest and cache-lookup layers, checks, rf/co \
           enumeration, toposorts, pool tasks, machine replays, fuzz \
           cases, kernel verifications) and write them to $(docv) as \
           Chrome trace-event JSON on exit; open it in chrome://tracing \
           or https://ui.perfetto.dev.")

(* The three observability switches travel together: reset the
   registry up front and report/flush on exit (several subcommands exit
   early on mismatches; at_exit covers every path). *)
type obs = { stats : bool; metrics : bool; trace : string option }

let obs_term =
  let combine stats metrics trace = { stats; metrics; trace } in
  Term.(const combine $ stats_arg $ metrics_arg $ trace_arg)

(* [serve] keeps stdout machine-clean (it is the protocol stream), so
   it reports on stderr instead. *)
let setup_obs ?(ppf = Format.std_formatter) o =
  Smem_core.Stats.reset ();
  (match o.trace with
  | Some file -> Smem_obs.Trace.start ~file ()
  | None -> ());
  at_exit (fun () ->
      if o.stats then
        Format.fprintf ppf "@.%a@." Smem_core.Stats.pp
          (Smem_core.Stats.snapshot ());
      if o.metrics then
        Format.fprintf ppf "@.%a@." Smem_obs.Metrics.pp
          (Smem_obs.Metrics.snapshot ());
      if o.stats || o.metrics then Format.pp_print_flush ppf ();
      Smem_obs.Trace.stop ())

(* The witness engine is process-global state (Model.witness_of
   dispatches on it), so the flag is plain setup like the observability
   switches: parse, install the solver, set the mode. *)
let engine_arg =
  Arg.(
    value
    & opt
        (enum [ ("enum", Model.Enum); ("solve", Model.Solve) ])
        Model.Enum
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Witness engine: $(b,enum) enumerates the candidates (reads-from \
           map, labeled order, write order) that a model's parameter \
           quadruple implies; $(b,solve) searches the same candidates \
           variable by variable with constraint propagation (watched \
           views, conflict-driven nogood learning).  Both accept a \
           candidate through the same per-candidate check, so verdicts \
           are identical — $(b,smem fuzz --engines) checks them.  \
           Certificates are byte-identical on the built-in corpus; on \
           generated corpora the witnesses may differ, and the kernel \
           accepts both.  The solver hands object legality (causal-obj) \
           and store forwarding (tso-op) to the enumerator.")

let setup_engine engine =
  Smem_solve.Solve.install ();
  Model.set_engine engine

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_test source =
  match Corpus.find source with
  | Some t -> Ok t
  | None ->
      if Sys.file_exists source then
        match Smem_litmus.Parse.test_of_string (read_file source) with
        | Ok t -> Ok t
        | Error e -> Error (Format.asprintf "%s: %a" source Smem_litmus.Parse.pp_error e)
      else Error (Printf.sprintf "no corpus test or file named %S" source)

let cert_format_arg =
  Arg.(
    value
    & opt (enum [ ("sexp", `Sexp); ("json", `Json) ]) `Sexp
    & info [ "cert-format" ] ~docv:"FMT"
        ~doc:"Certificate serialization: $(b,sexp) or $(b,json).")

let certify_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "certify" ] ~docv:"DIR"
        ~doc:
          "Emit a verdict certificate per test × model into $(docv) as \
           <test>.<model>.cert, re-validating each with the independent \
           kernel before writing.  Exits nonzero if the kernel rejects \
           one.  Models without a declared parameter triple are skipped.")

(* A test as a request source: corpus tests go by name, anything else
   travels inline in litmus syntax ({!Print} inverts {!Parse}). *)
let source_of_test (t : Test.t) =
  match Corpus.find t.Test.name with
  | Some _ -> Request.Named t.Test.name
  | None -> Request.Inline (Smem_litmus.Print.to_string t)

(* Certify every test × model cell into [dir] through the service (the
   kernel re-checks each certificate before it is answered).  Exits 1
   if the kernel rejects any (that would mean the engine and the kernel
   disagree — exactly the bug class certificates exist to catch). *)
let certify_all ~service ~dir ~format ~models tests =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let written = ref 0 and rejected = ref 0 in
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun key ->
          let resp =
            Service.handle service
              (Request.Certify { test = source_of_test t; model = key; format })
          in
          match resp.Response.payload with
          | Response.Certificate { body; _ } ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s.%s.cert" t.Test.name key)
              in
              let oc = open_out path in
              output_string oc body;
              close_out oc;
              incr written
          | Response.Error { message; _ } ->
              Format.eprintf "certificate REJECTED (%s under %s): %s@."
                t.Test.name key message;
              incr rejected
          | _ -> assert false)
        (model_keys models))
    tests;
  Format.printf "%d certificate(s) written to %s@." !written dir;
  if !rejected > 0 then begin
    Format.eprintf "%d certificate(s) rejected by the kernel@." !rejected;
    exit 1
  end

(* The library algorithms, by the name an ALGORITHM argument gives;
   any other argument is a path to a .smem program file. *)
let algorithms =
  let open Smem_lang.Programs in
  [
    ("bakery", fun ~labeled ~n -> bakery ~labeled ~n ());
    ("peterson", fun ~labeled ~n:_ -> peterson ~labeled ());
    ("dekker", fun ~labeled ~n:_ -> dekker ~labeled ());
    ("naive", fun ~labeled ~n:_ -> naive_flags ~labeled ());
    ("spinlock", fun ~labeled:_ ~n:_ -> tas_spinlock ());
    ("spinlock-stress", fun ~labeled:_ ~n -> spinlock_stress ~nprocs:n ());
    ("mp", fun ~labeled ~n:_ -> mp ~labeled ());
    ("sb", fun ~labeled:_ ~n:_ -> sb ());
    ("seqlock", fun ~labeled ~n:_ -> seqlock ~labeled ());
  ]

let load_program name ~labeled ~n =
  match List.assoc_opt name algorithms with
  | Some build -> Ok (build ~labeled ~n)
  | None when Sys.file_exists name -> (
      match Smem_lang.Parse_prog.program_of_string (read_file name) with
      | Ok p -> Ok p
      | Error e ->
          Error (Format.asprintf "%s: %a" name Smem_lang.Parse_prog.pp_error e))
  | None ->
      Error
        (Printf.sprintf "no algorithm or program file named %S (known: %s)"
           name
           (String.concat ", " (List.map fst algorithms)))

let algorithm_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ALGORITHM"
        ~doc:
          (String.concat " | " (List.map fst algorithms)
          ^ ", or a .smem file."))

(* ------------------------------------------------------------------ *)

let models_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the catalogue as JSON — the payload of the smem-api/2 \
             [models] response, the same bytes a daemon client gets.")
  in
  let run json =
    let resp = die_on_error (Service.handle (Service.create ()) Request.Models) in
    match resp.Response.payload with
    | Response.Catalogue { models; families } ->
        if json then
          (match
             Smem_obs.Json.member "payload"
               (Wire.response_to_json ~proto:Wire.V2 resp)
           with
          | Some payload -> print_string (Smem_obs.Json.to_string payload)
          | None -> ())
        else begin
          List.iter
            (fun (m : Response.model_info) ->
              Format.printf "%-24s %-34s %s@." m.Response.key m.Response.name
                m.Response.description;
              Format.printf "%-24s   %s@." ""
                (String.concat "; "
                   (List.map (fun (k, v) -> k ^ "=" ^ v) m.Response.params)))
            models;
          Format.printf "@.parameterized families (smem check -m \
                         'family(arg=value,...)'):@.";
          List.iter
            (fun (f : Response.family_info) ->
              Format.printf "  %-12s %s@." f.Response.family f.Response.doc;
              List.iter
                (fun (name, doc) -> Format.printf "    %-10s %s@." name doc)
                f.Response.params)
            families
        end
    | _ ->
        Format.eprintf "error: unexpected %s payload@." resp.Response.kind;
        exit 2
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:
         "List the memory models: every catalogued model with its \
          parameter quadruple, and the parameterized families with \
          their argument domains.")
    Term.(const run $ json_arg)

let check_cmd =
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Corpus test name or litmus file.")
  in
  let check_one ~service ~models test =
    Format.printf "%s@." (Smem_litmus.Print.to_string test);
    let resp =
      Service.handle service
        (Request.Check { test = source_of_test test; models = model_keys models })
    in
    let vs = verdicts_of_response resp in
    List.iter (fun v -> Format.printf "%a@." Verdict.pp v) vs;
    List.length (disagreements vs)
  in
  let run source models obs engine certify format cache =
    setup_obs obs;
    setup_engine engine;
    let models = resolve_models models in
    let service = make_service cache in
    let emit tests =
      match certify with
      | Some dir -> certify_all ~service ~dir ~format ~models tests
      | None -> ()
    in
    if Sys.file_exists source && Sys.is_directory source then begin
      (* Check every .litmus file in the directory. *)
      let files =
        Sys.readdir source |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".litmus")
        |> List.sort compare
      in
      let mismatches = ref 0 in
      let checked = ref [] in
      List.iter
        (fun file ->
          let path = Filename.concat source file in
          match Smem_litmus.Parse.tests_of_string (read_file path) with
          | Error e ->
              Format.eprintf "%s: %a@." path Smem_litmus.Parse.pp_error e;
              incr mismatches
          | Ok tests ->
              List.iter
                (fun t ->
                  checked := t :: !checked;
                  mismatches := !mismatches + check_one ~service ~models t)
                tests)
        files;
      Format.printf "@.%d file(s), %d mismatch(es)@." (List.length files)
        !mismatches;
      emit (List.rev !checked);
      if !mismatches > 0 then exit 1
    end
    else
      match load_test source with
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 2
      | Ok test ->
          let bad = check_one ~service ~models test in
          emit [ test ];
          if bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check a litmus test — or every .litmus file in a directory — \
          against memory models.")
    Term.(const run $ source $ models_arg $ obs_term $ engine_arg
          $ certify_arg $ cert_format_arg $ cache_arg)

let corpus_cmd =
  let run models jobs obs engine certify format cache =
    setup_obs obs;
    setup_engine engine;
    let models = resolve_models models in
    let service = make_service ~jobs:(resolve_jobs jobs) cache in
    let resp =
      Service.handle service (Request.Corpus { models = model_keys models })
    in
    let vs = verdicts_of_response resp in
    Verdict.pp_matrix Format.std_formatter vs;
    let bad = disagreements vs in
    Format.printf "%d verdicts, %d disagree with stated expectations@."
      (List.length vs) (List.length bad);
    (match certify with
    | Some dir -> certify_all ~service ~dir ~format ~models Corpus.all
    | None -> ());
    if bad <> [] then exit 1
  in
  let builtin_term =
    Term.(const run $ models_arg $ jobs_arg $ obs_term $ engine_arg
          $ certify_arg $ cert_format_arg $ cache_arg)
  in
  let generate_cmd =
    let seed =
      Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generation seed.")
    in
    let count =
      Arg.(
        value & opt int 1000
        & info [ "count" ] ~doc:"Number of deduplicated tests to generate.")
    in
    let max_ops =
      Arg.(
        value & opt int 12
        & info [ "max-ops" ]
            ~doc:
              "Largest history kept; longer executions contribute their \
               prefixes instead.")
    in
    let expect =
      Arg.(
        value & opt_all model_conv []
        & info [ "expect" ] ~docv:"MODEL"
            ~doc:
              "Stamp each test with this model's computed verdict as an \
               expect line (repeatable).")
    in
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"FILE"
            ~doc:"Write the artifact to $(docv) instead of stdout.")
    in
    let run seed count max_ops expect out =
      let tests = Smem_corpus.Corpus.generate ~seed ~count ~max_ops ~expect () in
      let s = Smem_corpus.Corpus.to_string ~seed tests in
      match out with
      | None -> print_string s
      | Some path ->
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc;
          Format.eprintf "%d tests -> %s@." (List.length tests) path
    in
    Cmd.v
      (Cmd.info "generate"
         ~doc:
           "Generate a deduplicated smem-corpus/1 litmus artifact from \
            program executions (deterministic in --seed).")
      Term.(const run $ seed $ count $ max_ops $ expect $ out)
  in
  Cmd.group ~default:builtin_term
    (Cmd.info "corpus"
       ~doc:"Run the built-in litmus corpus, or generate one from programs.")
    [ generate_cmd ]

let explain_cmd =
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Corpus test name or litmus file.")
  in
  let model =
    Arg.(
      required
      & opt (some model_conv) None
      & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Model to explain under.")
  in
  let run source (model : Model.t) obs engine =
    setup_obs obs;
    setup_engine engine;
    match load_test source with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    | Ok test -> (
        let h = test.Test.history in
        Format.printf "%a@.@." History.pp h;
        match Model.witness_of model h with
        | Some w ->
            Format.printf "allowed by %s; witness views:@.%a@." model.Model.name
              (Witness.pp h) w
        | None ->
            let rf_count, co_count = Smem_core.Diagnose.candidate_space h in
            Format.printf
              "forbidden by %s: no legal views exist (%d reads-from map(s) x \
               %d coherence order(s) exhausted).@."
              model.Model.name rf_count co_count;
            if model.Model.key = "sc" then
              match Smem_core.Diagnose.sc_cycle h with
              | Some cycle ->
                  Format.printf
                    "under the first candidate, the constraint graph cycles:@.%a"
                    (Smem_core.Diagnose.pp_cycle h) cycle
              | None -> ())
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show witness views (or their absence) for a test.")
    Term.(const run $ source $ model $ obs_term $ engine_arg)

let lattice_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit a Graphviz Hasse diagram.")
  in
  let run dot jobs obs engine =
    setup_obs obs;
    setup_engine engine;
    if dot then
      (* Graphviz needs the full matrix (witness histories included),
         so the dot path stays on the library API. *)
      print_string
        (Smem_lattice.Classify.to_dot
           (Smem_lattice.Classify.classify_scopes ~jobs:(resolve_jobs jobs)
              ~models:Registry.comparable
              Smem_lattice.Classify.standard_scopes))
    else
      let service = make_service ~jobs:(resolve_jobs jobs) 0 in
      let resp =
        Service.handle service (Request.Classify { models = []; scopes = [] })
      in
      match (die_on_error resp).Response.payload with
      | Response.Classification { total; allowed; relations; hasse } ->
          Format.printf "%d histories enumerated@." total;
          List.iter
            (fun (key, count) -> Format.printf "  %-12s allows %d@." key count)
            allowed;
          Format.printf "pairwise relations:@.";
          List.iter
            (fun (a, b, rel) -> Format.printf "  %-12s %-12s %s@." a b rel)
            (List.filter (fun (a, b, _) -> a < b) relations);
          Format.printf "Hasse edges (stronger -> weaker):@.";
          List.iter
            (fun (s, w) -> Format.printf "  %s -> %s@." s w)
            hasse
      | _ ->
          Format.eprintf "error: unexpected %s payload@." resp.Response.kind;
          exit 2
  in
  Cmd.v
    (Cmd.info "lattice"
       ~doc:"Recompute the containment lattice of the paper's Figure 5.")
    Term.(const run $ dot $ jobs_arg $ obs_term $ engine_arg)

let mutex_cmd =
  let machine =
    Arg.(
      required
      & opt (some machine_conv) None
      & info [ "machine" ] ~docv:"MACHINE" ~doc:"Machine to run on.")
  in
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Processors (bakery only).") in
  let unlabeled =
    Arg.(
      value & flag
      & info [ "unlabeled" ]
          ~doc:"Mark no operation as synchronization (ordinary accesses only).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Report the DPOR reduction counters (states, transitions, ample \
             hits, sleep and covering skips) after the verdict.")
  in
  let run alg machine n unlabeled stats =
    let program =
      match load_program alg ~labeled:(not unlabeled) ~n with
      | Ok p -> p
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 2
    in
    let verdict, dstats = Smem_lang.Explore.check_mutex_stats machine program in
    let report () =
      if stats then Format.printf "%a@." Smem_lang.Dpor.pp_stats dstats
    in
    match verdict with
    | Smem_lang.Explore.Safe states ->
        Format.printf "mutual exclusion HOLDS (%d states explored)@." states;
        report ()
    | Smem_lang.Explore.Violation trace ->
        Format.printf "mutual exclusion VIOLATED; schedule:@.";
        List.iter (fun line -> Format.printf "  %s@." line) trace;
        report ();
        exit 1
    | Smem_lang.Explore.State_limit ->
        Format.printf "state limit reached (no violation found so far)@.";
        report ();
        exit 3
  in
  Cmd.v
    (Cmd.info "mutex"
       ~doc:
         "Exhaustively explore a mutual-exclusion algorithm on a machine \
          (sleep-set DPOR).")
    Term.(const run $ algorithm_arg $ machine $ n $ unlabeled $ stats)

let distinguish_cmd =
  let model_pos n doc =
    Arg.(required & pos n (some model_conv) None & info [] ~docv:"MODEL" ~doc)
  in
  let procs =
    Arg.(
      value
      & opt (list int) [ 2; 2 ]
      & info [ "procs" ] ~docv:"N,M,..."
          ~doc:"Operations per processor in the search scope.")
  in
  let nlocs = Arg.(value & opt int 2 & info [ "locs" ] ~doc:"Locations.") in
  let maxv = Arg.(value & opt int 1 & info [ "max-value" ] ~doc:"Largest written value.") in
  let labeled =
    Arg.(
      value & flag
      & info [ "labeled" ] ~doc:"Also enumerate labeled/ordinary attributes.")
  in
  let standard =
    Arg.(
      value & flag
      & info [ "standard-scopes" ]
          ~doc:"Search the Figure-5 sweep instead of a single custom scope.")
  in
  let run (a : Model.t) (b : Model.t) procs nlocs maxv labeled standard jobs
      obs =
    setup_obs obs;
    let scopes =
      if standard then []
      else [ { Request.procs; nlocs; max_value = maxv; labeled } ]
    in
    let service = make_service ~jobs:(resolve_jobs jobs) 0 in
    let resp =
      Service.handle service
        (Request.Distinguish { a = a.Model.key; b = b.Model.key; scopes })
    in
    match (die_on_error resp).Response.payload with
    | Response.Distinction { relation; witnesses } ->
        (match relation with
        | "equal" ->
            Format.printf
              "%s and %s allow the same histories over the searched scopes@."
              a.Model.key b.Model.key
        | "a-stronger" ->
            Format.printf "%s is strictly stronger than %s@." a.Model.key
              b.Model.key
        | "b-stronger" ->
            Format.printf "%s is strictly stronger than %s@." b.Model.key
              a.Model.key
        | _ ->
            Format.printf "%s and %s are incomparable@." a.Model.key
              b.Model.key);
        List.iter
          (fun (role, litmus) ->
            Format.printf "@.witness (%s):@.%s@." role (String.trim litmus))
          witnesses
    | _ ->
        Format.eprintf "error: unexpected %s payload@." resp.Response.kind;
        exit 2
  in
  Cmd.v
    (Cmd.info "distinguish"
       ~doc:
         "Search exhaustively for histories separating two memory models \
          (the paper's §4 comparisons, automated).")
    Term.(
      const run $ model_pos 0 "First model." $ model_pos 1 "Second model."
      $ procs $ nlocs $ maxv $ labeled $ standard $ jobs_arg $ obs_term)

let liveness_cmd =
  let machine =
    Arg.(
      required
      & opt (some machine_conv) None
      & info [ "machine" ] ~docv:"MACHINE" ~doc:"Machine to run on.")
  in
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Processors (bakery only).") in
  let unlabeled =
    Arg.(
      value & flag
      & info [ "unlabeled" ] ~doc:"Mark no operation as synchronization.")
  in
  let run alg machine n unlabeled =
    let program =
      match load_program alg ~labeled:(not unlabeled) ~n with
      | Ok p -> p
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 2
    in
    match Smem_lang.Explore.check_deadlock_freedom machine program with
    | Smem_lang.Explore.Deadlock_free states ->
        Format.printf
          "deadlock-free: every reachable state can terminate (%d states)@."
          states
    | Smem_lang.Explore.Stuck k ->
        Format.printf "STUCK: %d reachable state(s) cannot reach termination@." k;
        exit 1
    | Smem_lang.Explore.Liveness_state_limit ->
        Format.printf "state limit reached@.";
        exit 3
  in
  Cmd.v
    (Cmd.info "liveness"
       ~doc:
         "Check deadlock freedom: from every reachable state some schedule \
          completes all threads (the §5 deadlock-freedom claim for the \
          Bakery algorithm under SC).")
    Term.(const run $ algorithm_arg $ machine $ n $ unlabeled)

let races_cmd =
  let n = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Processors (bakery only).") in
  let unlabeled =
    Arg.(
      value & flag
      & info [ "unlabeled" ] ~doc:"Mark no operation as synchronization.")
  in
  let run alg n unlabeled =
    let program =
      match load_program alg ~labeled:(not unlabeled) ~n with
      | Ok p -> p
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit 2
    in
    match Smem_lang.Races.find_race program with
    | Smem_lang.Races.Race_free states ->
        Format.printf
          "race-free over all SC executions (%d states): properly labeled@."
          states
    | Smem_lang.Races.Race (a, b) ->
        Format.printf "DATA RACE: %a concurrent with %a@."
          Smem_lang.Races.pp_access a Smem_lang.Races.pp_access b;
        exit 1
    | Smem_lang.Races.State_limit ->
        Format.printf "state limit reached@.";
        exit 3
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Detect data races over the SC executions of an algorithm (the \
          properly-labeled condition of the paper).")
    Term.(const run $ algorithm_arg $ n $ unlabeled)

let simulate_cmd =
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Corpus test name or litmus file.")
  in
  let machine =
    Arg.(
      required
      & opt (some machine_conv) None
      & info [ "machine" ] ~docv:"MACHINE" ~doc:"Machine to replay on.")
  in
  let run source machine =
    match load_test source with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    | Ok test ->
        let h = test.Test.history in
        let program = Driver.program_of_history h in
        let ok = Driver.reachable machine program h in
        Format.printf "%a@.@." History.pp h;
        Format.printf "%s on the %s machine@."
          (if ok then "REACHABLE" else "unreachable")
          (Machines.name machine);
        if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Decide whether a machine can exhibit a litmus history.")
    Term.(const run $ source $ machine)

let custom_cmd =
  let module B = Smem_core.Build in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Corpus test name or litmus file.")
  in
  let conv_of parse print =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
        fun ppf v -> Format.pp_print_string ppf (print v) )
  in
  let ops_arg =
    Arg.(
      value
      & opt
          (conv_of B.parse_operations B.operations_to_string)
          `Writes_of_others
      & info [ "ops" ] ~docv:"SET" ~doc:"View population: all | writes.")
  in
  let mutual_arg =
    Arg.(
      value
      & opt (conv_of B.parse_mutual B.mutual_to_string) `No_agreement
      & info [ "mutual" ] ~docv:"REQ"
          ~doc:"Mutual consistency: none | coherence | global-writes | total.")
  in
  let order_arg =
    Arg.(
      value
      & opt_all
          (conv_of B.parse_ordering Model.ordering_to_string)
          [ Model.Program_order ]
      & info [ "order" ] ~docv:"ORD" ~absent:"po"
          ~doc:
            "Ordering requirement (repeatable; union): po | ppo | po-loc | \
             own-po | causal | semi-causal.")
  in
  let run source operations mutual orderings obs =
    setup_obs obs;
    let model =
      try
        B.make ~key:"custom" ~name:"Custom Model" ~operations ~mutual ~orderings
          ()
      with Invalid_argument msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    in
    match load_test source with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    | Ok test -> (
        let h = test.Test.history in
        Format.printf "%a@.@.%s@." History.pp h model.Model.description;
        match Model.witness_of model h with
        | Some w ->
            Format.printf "allowed; witness views:@.%a@." (Witness.pp h) w
        | None -> Format.printf "forbidden: no legal views exist.@.")
  in
  Cmd.v
    (Cmd.info "custom"
       ~doc:
         "Check a test against a model composed from the paper's three \
          parameters (§2): view population, mutual consistency, ordering.")
    Term.(const run $ source $ ops_arg $ mutual_arg $ order_arg $ obs_term)

let outcomes_cmd =
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"Corpus test name or litmus file.")
  in
  let machines_arg =
    Arg.(
      value
      & opt_all machine_conv []
      & info [ "machine" ] ~docv:"MACHINE"
          ~doc:"Machine(s) to enumerate (default: all).")
  in
  let run source machines =
    match load_test source with
    | Error msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    | Ok test ->
        let h = test.Test.history in
        let program = Driver.program_of_history h in
        let machines = match machines with [] -> Machines.all | ms -> ms in
        Format.printf "%a@.@." History.pp h;
        Format.printf
          "read-value outcomes (reads in processor-major order):@.";
        List.iter
          (fun m ->
            let outcomes = Driver.outcomes m program in
            Format.printf "  %-8s %d outcome(s): %s@." (Machines.name m)
              (List.length outcomes)
              (String.concat " "
                 (List.map
                    (fun o ->
                      "(" ^ String.concat "," (List.map string_of_int o) ^ ")")
                    outcomes)))
          machines
  in
  Cmd.v
    (Cmd.info "outcomes"
       ~doc:
         "Enumerate every read-value outcome each machine can produce for a \
          litmus test's program skeleton.")
    Term.(const run $ source $ machines_arg)

let generate_cmd =
  let count =
    Arg.(value & opt int 10 & info [ "count" ] ~doc:"Tests to generate.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let procs =
    Arg.(
      value
      & opt (list int) [ 2; 2 ]
      & info [ "procs" ] ~docv:"N,M,..." ~doc:"Operations per processor.")
  in
  let nlocs = Arg.(value & opt int 2 & info [ "locs" ] ~doc:"Locations.") in
  let maxv =
    Arg.(value & opt int 1 & info [ "max-value" ] ~doc:"Largest written value.")
  in
  let labeled =
    Arg.(value & flag & info [ "labeled" ] ~doc:"Randomize labeled/ordinary attributes.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Write one .litmus file per test there.")
  in
  let run count seed procs nlocs maxv labeled models out =
    let models = resolve_models models in
    let rand = Random.State.make [| seed |] in
    let loc_names = [| "x"; "y"; "z"; "u"; "v"; "w" |] in
    if nlocs > Array.length loc_names then begin
      Format.eprintf "error: at most %d locations@." (Array.length loc_names);
      exit 2
    end;
    let random_event () =
      let loc = loc_names.(Random.State.int rand nlocs) in
      let labeled = labeled && Random.State.bool rand in
      if Random.State.bool rand then
        History.write ~labeled loc (1 + Random.State.int rand maxv)
      else History.read ~labeled loc (Random.State.int rand (maxv + 1))
    in
    (match out with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    for i = 1 to count do
      let rows = List.map (fun n -> List.init n (fun _ -> random_event ())) procs in
      let h = History.make rows in
      let expect =
        List.map
          (fun (m : Model.t) ->
            (m.Model.key, Verdict.status_of_bool (Model.check m h)))
          models
      in
      let name = Printf.sprintf "gen%03d" i in
      let test =
        {
          Test.name;
          doc = Printf.sprintf "generated (seed %d)" seed;
          history = h;
          expectations = expect;
        }
      in
      let text = Smem_litmus.Print.to_string test in
      match out with
      | None -> print_string (text ^ "\n")
      | Some dir ->
          let path = Filename.concat dir (name ^ ".litmus") in
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Format.printf "wrote %s@." path
    done
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate random litmus tests with verdicts computed by the \
          checkers (for corpus building and cross-tool fuzzing).")
    Term.(const run $ count $ seed $ procs $ nlocs $ maxv $ labeled $ models_arg $ out)

let fuzz_cmd =
  let module Gen = Smem_fuzz.Gen in
  let module Campaign = Smem_fuzz.Campaign in
  let module Oracle = Smem_fuzz.Oracle in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let count =
    Arg.(value & opt int 500 & info [ "count" ] ~doc:"Fuzz cases to run.")
  in
  let max_procs =
    Arg.(value & opt int 3 & info [ "max-procs" ] ~doc:"Largest processor count.")
  in
  let max_ops =
    Arg.(
      value & opt int 4
      & info [ "max-ops" ] ~doc:"Largest per-processor operation count.")
  in
  let nlocs = Arg.(value & opt int 3 & info [ "locs" ] ~doc:"Locations (max 6).") in
  let maxv =
    Arg.(value & opt int 2 & info [ "max-value" ] ~doc:"Largest written value.")
  in
  let labels =
    let mode_conv =
      Arg.enum [ ("no", `No); ("mixed", `Mixed); ("separated", `Separated) ]
    in
    Arg.(
      value & opt mode_conv `Separated
      & info [ "labels" ] ~docv:"MODE"
          ~doc:
            "Labeling discipline: no | mixed | separated.  $(b,separated) \
             dedicates the last location to synchronization (the \
             properly-labeled discipline of §5, which also enables the \
             conditional SC ⊆ RC_sc containment checks); $(b,mixed) draws \
             the attribute per access; $(b,no) generates ordinary accesses \
             only.")
  in
  let no_machines =
    Arg.(
      value & flag
      & info [ "no-machines" ]
          ~doc:"Skip machine replays (lattice oracle on random histories only).")
  in
  let lang_every =
    Arg.(
      value & opt int 3
      & info [ "lang-every" ] ~docv:"N"
          ~doc:
            "Run a random structured Smem_lang program on every machine each \
             N-th case (0 disables).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write each shrunk counterexample there as a .litmus file.")
  in
  let corpus_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "Replay a generated corpus ($(b,smem corpus generate)) alongside \
             the random cases: case $(i,i) additionally runs corpus test \
             $(i,i) mod $(i,n) through the lattice oracle.")
  in
  let engines =
    Arg.(
      value & flag
      & info [ "engines" ]
          ~doc:
            "Differential-test the constraint-propagation engine against \
             each model's own enumeration on every history checked \
             (including machine traces and corpus replays); a verdict \
             disagreement is a shrunk, certificate-carrying violation.")
  in
  let run seed count jobs max_procs max_ops nlocs maxv labels no_machines
      lang_every engines out corpus_file cert_format obs =
    setup_obs obs;
    let corpus =
      match corpus_file with
      | None -> []
      | Some path -> (
          match Smem_corpus.Corpus.load path with
          | Ok tests -> tests
          | Error e ->
              Format.eprintf "error: %s: %s@." path e;
              exit 2)
    in
    if obs.stats then
      at_exit (fun () ->
          Format.printf "@.%a@." Smem_core.Stats.pp_fuzz
            (Smem_core.Stats.fuzz_snapshot ()));
    let config =
      {
        Gen.default with
        Gen.seed;
        count;
        jobs = resolve_jobs jobs;
        max_procs;
        max_ops;
        nlocs;
        max_value = maxv;
        labels;
        machines = not no_machines;
        lang_every;
        engines;
        corpus;
      }
    in
    let outcome =
      try Campaign.run config
      with Invalid_argument msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    in
    Format.printf "%a@." Campaign.pp_summary outcome;
    (match out with
    | Some dir when outcome.Campaign.violations <> [] ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (v : Oracle.violation) ->
            let name = v.Oracle.test.Smem_litmus.Test.name in
            let path = Filename.concat dir (name ^ ".litmus") in
            let oc = open_out path in
            output_string oc (Smem_litmus.Print.to_string v.Oracle.test);
            close_out oc;
            Format.printf "wrote %s@." path;
            (* Each shrunk repro ships with its verdict certificate so the
               violation can be audited without re-running the fuzzer. *)
            let cpath = Filename.concat dir (name ^ ".cert") in
            let oc = open_out cpath in
            output_string oc
              (Cert.to_string ~format:cert_format v.Oracle.certificate);
            close_out oc;
            Format.printf "wrote %s@." cpath)
          outcome.Campaign.violations
    | _ -> ());
    if outcome.Campaign.violations <> [] then begin
      List.iter
        (fun v -> Format.printf "@.%a@." Oracle.pp_violation v)
        outcome.Campaign.violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: random histories and programs \
          cross-checked between every operational machine and its axiomatic \
          model (soundness) and across the Figure-5 containment lattice \
          (metamorphic); violations are shrunk to minimal replayable litmus \
          counterexamples.")
    Term.(
      const run $ seed $ count $ jobs_arg $ max_procs $ max_ops $ nlocs $ maxv
      $ labels $ no_machines $ lang_every $ engines $ out $ corpus_file
      $ cert_format_arg $ obs_term)

let cert_cmd =
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Certificate file(s) to verify.")
  in
  let max_ops =
    Arg.(
      value
      & opt int Kernel.default_max_search_ops
      & info [ "max-search-ops" ] ~docv:"N"
          ~doc:
            "Re-refute forbidden certificates on histories up to $(docv) \
             operations by independent enumeration (larger histories get \
             the frontier cross-check only).")
  in
  let run files max_ops obs =
    setup_obs obs;
    let failures = ref 0 in
    List.iter
      (fun file ->
        if not (Sys.file_exists file) then begin
          Format.eprintf "%s: no such file@." file;
          incr failures
        end
        else
          match Cert.parse (read_file file) with
          | Error msg ->
              Format.printf "%s: MALFORMED: %s@." file msg;
              incr failures
          | Ok c -> (
              match Kernel.verify ~max_search_ops:max_ops c with
              | Ok accepted ->
                  Format.printf "%s: %s — %s %s%s@." file
                    (match accepted with
                    | Kernel.Complete -> "OK"
                    | Kernel.Unverified_cap _ -> "OK [UNVERIFIED-CAP]")
                    (match c.Cert.verdict with
                    | Cert.Allowed -> "allowed"
                    | Cert.Forbidden -> "forbidden")
                    ("under " ^ c.Cert.model)
                    (match accepted with
                    | Kernel.Complete -> ""
                    | Kernel.Unverified_cap { nops; max_search_ops } ->
                        Printf.sprintf
                          " (frontier matched; refutation not re-enumerated: \
                           %d ops > --max-search-ops %d)"
                          nops max_search_ops)
              | Error reason ->
                  Format.printf "%s: REJECTED — %s@." file reason;
                  incr failures))
      files;
    if !failures > 0 then begin
      Format.eprintf "%d certificate(s) failed verification@." !failures;
      exit 1
    end
  in
  let verify =
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-validate verdict certificates with the independent checking \
            kernel (no search-engine code involved).")
      Term.(const run $ files $ max_ops $ obs_term)
  in
  Cmd.group
    (Cmd.info "cert" ~doc:"Audit verdict certificates offline.")
    [ verify ]

let serve_cmd =
  let module Daemon = Smem_serve.Daemon in
  let batch =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Answer up to $(docv) request lines per batch, fanning the \
             batch across worker domains.  The reader never waits for a \
             batch to fill: it blocks for the first line only and drains \
             what is already pending, so request/response clients get \
             partial batches answered immediately and pipelining clients \
             get cross-request parallelism.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"[HOST:]PORT"
          ~doc:
            "Listen for clients on a TCP socket (default host 127.0.0.1; \
             port 0 picks a free port, reported on stderr).  Repeatable \
             with $(b,--socket); with neither, the daemon speaks NDJSON \
             over stdin/stdout to a single client.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen for clients on a Unix-domain socket at $(docv) (an \
             existing file there is replaced; the socket is removed on \
             shutdown).")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Persist every decided verdict to an append-only log at \
             $(docv) (format smem-store/2) and replay it into the cache at \
             startup, so a restarted daemon answers known histories \
             without recomputing; records of a model whose definition \
             has changed since are skipped.  Requires a cache \
             ($(b,--cache) > 0).")
  in
  let queue =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bound the shared work queue at $(docv) pending requests \
             (daemon mode).  A full queue blocks the submitting \
             connection — backpressure reaches the client through TCP \
             instead of growing the heap.")
  in
  let parse_tcp spec =
    match String.rindex_opt spec ':' with
    | None -> (
        match int_of_string_opt spec with
        | Some port -> Ok (Daemon.Tcp ("127.0.0.1", port))
        | None -> Error (Printf.sprintf "--tcp: not a port number: %S" spec))
    | Some i -> (
        let host = String.sub spec 0 i in
        let port = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt port with
        | Some port -> Ok (Daemon.Tcp (host, port))
        | None -> Error (Printf.sprintf "--tcp: not a port number: %S" port))
  in
  let run batch jobs cache store queue tcp socket obs engine =
    setup_obs ~ppf:Format.err_formatter obs;
    setup_engine engine;
    let jobs = resolve_jobs jobs in
    let cache =
      if cache > 0 then Some (Smem_cache.Cache.create ~capacity:cache ())
      else None
    in
    (if store <> None && cache = None then begin
       Format.eprintf "error: --store requires a cache (--cache > 0)@.";
       exit 2
     end);
    let endpoints =
      (match tcp with
      | None -> []
      | Some spec -> (
          match parse_tcp spec with
          | Ok e -> [ e ]
          | Error msg ->
              Format.eprintf "error: %s@." msg;
              exit 2))
      @ match socket with None -> [] | Some path -> [ Daemon.Unix_socket path ]
    in
    match endpoints with
    | [] ->
        (* stdio mode: one client over stdin/stdout, machine-clean stdout *)
        Smem_serve.Server.run ~batch ~jobs ?cache ?store stdin stdout
    | endpoints ->
        (* Block SIGINT/SIGTERM before spawning anything: every thread
           and domain inherits the mask, so the signal is only ever
           consumed by the [Thread.wait_signal] below — a handler would
           not run while the main thread is blocked joining threads. *)
        let (_ : int list) =
          Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]
        in
        let d =
          try Daemon.create ~batch ~jobs ~queue ?cache ?store ~endpoints ()
          with Unix.Unix_error (err, fn, arg) ->
            Format.eprintf "error: cannot listen: %s (%s %s)@."
              (Unix.error_message err) fn arg;
            exit 2
        in
        (match Daemon.store d with
        | Some s ->
            Format.eprintf "smem serve: store %s (%d verdict(s) replayed)@."
              (Smem_serve.Store.path s)
              (Smem_serve.Store.replayed s)
        | None -> ());
        List.iter
          (fun ep ->
            Format.eprintf "smem serve: listening on %a@." Daemon.pp_endpoint
              ep)
          (Daemon.addresses d);
        Daemon.start d;
        let signal = Thread.wait_signal [ Sys.sigint; Sys.sigterm ] in
        Format.eprintf "smem serve: %s, draining@."
          (if signal = Sys.sigint then "SIGINT" else "SIGTERM");
        Daemon.stop d;
        Daemon.wait d;
        Format.eprintf "smem serve: drained, bye@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serving daemon: newline-delimited smem-api/2 JSON requests in \
          (smem-api/1 still accepted, answered in kind), \
          structured verdicts, certificates, classifications and \
          distinctions out (see docs/API.md).  With $(b,--tcp) and/or \
          $(b,--socket) it accepts any number of concurrent clients, \
          answering each in order over shared worker domains; without \
          either it serves one client over stdin/stdout.  Membership \
          verdicts are served from the canonicalizing cache when already \
          known, and survive restarts when $(b,--store) is given.")
    Term.(
      const run $ batch $ jobs_arg $ cache_arg $ store $ queue $ tcp $ socket
      $ obs_term $ engine_arg)

let sim_cmd =
  let module Sim = Smem_sim.Sim in
  let module Schedule = Smem_sim.Schedule in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~doc:"Simulation cases to run (cases 1..N).")
  in
  let case =
    Arg.(
      value
      & opt (some int) None
      & info [ "case" ] ~docv:"N"
          ~doc:
            "Run only case $(docv) — replay mode, usually combined with \
             $(b,--schedule) from a failure report.")
  in
  let clients =
    Arg.(
      value
      & opt int Sim.default.Sim.clients
      & info [ "clients" ] ~docv:"N"
          ~doc:"Simulated client connections per case.")
  in
  let requests =
    Arg.(
      value
      & opt int Sim.default.Sim.requests_per_client
      & info [ "requests" ] ~docv:"N"
          ~doc:"Scripted requests per connection.")
  in
  let batch =
    Arg.(
      value
      & opt int Sim.default.Sim.batch
      & info [ "batch" ] ~docv:"N" ~doc:"Serving batch bound under test.")
  in
  let steps =
    Arg.(
      value
      & opt int Sim.default.Sim.steps
      & info [ "steps" ] ~docv:"N"
          ~doc:"Schedule events drawn per generated case.")
  in
  let capacity =
    Arg.(
      value
      & opt int Sim.default.Sim.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:
            "Verdict cache capacity, in rows.  Deliberately small by \
             default so eviction storms actually evict live rows.")
  in
  let faults =
    Arg.(
      value & opt string "default"
      & info [ "faults" ] ~docv:"LIST"
          ~doc:
            "Comma-separated fault injections to enable, or $(b,default) \
             (every benign fault), $(b,all) (benign plus the deliberate \
             bug faults), $(b,none).  Known faults: worker-crash, \
             evict-storm, malformed-frame, truncated-frame, slow-reader, \
             oversized-batch, store-kill, bug-cache-corrupt.")
  in
  let no_store =
    Arg.(
      value & flag
      & info [ "no-store" ]
          ~doc:
            "Run without a persistent verdict store (store faults become \
             no-ops).")
  in
  let schedule =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"EVENTS"
          ~doc:
            "Execute exactly this schedule instead of generating one — \
             the token list printed with every failure (d<conn>:<bytes>, \
             s<conn>, x<conn>, crash, storm, kill, corrupt).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write every minimized failing schedule to $(docv), one \
             replay command per failure.")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Write the full event log of every case to $(docv).  Two runs \
             with the same seed and configuration produce byte-identical \
             files — CI diffs them as the determinism check.")
  in
  let run seed count case clients requests batch steps capacity faults no_store
      schedule out log_file jobs obs =
    setup_obs obs;
    let faults =
      match faults with
      | "default" -> Schedule.default_faults
      | "all" -> Schedule.all_faults
      | "none" -> []
      | s -> (
          match Schedule.faults_of_string s with
          | Ok fs -> fs
          | Error msg ->
              Format.eprintf "error: %s@." msg;
              exit 2)
    in
    let schedule =
      Option.map
        (fun s ->
          match Schedule.of_string s with
          | Ok e -> e
          | Error msg ->
              Format.eprintf "error: --schedule: %s@." msg;
              exit 2)
        schedule
    in
    let cfg =
      {
        Sim.clients;
        requests_per_client = requests;
        batch;
        cache_capacity = capacity;
        steps;
        faults;
        store = not no_store;
      }
    in
    let cases =
      match case with
      | Some n -> [ n ]
      | None -> List.init (max 0 count) (fun i -> i + 1)
    in
    let outcome = Sim.run ~jobs:(resolve_jobs jobs) ?schedule cfg ~seed ~cases in
    (match log_file with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        List.iter
          (fun (r : Sim.report) ->
            Printf.fprintf oc "=== case %d digest %s\n%s" r.Sim.case
              r.Sim.digest r.Sim.log)
          outcome.Sim.reports;
        close_out oc;
        Format.printf "wrote %s@." file);
    Format.printf
      "sim: seed %d, %d case(s), %d event(s), %d response(s), %d failure(s)@."
      seed outcome.Sim.cases outcome.Sim.events outcome.Sim.responses
      (List.length outcome.Sim.failures);
    (match out with
    | Some file when outcome.Sim.failures <> [] ->
        let oc = open_out file in
        List.iter
          (fun (f : Sim.failure) ->
            Printf.fprintf oc "# case %d: %s\n%s\n" f.Sim.case f.Sim.reason
              (Sim.replay_command cfg f))
          outcome.Sim.failures;
        close_out oc;
        Format.printf "wrote %s@." file
    | _ -> ());
    if outcome.Sim.failures <> [] then begin
      List.iter
        (fun (f : Sim.failure) ->
          Format.printf
            "@.case %d FAILED: %s@.  schedule (%d event(s), %d shrink \
             step(s)): %s@.  replay: %s@."
            f.Sim.case f.Sim.reason
            (List.length f.Sim.schedule)
            f.Sim.shrink_steps
            (Schedule.to_string f.Sim.schedule)
            (Sim.replay_command cfg f))
        outcome.Sim.failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Deterministic simulation of the serving stack: seeded schedules \
          drive the real server loop, cache and store over in-memory \
          channels, an inline scheduler and a virtual clock, injecting \
          worker crashes, eviction storms, malformed and truncated frames, \
          slow readers, oversized batches and mid-append store kills; \
          invariants are checked after every event and failing schedules \
          are shrunk to minimal replayable repros.")
    Term.(
      const run $ seed $ count $ case $ clients $ requests $ batch $ steps
      $ capacity $ faults $ no_store $ schedule $ out $ log_file $ jobs_arg
      $ obs_term)

let api_cmd =
  let models_opt =
    Arg.(
      value
      & opt_all string []
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:"Model key(s) to request (default: all).")
  in
  let corpus_requests =
    (* One Check request line per corpus test: the input half of the CI
       serve smoke test, and a convenient seed for manual sessions.
       With --corpus the tests come from a generated smem-corpus/1
       artifact and travel inline (the daemon has no registry of
       generated names). *)
    let corpus_file =
      Arg.(
        value
        & opt (some string) None
        & info [ "corpus" ] ~docv:"FILE"
            ~doc:
              "Read tests from a generated smem-corpus/1 artifact \
               ($(b,smem corpus generate)) instead of the built-in corpus.")
    in
    let run models corpus_file =
      match corpus_file with
      | None ->
          List.iteri
            (fun i (t : Test.t) ->
              print_string
                (Wire.request_line ~id:(i + 1)
                   (Request.Check { test = Request.Named t.Test.name; models })))
            Corpus.all
      | Some path -> (
          match Smem_corpus.Corpus.load path with
          | Error msg ->
              Format.eprintf "error: %s@." msg;
              exit 2
          | Ok tests ->
              List.iteri
                (fun i (t : Test.t) ->
                  print_string
                    (Wire.request_line ~id:(i + 1)
                       (Request.Check
                          {
                            test =
                              Request.Inline (Smem_litmus.Print.to_string t);
                            models;
                          })))
                tests)
    in
    Cmd.v
      (Cmd.info "corpus-requests"
         ~doc:
           "Emit one smem-api/2 Check request per corpus test as \
            newline-delimited JSON (pipe into $(b,smem serve)).")
      Term.(const run $ models_opt $ corpus_file)
  in
  Cmd.group
    (Cmd.info "api" ~doc:"Produce and inspect smem-api/2 wire traffic.")
    [ corpus_requests ]

let () =
  let info =
    Cmd.info "smem" ~version:"1.0.0"
      ~doc:"A characterization of scalable shared memories (Kohli, Neiger, Ahamad 1993)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            models_cmd;
            check_cmd;
            corpus_cmd;
            explain_cmd;
            lattice_cmd;
            distinguish_cmd;
            mutex_cmd;
            liveness_cmd;
            races_cmd;
            simulate_cmd;
            outcomes_cmd;
            custom_cmd;
            generate_cmd;
            fuzz_cmd;
            cert_cmd;
            serve_cmd;
            sim_cmd;
            api_cmd;
          ]))
