(* The serving benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--tests N] [--spans FILE] [--force-mismatch]

   One closed-loop client with one request in flight drives the
   in-process serving path (see Serving) with the seeded generated
   corpus.  A run is: corpus generation (harness side, untimed), set-up
   repeated at least [setup_reps] times, the untraced timed phase,
   output checking, and with [--trace 1] a traced replay of
   [traced_passes] more passes.
   The last line of stdout is one JSON object: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  Exit 0
   only when every response checked out. *)

module Model = Smem_core.Model
module Stats = Smem_core.Stats
module Registry = Smem_core.Registry
module Cache = Smem_cache.Cache
module Metrics = Smem_obs.Metrics
module Clock = Smem_obs.Clock

(* Set-up runs at least [setup_reps] times and for at least
   [setup_min_s] seconds in all, and its median is reported, so one
   disturbed set-up does not move setup_s (certify-solve's set-up takes
   0.6 s, so it gets more repetitions); the last repetition's server is
   the one timed. *)
let setup_reps = 3
let setup_min_s = 3.

(* Passes of the traced replay; layer times are means over them, as
   request times are in the untraced phase. *)
let traced_passes = 3

(* Renaming rounds outside the timed passes' range 0, 1, 2, ... *)
let warmup_round = -1
let traced_round = -2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let workload = ref "" and seed = ref 0 and seconds = ref 0 and trace = ref (-1)
let tests = ref 0 and spans = ref "" and force_mismatch = ref false

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME check-cold | warm-renamed | certify-solve" );
      ("--seed", Arg.Set_int seed, "N corpus seed");
      ("--seconds", Arg.Set_int seconds, "S request time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tests", Arg.Set_int tests, "N corpus size (default: the workload's own)");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
      ( "--force-mismatch",
        Arg.Set force_mismatch,
        " corrupt one reference verdict (the run must fail)" );
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let kind =
  match List.assoc_opt !workload Load.workloads with
  | Some k -> k
  | None ->
      die "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map fst Load.workloads))

let () =
  if !seconds < 1 then die "--seconds must be at least 1";
  if !tests < 0 then die "--tests must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, emitted only when at least ten samples (the
   load's requests) lie beyond it; otherwise the run fails instead of
   reporting a number the sample cannot support. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float n))) in
  if n - rank < 10 then
    die "p%g needs at least 10 samples beyond it, but the load has only %d requests"
      (q *. 100.) n;
  sorted.(rank - 1)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> die "no VmHWM line in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let () =
  Smem_solve.Solve.install ();
  Model.set_engine
    (match kind with
    | Load.Certify_solve -> Model.Solve
    | Load.Check_cold | Load.Warm_renamed -> Model.Enum)

(* Wall time of each phase of the run, for the stderr report. *)
let phases = ref [] and phase_t0 = ref (Clock.now ())

let phase name =
  phases := (name, float (Clock.elapsed_ns !phase_t0) /. 1e9) :: !phases;
  phase_t0 := Clock.now ()

let load =
  Load.make kind ~seed:!seed
    ~tests:(if !tests > 0 then !tests else Load.default_tests kind)

let originals = Load.original_lines kind load
let renamed round = Load.renamed_lines kind load ~seed:!seed ~round
let warmup_lines =
  if kind = Load.Warm_renamed then Some (renamed warmup_round) else None
let () = phase "load"

(* Service and cache creation, one untimed warm-up pass, and for
   warm-renamed the cache-priming pass that precedes it, at the
   reference speed (see Speed) like every other time the benchmark
   reports.  The heap is compacted first, outside the timing, so that
   the servers of earlier repetitions are gone and cannot raise
   peak_rss_mb. *)
let setup () =
  Gc.compact ();
  let speed = Speed.create () in
  let w = Speed.mark speed in
  let t0 = Clock.now () in
  let server = Serving.create () in
  let create_ns = Clock.elapsed_ns t0 in
  Speed.ran speed create_ns;
  let steps =
    List.concat_map
      (fun lines -> Array.to_list (snd (Serving.measured_pass server speed lines)))
      (originals :: Option.to_list warmup_lines)
  in
  let scale = Speed.scaler speed in
  let ns = List.fold_left (fun acc (w, ns) -> acc +. scale w ns) (scale w create_ns) steps in
  (server, ns /. 1e9)

let server, setup_s =
  let rec go times =
    let server, s = setup () in
    let times = s :: times in
    if List.length times >= setup_reps && List.fold_left ( +. ) 0. times >= setup_min_s
    then (server, median times)
    else go times
  in
  go []

let () = phase "set-up"

(* Pass [k]'s lines, and the state it starts from: check-cold empties
   the cache so every cell misses, warm-renamed re-spells every test. *)
let lines_for_pass ~round =
  match kind with
  | Load.Check_cold ->
      Cache.clear server.Serving.cache;
      originals
  | Load.Warm_renamed -> renamed round
  | Load.Certify_solve -> originals

let timed =
  Serving.run server ~seconds:!seconds ~before_pass:(fun k ->
      lines_for_pass ~round:k)
let rss_mb = peak_rss_mb ()
let () = phase "timed"
let requests = Array.length originals
let passes = List.length timed.Serving.times
let attempted = timed.Serving.attempted

(* Every pass sends the same requests (warm-renamed re-spells them, at
   the same cost), so a request's latency is its mean over the passes,
   at the reference speed: a cost that lands on it in only some passes,
   such as a major GC slice, is counted in its share.  Latency
   percentiles are taken over the load's requests at those latencies;
   throughput_rps is requests over the timed phase's (scaled) time. *)
let mean_ns =
  Array.init requests (fun i ->
      List.fold_left (fun m t -> m +. t.(i)) 0. timed.Serving.times /. float passes)

let step_ns = Array.fold_left ( +. ) 0. mean_ns /. float requests

let failed =
  let reference = Verify.reference kind load in
  if !force_mismatch then Verify.corrupt reference;
  let failed, reasons = Verify.failures kind load reference timed in
  List.iter (fun r -> prerr_endline ("perfbench: FAILED " ^ r)) reasons;
  phase "checking";
  failed

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let end_to_end () =
  let lat = Array.map (fun ns -> ns /. 1e6) mean_ns in
  Array.sort compare lat;
  [
    ("throughput_rps", "1/s", 1e9 /. step_ns);
    ("latency_p50_ms", "ms", percentile lat 0.50);
    ("latency_p99_ms", "ms", percentile lat 0.99);
    ("setup_s", "s", setup_s);
    ("peak_rss_mb", "MB", rss_mb);
  ]

(* A model key as a metric-name fragment: "pc-part(blocks=2)" becomes
   "pc-part_blocks_2". *)
let metric_key key =
  String.split_on_char '_'
    (String.map
       (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-') as c -> c | _ -> '_')
       key)
  |> List.filter (( <> ) "")
  |> String.concat "_"

let metric name = Option.value (Metrics.find name) ~default:0

let per_layer () =
  let counters = [ "cache.hits"; "cache.misses"; "cache.evictions" ] in
  let before = List.map (fun k -> (k, metric k)) counters in
  let stats0 = Stats.snapshot () in
  let r = Replay.create () in
  for k = 1 to traced_passes do
    Replay.pass r server.Serving.cache (lines_for_pass ~round:(traced_round - k))
  done;
  let st = Stats.diff (Stats.snapshot ()) stats0 in
  if !spans <> "" then Replay.write r !spans;
  let total = Replay.summarize r in
  let sent = float (requests * traced_passes) in
  let per_req x = float x /. sent in
  let cache k = float (metric k - List.assoc k before) in
  let us key = total key /. sent /. 1000. in
  let step_us = step_ns /. 1000. in
  let layers =
    [ "api.decode"; "litmus.parse"; "registry.resolve"; "canon.digest"; "cache.lookup";
      "check.enum"; "cert.certify"; "cert.kernel"; "cert.serialize"; "api.encode" ]
  in
  let layer_sum_us = List.fold_left (fun acc l -> acc +. us l) 0. layers in
  let certs = float r.Replay.certs in
  let share num = if certs = 0. then 0. else float num /. certs in
  [
    ("serve.self_us", "us", us "serve.request");
    ("api.decode_us", "us", us "api.decode");
    ("api.encode_us", "us", us "api.encode");
    ("api.bytes_in", "B", per_req r.Replay.bytes_in);
    ("api.bytes_out", "B", per_req r.Replay.bytes_out);
    ("litmus.parse_us", "us", us "litmus.parse");
    ("registry.resolve_us", "us", us "registry.resolve");
    ("canon.digest_us", "us", us "canon.digest");
    ("cache.lookup_us", "us", us "cache.lookup");
    ("cache.hits_per_req", "count/req", cache "cache.hits" /. sent);
    ("cache.misses_per_req", "count/req", cache "cache.misses" /. sent);
    ("cache.evictions", "count", cache "cache.evictions");
    ("check.enum_us", "us", us "check.enum");
  ]
  @ List.map
      (fun (m : Model.t) ->
        ( "check.enum." ^ metric_key m.Model.key ^ "_ms",
          "ms",
          total ("check.enum:" ^ m.Model.key) /. float traced_passes /. 1e6 ))
      Registry.all
  @ [
      ("search.rf_candidates", "count/req", per_req st.Stats.rf_candidates);
      ("search.co_candidates", "count/req", per_req st.Stats.co_candidates);
      ("search.pruned", "count/req", per_req st.Stats.pruned);
      ("search.toposorts", "count/req", per_req st.Stats.toposorts);
      ("solve.decisions", "count/req", per_req st.Stats.solve_decisions);
      ("solve.propagations", "count/req", per_req st.Stats.solve_propagations);
      ("solve.conflicts", "count/req", per_req st.Stats.solve_conflicts);
      ("solve.nogoods", "count/req", per_req st.Stats.solve_nogoods);
      ("solve.nogood_hits", "count/req", per_req st.Stats.solve_nogood_hits);
      ("solve.leaves", "count/req", per_req st.Stats.solve_leaves);
      ("cert.certify_us", "us", us "cert.certify");
      ("cert.kernel_us", "us", us "cert.kernel");
      ("cert.serialize_us", "us", us "cert.serialize");
      ("cert.bytes", "B", share r.Replay.cert_bytes);
      ("cert.refutation_share", "ratio", share r.Replay.refutations);
      ( "cert.kernel_unverified_cap",
        "count/pass",
        float r.Replay.unverified_cap /. float traced_passes );
      ("corpus.generate_s", "s", load.Load.generate_s);
      ("corpus.tests", "count", float load.Load.tests);
      ("corpus.ops_mean", "ops", load.Load.ops_mean);
      ( "gc.minor_words_per_req",
        "words/req",
        timed.Serving.minor_words /. float attempted );
      ( "gc.major_collections",
        "count/pass",
        float timed.Serving.major_collections /. float passes );
      ("trace.residual_pct", "%", 100. *. (step_us -. layer_sum_us) /. step_us);
      ("trace.overhead_pct", "%", 100. *. (us "" -. step_us) /. step_us);
      ("fail_ratio", "ratio", float failed /. float attempted);
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* Shortest decimal that reads back as the same float. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let () =
  let metrics = if !trace = 1 then per_layer () else end_to_end () in
  if !trace = 1 then phase "traced";
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then die "metric %s is not a number" name)
    metrics;
  Printf.eprintf
    "perfbench: %s seed=%d: %d requests in %d passes of %d, %.3f s of \
     request time as measured (%.1f/s); probe median %.0f ns (reference %.0f)\n"
    !workload !seed attempted passes requests
    (float timed.Serving.busy_ns /. 1e9)
    (float attempted /. (float timed.Serving.busy_ns /. 1e9))
    timed.Serving.probe_ns Speed.reference_ns;
  Printf.eprintf "  phase wall times (s): %s\n"
    (String.concat " "
       (List.rev_map (fun (n, t) -> Printf.sprintf "%s %.2f" n t) !phases));
  Printf.eprintf "  pass request times at the reference speed (s): %s\n"
    (String.concat " "
       (List.map
          (fun t -> Printf.sprintf "%.3f" (Array.fold_left ( +. ) 0. t /. 1e9))
          timed.Serving.times));
  List.iter
    (fun (n, u, v) -> Printf.eprintf "  %-40s %14s %s\n" n (number v) u)
    metrics;
  let correct = failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
          metrics));
  exit (if correct then 0 else 1)
