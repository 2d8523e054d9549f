(* Tests of the observability layer: the monotonic clock, the metrics
   registry (including aggregation from pool workers on other domains),
   span recording and its Chrome trace-event JSON sink (parsed back via
   Smem_obs.Json), and the pool's exception-propagation contract. *)

module Clock = Smem_obs.Clock
module Metrics = Smem_obs.Metrics
module Trace = Smem_obs.Trace
module Json = Smem_obs.Json
module Pool = Smem_parallel.Pool

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* Enough work for a span to outlast the 1 us trace-format tick. *)
let spin () =
  let acc = ref 0 in
  for i = 1 to 200_000 do
    acc := !acc + Sys.opaque_identity i
  done;
  ignore (Sys.opaque_identity !acc)

(* ---------------- clock ---------------- *)

let clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %d -> %d" !prev t;
    prev := t
  done

let clock_measures_work () =
  let t0 = Clock.now () in
  spin ();
  let dt = Clock.elapsed_ns t0 in
  check bool "positive" true (dt > 0);
  (* A 200k-iteration spin finishing in under 100ns would mean the
     clock is not actually ticking. *)
  check bool "plausible magnitude" true (dt > 100)

(* ---------------- metrics registry ---------------- *)

let metrics_counter_and_gauge () =
  let c = Metrics.counter "test.obs.counter" in
  let base = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 41;
  check int "counter" (base + 42) (Metrics.value c);
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set g 7;
  Metrics.set_max g 3;
  check int "set_max keeps higher" 7 (Metrics.read g);
  Metrics.set_max g 11;
  check int "set_max raises" 11 (Metrics.read g);
  check (Alcotest.option int) "find" (Some 11) (Metrics.find "test.obs.gauge");
  check (Alcotest.option int) "find missing" None (Metrics.find "test.obs.absent")

let metrics_registration_idempotent () =
  let a = Metrics.counter "test.obs.same" in
  let b = Metrics.counter "test.obs.same" in
  let base = Metrics.value a in
  Metrics.incr a;
  Metrics.incr b;
  check int "one cell behind both handles" (base + 2) (Metrics.value a)

let metrics_snapshot_sorted () =
  ignore (Metrics.counter "test.obs.zz");
  ignore (Metrics.counter "test.obs.aa");
  let names = List.map fst (Metrics.snapshot ()) in
  check (Alcotest.list Alcotest.string) "sorted" (List.sort compare names) names

let metrics_aggregate_across_domains () =
  (* The registry's whole point: workers on other domains bump the same
     cell and nothing is lost.  100 tasks x (1 incr + add 2) = 300. *)
  let c = Metrics.counter "test.obs.pool_agg" in
  let base = Metrics.value c in
  let results =
    Pool.map ~jobs:4
      (fun x ->
        Metrics.incr c;
        Metrics.add c 2;
        x)
      (List.init 100 Fun.id)
  in
  check int "all increments landed" (base + 300) (Metrics.value c);
  check (Alcotest.list Alcotest.int) "results intact" (List.init 100 Fun.id)
    results

let metrics_reset_keeps_cells () =
  let c = Metrics.counter "test.obs.reset_me" in
  Metrics.add c 5;
  Metrics.reset ();
  check int "zeroed" 0 (Metrics.value c);
  Metrics.incr c;
  check int "handle still live" 1 (Metrics.value c)

(* ---------------- pool exception contract ---------------- *)

exception Boom of int

let pool_propagates_failure () =
  let saw = Atomic.make 0 in
  let run () =
    Pool.map ~jobs:4
      (fun x ->
        Atomic.incr saw;
        if x = 5 then raise (Boom x);
        x)
      (List.init 32 Fun.id)
  in
  (match run () with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 5 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  (* Documented drain semantics: a failure does not cancel the batch,
     every task still runs before the join re-raises. *)
  check int "all tasks ran" 32 (Atomic.get saw)

let pool_serial_propagates_failure () =
  match Pool.map ~jobs:1 (fun x -> if x = 2 then raise (Boom x) else x) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 2 -> ()

(* ---------------- trace sink ---------------- *)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s in %s" name (Json.to_string j)

let int_field name j =
  match member name j with
  | Json.Int n -> n
  | j -> Alcotest.failf "field %s not an int: %s" name (Json.to_string j)

let str_field name j =
  match member name j with
  | Json.Str s -> s
  | j -> Alcotest.failf "field %s not a string: %s" name (Json.to_string j)

let record_trace () =
  let file = Filename.temp_file "smem_obs_test" ".json" in
  Trace.start ~file ();
  check bool "armed" true (Trace.active ());
  Trace.span "outer" (fun () ->
      spin ();
      Trace.span ~cat:"t" ~args:[ ("k", Json.Int 7) ] "inner" (fun () -> spin ());
      Trace.instant "marker";
      spin ());
  (try Trace.span "raises" (fun () -> spin (); raise Exit) with Exit -> ());
  Trace.stop ();
  check bool "disarmed" false (Trace.active ());
  let contents = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  match Json.of_string contents with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok doc -> doc

let trace_roundtrip () =
  let doc = record_trace () in
  let events =
    match member "traceEvents" doc with
    | Json.Arr evs -> evs
    | j -> Alcotest.failf "traceEvents not an array: %s" (Json.to_string j)
  in
  check bool "display unit" true
    (match Json.member "displayTimeUnit" doc with Some (Json.Str _) -> true | _ -> false);
  (* Every event is well-formed: a name, a phase, integer microsecond
     timestamps, and the recording domain as tid. *)
  List.iter
    (fun e ->
      ignore (str_field "name" e);
      ignore (int_field "ts" e);
      ignore (int_field "tid" e);
      ignore (int_field "pid" e);
      match str_field "ph" e with
      | "X" -> ignore (int_field "dur" e)
      | "i" -> ()
      | ph -> Alcotest.failf "unexpected phase %s" ph)
    events;
  (* stop() sorts the buffer: timestamps are non-decreasing. *)
  ignore
    (List.fold_left
       (fun prev e ->
         let ts = int_field "ts" e in
         check bool "sorted by ts" true (ts >= prev);
         ts)
       min_int events);
  let find name =
    match List.find_opt (fun e -> str_field "name" e = name) events with
    | Some e -> e
    | None -> Alcotest.failf "no event named %s" name
  in
  let outer = find "outer" and inner = find "inner" in
  let start e = int_field "ts" e
  and stop e = int_field "ts" e + int_field "dur" e in
  check bool "inner starts after outer" true (start inner >= start outer);
  (* +1 absorbs the floor-to-microsecond rounding of ts and dur. *)
  check bool "inner ends within outer" true (stop inner <= stop outer + 1);
  (match member "args" inner with
  | Json.Obj fields ->
      check bool "span args survive" true (List.mem_assoc "k" fields);
      check bool "exact ns duration recorded" true
        (List.mem_assoc "dur_ns" fields)
  | j -> Alcotest.failf "inner args: %s" (Json.to_string j));
  check string "instant is a point marker" "i" (str_field "ph" (find "marker"));
  (* The span body raised — the event must still be there. *)
  ignore (find "raises")

let trace_disarmed_is_free () =
  check bool "inactive" false (Trace.active ());
  (* No sink: span must still run the body and return its value. *)
  check int "passthrough" 42 (Trace.span "ghost" (fun () -> 42));
  Trace.instant "ghost";
  (* stop with nothing armed is a no-op. *)
  Trace.stop ()

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ tc "monotonic" clock_monotonic; tc "measures work" clock_measures_work ]
      );
      ( "metrics",
        [
          tc "counter and gauge" metrics_counter_and_gauge;
          tc "registration idempotent" metrics_registration_idempotent;
          tc "snapshot sorted" metrics_snapshot_sorted;
          tc "aggregates across domains" metrics_aggregate_across_domains;
          tc "reset keeps cells" metrics_reset_keeps_cells;
        ] );
      ( "pool",
        [
          tc "propagates failure after drain" pool_propagates_failure;
          tc "serial path propagates failure" pool_serial_propagates_failure;
        ] );
      ( "trace",
        [
          tc "chrome trace roundtrip" trace_roundtrip;
          tc "disarmed is free" trace_disarmed_is_free;
        ] );
    ]
