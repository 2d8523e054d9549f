module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Canon = Smem_core.Canon
module Cache = Smem_cache.Cache
module Corpus = Smem_litmus.Corpus
module Test = Smem_litmus.Test
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Wire = Smem_api.Wire
module Frames = Smem_serve.Frames
module Server = Smem_serve.Server
module Sched = Smem_serve.Sched
module Service = Smem_serve.Service
module Store = Smem_serve.Store
module Metrics = Smem_obs.Metrics
module Trace = Smem_obs.Trace
module Shrink = Smem_fuzz.Shrink

let m_cases = Metrics.counter "sim.cases"
let m_events = Metrics.counter "sim.events"
let m_steps = Metrics.counter "sim.steps"
let m_responses = Metrics.counter "sim.responses"
let m_failures = Metrics.counter "sim.failures"
let m_shrink_steps = Metrics.counter "sim.shrink_steps"
let fault_counter name = Metrics.counter ("sim.fault." ^ name)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  clients : int;
  requests_per_client : int;
  batch : int;
  cache_capacity : int;
  steps : int;
  faults : Schedule.fault list;
  store : bool;
}

let default =
  {
    clients = 3;
    requests_per_client = 5;
    batch = 4;
    cache_capacity = 64;
    steps = 80;
    faults = Schedule.default_faults;
    store = true;
  }

(* ------------------------------------------------------------------ *)
(* In-memory channel: the simulated wire under a connection            *)

(* A byte queue standing in for a socket.  [push] is the scheduled
   delivery of script bytes; the {!Frames.source} view never blocks —
   a read with nothing buffered on an open channel raises, because the
   harness only steps a connection it knows has a full line pending
   (or is closed), so such a read is a harness bug, not a schedule. *)
module Chan = struct
  type t = { buf : Buffer.t; mutable pos : int; mutable closed : bool }

  let create () = { buf = Buffer.create 256; pos = 0; closed = false }
  let push t s = Buffer.add_string t.buf s
  let close t = t.closed <- true
  let available t = Buffer.length t.buf - t.pos

  let source t : Frames.source =
    {
      Frames.read =
        (fun b off len ->
          let n = min len (available t) in
          if n > 0 then begin
            Buffer.blit t.buf t.pos b off n;
            t.pos <- t.pos + n;
            n
          end
          else if t.closed then 0
          else failwith "Sim.Chan: read on an idle open channel");
      readable = (fun () -> available t > 0 || t.closed);
    }
end

(* ------------------------------------------------------------------ *)
(* Scripts: what each client sends, and what it must get back          *)

type expect =
  | Good of { id : int; test : string; models : string list }
  | Bad_model of { id : int }
  | Junk

type line = { text : string; expect : expect; start : int; stop : int }
type script = { lines : line array; text : string }

let test_pool = [| "fig1"; "fig2"; "mp"; "lb"; "sb+rfi" |]
let model_pool = [| "sc"; "causal"; "pram"; "coh"; "pc" |]

let junk_pool =
  [|
    "{";
    "not json";
    "{\"schema\":\"smem-api/999\",\"op\":\"check\"}";
    "[1,2,3]";
  |]

let chomp s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let make_script entries =
  let b = Buffer.create 256 in
  let lines =
    List.map
      (fun (text, expect) ->
        let start = Buffer.length b in
        Buffer.add_string b text;
        Buffer.add_char b '\n';
        { text; expect; start; stop = Buffer.length b })
      entries
  in
  { lines = Array.of_list lines; text = Buffer.contents b }

let pick rng a = a.(Random.State.int rng (Array.length a))

let gen_script rng cfg c =
  let has_junk = List.mem Schedule.Malformed_frame cfg.faults in
  let entries = ref [] in
  for k = 1 to max 1 cfg.requests_per_client do
    if has_junk && Random.State.int rng 5 = 0 then
      entries := (pick rng junk_pool, Junk) :: !entries;
    let id = ((c + 1) * 1000) + k in
    let entry =
      if Random.State.int rng 12 = 0 then
        let test = pick rng test_pool in
        let text =
          chomp
            (Wire.request_line ~id
               (Request.Check
                  { test = Request.Named test; models = [ "no-such-model" ] }))
        in
        (text, Bad_model { id })
      else begin
        let test = pick rng test_pool in
        let models =
          List.init (1 + Random.State.int rng 2) (fun _ -> pick rng model_pool)
        in
        let text =
          chomp
            (Wire.request_line ~id
               (Request.Check { test = Request.Named test; models }))
        in
        (text, Good { id; test; models })
      end
    in
    entries := entry :: !entries
  done;
  make_script (List.rev !entries)

(* ------------------------------------------------------------------ *)
(* The harness                                                         *)

type conn_state = {
  cnum : int;
  chan : Chan.t;
  sconn : Server.conn;
  out : Buffer.t;
  mutable out_pos : int;
  script : script;
  mutable cursor : int;  (* script bytes delivered so far *)
  mutable answered : int;  (* responses verified so far *)
  mutable closed : bool;
  mutable drained : bool;  (* the serving loop saw end of input *)
}

type harness = {
  cfg : config;
  logb : Buffer.t;
  mutable failure : string option;
  reference : (string * string, bool) Hashtbl.t;  (* (test, model) *)
  digests : (string, string) Hashtbl.t;  (* test -> digest *)
  tests_by_digest : (string, string) Hashtbl.t;
  conns : conn_state array;
  mutable cache : Cache.t;
  mutable store : Store.t option;
  mutable solo : Service.t;
  mutable fan : Service.t;
  sched : Sched.t;
  clock : unit -> int;
  crash_armed : bool ref;
  crash_fired : bool ref;
  rng : Random.State.t;  (* runtime draws: store tear sizes *)
  mutable storms : int;
  mutable events_run : int;
  mutable responses : int;
}

let logf h fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string h.logb s;
      Buffer.add_char h.logb '\n')
    fmt

let failf h fmt =
  Printf.ksprintf
    (fun s ->
      if h.failure = None then h.failure <- Some s;
      Buffer.add_string h.logb ("FAIL " ^ s ^ "\n"))
    fmt

(* Fresh-recompute reference: what every verdict must agree with. *)
let ref_verdict h test model =
  match Hashtbl.find_opt h.reference (test, model) with
  | Some v -> v
  | None ->
      let t =
        match Corpus.find test with
        | Some t -> t
        | None -> invalid_arg ("Sim: unknown corpus test " ^ test)
      in
      let m =
        match Registry.find model with
        | Some m -> m
        | None -> invalid_arg ("Sim: unknown model " ^ model)
      in
      let v = Model.check m t.Test.history in
      Hashtbl.add h.reference (test, model) v;
      v

let digest_of h test =
  match Hashtbl.find_opt h.digests test with
  | Some d -> d
  | None ->
      let t =
        match Corpus.find test with
        | Some t -> t
        | None -> invalid_arg ("Sim: unknown corpus test " ^ test)
      in
      let d = Canon.digest t.Test.history in
      Hashtbl.add h.digests test d;
      Hashtbl.replace h.tests_by_digest d test;
      d

let delivered_lines cs =
  let n = Array.length cs.script.lines in
  let rec go i =
    if i < n && cs.script.lines.(i).stop <= cs.cursor then go (i + 1) else i
  in
  go 0

(* Expected responses so far: every fully delivered line, plus the
   unterminated tail once the channel has closed on it. *)
let expected_responses cs =
  let full = delivered_lines cs in
  let tail =
    cs.closed
    && full < Array.length cs.script.lines
    && cs.cursor > cs.script.lines.(full).start
  in
  full + if tail then 1 else 0

(* What must the [k]-th response to this connection look like? *)
let expected_at cs k =
  let n = Array.length cs.script.lines in
  if k >= n then None
  else
    let ln = cs.script.lines.(k) in
    if cs.cursor >= ln.stop then Some ln.expect
    else if cs.closed && cs.cursor > ln.start then
      (* tail line: delivered without its newline.  The full content
         parses as the scripted request; any proper prefix is junk. *)
      if cs.cursor - ln.start = String.length ln.text then Some ln.expect
      else Some Junk
    else None

let verify_response h cs ~crashed k raw =
  let arrival = k + 1 in
  match Wire.parse_response_line raw with
  | Error e ->
      failf h "conn %d response %d: unparseable (%s): %s" cs.cnum arrival e
        (String.trim raw)
  | Ok r -> (
      match expected_at cs k with
      | None ->
          failf h "conn %d response %d: answers an undelivered line" cs.cnum
            arrival
      | Some expect -> (
          let expected_id =
            match expect with
            | Good { id; _ } | Bad_model { id } -> id
            | Junk -> arrival
          in
          if r.Response.id <> Some expected_id then
            failf h "conn %d response %d: id %s, want %d" cs.cnum arrival
              (match r.Response.id with
              | Some i -> string_of_int i
              | None -> "none")
              expected_id
          else
            match (r.Response.payload, expect) with
            | Response.Error { code = Response.Internal; _ }, _ when crashed ->
                ()  (* a crashed batch answers internal errors, in position *)
            | Response.Error { code = Response.Bad_request; _ }, Junk -> ()
            | _, Junk ->
                failf h "conn %d response %d: want bad-request for junk line"
                  cs.cnum arrival
            | Response.Error { code = Response.Unknown_model; _ }, Bad_model _
              ->
                ()
            | _, Bad_model _ ->
                failf h "conn %d response %d: want unknown-model error" cs.cnum
                  arrival
            | Response.Verdicts vs, Good { test; models; _ } ->
                if List.length vs <> List.length models then
                  failf h "conn %d response %d: %d verdicts for %d models"
                    cs.cnum arrival (List.length vs) (List.length models)
                else
                  List.iter2
                    (fun v mk ->
                      let want = ref_verdict h test mk in
                      if v.Verdict.subject <> test then
                        failf h "conn %d response %d: subject %s, want %s"
                          cs.cnum arrival v.Verdict.subject test
                      else if v.Verdict.authority <> mk then
                        failf h "conn %d response %d: authority %s, want %s"
                          cs.cnum arrival v.Verdict.authority mk
                      else
                        match v.Verdict.status with
                        | Some s when Verdict.bool_of_status s = want -> ()
                        | _ ->
                            failf h
                              "conn %d response %d: verdict %s/%s diverged \
                               from fresh recompute"
                              cs.cnum arrival test mk)
                    vs models
            | _, Good _ ->
                failf h "conn %d response %d: want verdicts" cs.cnum arrival))

(* Pull complete response lines out of the sink and verify each in
   position.  Raw lines go to the event log: the per-case digest is a
   hash over exact response bytes, so any nondeterminism — a wall-time
   elapsed_ns, a reordered batch — shows up as a digest mismatch. *)
let scan_responses h cs ~crashed =
  let s = Buffer.contents cs.out in
  let rec loop pos =
    match String.index_from_opt s pos '\n' with
    | Some nl ->
        let raw = String.sub s pos (nl - pos) in
        verify_response h cs ~crashed cs.answered raw;
        cs.answered <- cs.answered + 1;
        h.responses <- h.responses + 1;
        Metrics.incr m_responses;
        logf h "  < conn %d #%d %s" cs.cnum cs.answered raw;
        loop (nl + 1)
    | None -> cs.out_pos <- pos
  in
  loop cs.out_pos

(* A step is legal only when the serving loop cannot block: a full
   line is pending somewhere between the channel and the frame
   reader, or the channel has closed. *)
let steppable cs =
  (not cs.drained) && (cs.closed || delivered_lines cs > cs.answered)

let do_step h cs =
  if cs.drained then logf h "step conn %d: already drained" cs.cnum
  else if not (steppable cs) then logf h "step conn %d: idle, skipped" cs.cnum
  else begin
    h.crash_fired := false;
    Metrics.incr m_steps;
    let more =
      Trace.span ~cat:"sim" "sim.step" (fun () ->
          Server.step ~batch:h.cfg.batch ~sched:h.sched ~solo:h.solo ~fan:h.fan
            cs.sconn)
    in
    if not more then cs.drained <- true;
    logf h "step conn %d%s%s" cs.cnum
      (if !(h.crash_fired) then " [worker crashed]" else "")
      (if more then "" else " [end of input]");
    scan_responses h cs ~crashed:!(h.crash_fired)
  end

let do_deliver h cs bytes =
  if cs.closed then logf h "deliver conn %d: closed, skipped" cs.cnum
  else begin
    let total = String.length cs.script.text in
    let n = min (max 0 bytes) (total - cs.cursor) in
    if n <= 0 then logf h "deliver conn %d: script exhausted" cs.cnum
    else begin
      Chan.push cs.chan (String.sub cs.script.text cs.cursor n);
      cs.cursor <- cs.cursor + n;
      logf h "deliver conn %d: +%d bytes (%d/%d)" cs.cnum n cs.cursor total
    end
  end

let do_close h cs =
  if cs.closed then logf h "close conn %d: already closed" cs.cnum
  else begin
    Chan.close cs.chan;
    cs.closed <- true;
    let full = delivered_lines cs in
    let mid_line =
      full < Array.length cs.script.lines
      && cs.cursor > cs.script.lines.(full).start
    in
    logf h "close conn %d (%d/%d bytes%s)" cs.cnum cs.cursor
      (String.length cs.script.text)
      (if mid_line then ", mid-line" else "")
  end

let do_crash h =
  h.crash_armed := true;
  Metrics.incr (fault_counter "worker-crash");
  logf h "fault worker-crash: armed for the next fanned batch"

let do_storm h =
  h.storms <- h.storms + 1;
  let n = 2 * h.cfg.cache_capacity in
  for i = 1 to n do
    (* notify:false — junk must not leak into the persistent store *)
    Cache.add ~notify:false h.cache
      ~digest:(Printf.sprintf "storm-%d-%d" h.storms i)
      ~model:"sc" true
  done;
  Metrics.incr (fault_counter "evict-storm");
  logf h "fault evict-storm: %d junk inserts" n

(* The deliberate bug (Bug_cache_corrupt): flip every scripted cached
   verdict in place.  The next check that hits one of these keys
   returns the flipped answer, and the cached-vs-recompute invariant
   must catch it — this is how the harness proves it detects real
   cache corruption. *)
let do_corrupt h =
  let n = ref 0 in
  Array.iter
    (fun cs ->
      Array.iter
        (fun ln ->
          match ln.expect with
          | Good { test; models; _ } ->
              List.iter
                (fun mk ->
                  let digest = digest_of h test in
                  let want = ref_verdict h test mk in
                  Cache.add ~notify:false h.cache ~digest ~model:mk (not want);
                  incr n)
                models
          | Bad_model _ | Junk -> ())
        cs.script.lines)
    h.conns;
  Metrics.incr (fault_counter "bug-cache-corrupt");
  logf h "fault bug-cache-corrupt: flipped %d cached verdicts" !n

let parse_store_content content =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           (* smem-store/2: digest, model, fingerprint, verdict *)
           match String.split_on_char ' ' line with
           | [ d; m; fp; "1" ] when d <> "" && m <> "" && fp <> "" ->
               Some (d, m, true)
           | [ d; m; fp; "0" ] when d <> "" && m <> "" && fp <> "" ->
               Some (d, m, false)
           | _ -> None)

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let check_store_records h records =
  List.iter
    (fun (digest, model, v) ->
      match Hashtbl.find_opt h.tests_by_digest digest with
      | None ->
          failf h "store holds a record for an unknown digest %s" digest
      | Some test ->
          if ref_verdict h test model <> v then
            failf h "store record %s/%s diverged from fresh recompute" test
              model)
    records

(* Kill the store mid-append: close it, tear a random number of bytes
   off its final record, replay into a fresh cache, and demand the
   replay reproduce the pre-kill verdict set minus at most the torn
   record. *)
let do_kill h =
  match h.store with
  | None -> logf h "fault store-kill: no store attached, skipped"
  | Some s ->
      let path = Store.path s in
      Store.close s;
      let content = read_file path in
      let before = parse_store_content content in
      let torn =
        if before = [] then 0
        else begin
          let len = String.length content in
          let body =
            if len > 0 && content.[len - 1] = '\n' then
              String.sub content 0 (len - 1)
            else content
          in
          let last_start =
            match String.rindex_opt body '\n' with
            | Some i -> i + 1
            | None -> 0
          in
          let last_len = String.length body - last_start in
          let cut = 1 + Random.State.int h.rng (last_len + 1) in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub content 0 (len - cut)));
          cut
        end
      in
      let after = parse_store_content (read_file path) in
      let cache = Cache.create ~capacity:h.cfg.cache_capacity () in
      let s2 = Store.attach ~path cache in
      let nb = List.length before and na = List.length after in
      if Store.replayed s2 <> na then
        failf h "store replay recovered %d records, the log holds %d"
          (Store.replayed s2) na;
      if na > nb || nb - na > 1 then
        failf h "torn tail lost %d records, at most 1 allowed" (nb - na);
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      if not (is_prefix after before) then
        failf h "store replay diverged from the pre-kill log";
      check_store_records h after;
      h.cache <- cache;
      h.store <- Some s2;
      h.solo <- Service.create ~cache ~jobs:1 ~clock:h.clock ();
      h.fan <- Service.create ~cache ~jobs:1 ~clock:h.clock ();
      Metrics.incr (fault_counter "store-kill");
      logf h "fault store-kill: tore %d byte(s), records %d -> %d, replayed %d"
        torn nb na (Store.replayed s2)

let exec_event h ev =
  h.events_run <- h.events_run + 1;
  Metrics.incr m_events;
  let conn_of c = h.conns.(c mod Array.length h.conns) in
  match ev with
  | Schedule.Deliver { conn; bytes } -> do_deliver h (conn_of conn) bytes
  | Schedule.Step c -> do_step h (conn_of c)
  | Schedule.Close c -> do_close h (conn_of c)
  | Schedule.Crash_worker -> do_crash h
  | Schedule.Evict -> do_storm h
  | Schedule.Kill_store -> do_kill h
  | Schedule.Corrupt_cache -> do_corrupt h

(* Epilogue, outside the schedule: close every channel and drain every
   connection, then audit completeness and the store.  Running this
   unconditionally means schedule shrinking cannot cheat an invariant
   away by dropping the steps that would have exposed it. *)
let finish h =
  Array.iter
    (fun cs ->
      if not cs.closed then begin
        Chan.close cs.chan;
        cs.closed <- true
      end)
    h.conns;
  let guard = ref 0 in
  while
    Array.exists (fun cs -> not cs.drained) h.conns
    && h.failure = None && !guard < 10_000
  do
    incr guard;
    Array.iter
      (fun cs -> if (not cs.drained) && h.failure = None then do_step h cs)
      h.conns
  done;
  if !guard >= 10_000 then failf h "drain did not converge";
  if h.failure = None then
    Array.iter
      (fun cs ->
        let want = expected_responses cs in
        if cs.answered <> want then
          failf h "conn %d: %d responses for %d delivered lines" cs.cnum
            cs.answered want;
        if cs.out_pos <> Buffer.length cs.out then
          failf h "conn %d: torn response bytes left in the sink" cs.cnum)
      h.conns;
  match h.store with
  | None -> ()
  | Some s ->
      Store.close s;
      check_store_records h (parse_store_content (read_file (Store.path s)))

(* ------------------------------------------------------------------ *)
(* One case                                                            *)

type raw_outcome = {
  failed : string option;
  log : string;
  events : int;
  responses : int;
}

let run_raw cfg ~seed ~case events =
  let cfg =
    {
      cfg with
      clients = max 1 cfg.clients;
      batch = max 1 cfg.batch;
      cache_capacity = max 8 cfg.cache_capacity;
    }
  in
  let script_rng = Random.State.make [| seed; case; 1 |] in
  let scripts = Array.init cfg.clients (gen_script script_rng cfg) in
  let store_path =
    if cfg.store then Some (Filename.temp_file "smem-sim" ".store") else None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        store_path)
    (fun () ->
      let vtime = ref 0 in
      let clock () =
        vtime := !vtime + 1000;
        !vtime
      in
      let cache = Cache.create ~capacity:cfg.cache_capacity () in
      let store = Option.map (fun path -> Store.attach ~path cache) store_path in
      let crash_armed = ref false and crash_fired = ref false in
      let order_rng = Random.State.make [| seed; case; 4 |] in
      let order ~batch:_ ~size =
        let a = Array.init size Fun.id in
        for i = size - 1 downto 1 do
          let j = Random.State.int order_rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let cur_batch = ref (-1) and exec_pos = ref 0 in
      let on_task ~batch ~index:_ =
        if batch <> !cur_batch then begin
          cur_batch := batch;
          exec_pos := 0
        end;
        incr exec_pos;
        (* fire on the second task executed: mid-batch, after some
           work has already completed *)
        if !crash_armed && !exec_pos = 2 then begin
          crash_armed := false;
          crash_fired := true;
          raise (Sched.Worker_crashed "simulated worker crash")
        end
      in
      let conns =
        Array.init cfg.clients (fun c ->
            let chan = Chan.create () in
            let out = Buffer.create 512 in
            let sink =
              {
                Server.write = (fun s -> Buffer.add_string out s);
                flush = (fun () -> ());
              }
            in
            {
              cnum = c;
              chan;
              sconn = Server.conn (Frames.of_source (Chan.source chan)) sink;
              out;
              out_pos = 0;
              script = scripts.(c);
              cursor = 0;
              answered = 0;
              closed = false;
              drained = false;
            })
      in
      let h =
        {
          cfg;
          logb = Buffer.create 4096;
          failure = None;
          reference = Hashtbl.create 64;
          digests = Hashtbl.create 16;
          tests_by_digest = Hashtbl.create 16;
          conns;
          cache;
          store;
          solo = Service.create ~cache ~jobs:1 ~clock ();
          fan = Service.create ~cache ~jobs:1 ~clock ();
          sched = Sched.inline ~order ~on_task ();
          clock;
          crash_armed;
          crash_fired;
          rng = Random.State.make [| seed; case; 3 |];
          storms = 0;
          events_run = 0;
          responses = 0;
        }
      in
      (* Pre-resolve every scripted test's canonical digest so store
         records can always be traced back to the test that produced
         them. *)
      Array.iter
        (fun s ->
          Array.iter
            (fun ln ->
              match ln.expect with
              | Good { test; _ } -> ignore (digest_of h test)
              | Bad_model _ | Junk -> ())
            s.lines)
        scripts;
      (try
         List.iter (fun ev -> if h.failure = None then exec_event h ev) events;
         finish h
       with e ->
         (* invariant zero: the serving stack never raises *)
         failf h "service raised: %s" (Printexc.to_string e);
         Option.iter Store.close h.store);
      {
        failed = h.failure;
        log = Buffer.contents h.logb;
        events = h.events_run;
        responses = h.responses;
      })

(* ------------------------------------------------------------------ *)
(* Campaign: many cases, shrinking on failure                          *)

type failure = {
  case : int;
  seed : int;
  reason : string;
  schedule : Schedule.event list;  (* minimized *)
  shrink_steps : int;
}

type report = {
  case : int;
  events : int;
  responses : int;
  digest : string;  (* hash of the full event log: determinism witness *)
  log : string;
  failure : failure option;
}

type outcome = {
  seed : int;
  cases : int;
  events : int;
  responses : int;
  failures : failure list;
  reports : report list;
}

let log_digest log = Digest.to_hex (Digest.string log)

let generate_schedule cfg ~seed ~case =
  Schedule.generate
    (Random.State.make [| seed; case; 2 |])
    ~clients:cfg.clients ~steps:cfg.steps ~faults:cfg.faults

let run_case ?schedule cfg ~seed ~case =
  let events =
    match schedule with
    | Some e -> e
    | None -> generate_schedule cfg ~seed ~case
  in
  Metrics.incr m_cases;
  let r = run_raw cfg ~seed ~case events in
  match r.failed with
  | None ->
      {
        case;
        events = r.events;
        responses = r.responses;
        digest = log_digest r.log;
        log = r.log;
        failure = None;
      }
  | Some reason ->
      Metrics.incr m_failures;
      (* minimize: any failure counts, so the shrunk schedule may
         expose a simpler symptom of the same bug *)
      let keep evs = (run_raw cfg ~seed ~case evs).failed <> None in
      let shrunk, shrink_steps = Shrink.list ~keep events in
      Metrics.add m_shrink_steps shrink_steps;
      let final = run_raw cfg ~seed ~case shrunk in
      let reason = Option.value final.failed ~default:reason in
      {
        case;
        events = final.events;
        responses = final.responses;
        digest = log_digest final.log;
        log = final.log;
        failure = Some { case; seed; reason; schedule = shrunk; shrink_steps };
      }

let run ?(jobs = 1) ?schedule cfg ~seed ~cases =
  let f case = run_case ?schedule cfg ~seed ~case in
  let reports =
    if jobs > 1 then Smem_parallel.Pool.map ~jobs f cases
    else List.map f cases
  in
  {
    seed;
    cases = List.length reports;
    events = List.fold_left (fun n (r : report) -> n + r.events) 0 reports;
    responses =
      List.fold_left (fun n (r : report) -> n + r.responses) 0 reports;
    failures = List.filter_map (fun (r : report) -> r.failure) reports;
    reports;
  }

let replay_command cfg (f : failure) =
  Printf.sprintf
    "smem sim --seed %d --case %d --clients %d --requests %d --batch %d \
     --steps %d --faults %s --schedule '%s'"
    f.seed f.case cfg.clients cfg.requests_per_client cfg.batch cfg.steps
    (String.concat "," (List.map Schedule.fault_name cfg.faults))
    (Schedule.to_string f.schedule)
