module Wire = Smem_api.Wire
module Response = Smem_api.Response
module Metrics = Smem_obs.Metrics

let m_requests = Metrics.counter "serve.requests"
let m_batches = Metrics.counter "serve.batches"
let m_partial_batches = Metrics.counter "serve.partial_batches"
let m_parse_errors = Metrics.counter "serve.parse_errors"
let m_task_failures = Metrics.counter "serve.task_failures"

(* One parsed line: either a request or its in-position error reply
   ([bad-request], or [unknown-model] for a malformed structured model
   reference), tagged with the protocol version the client spoke so the
   response comes back in the same version.  A line too broken to
   reveal its version is answered in v1, the lowest common
   denominator.  Arrival numbering is per session (per connection),
   starting at 1, and only used when the client sent no id of its
   own. *)
type parsed =
  | Req of int * Wire.proto * Smem_api.Request.t
  | Bad of int * Response.error_code * string

let parse_line next_id line =
  incr next_id;
  let arrival = !next_id in
  match Wire.decode_request_line line with
  | Error (code, message) ->
      Metrics.incr m_parse_errors;
      Bad (arrival, code, message)
  | Ok (id, proto, req) -> Req (Option.value id ~default:arrival, proto, req)

let id_of_parsed = function Req (id, _, _) | Bad (id, _, _) -> id
let proto_of_parsed = function Req (_, proto, _) -> proto | Bad _ -> Wire.V1

let internal_error id e =
  Metrics.incr m_task_failures;
  Response.error ~id ~code:Response.Internal
    ("request execution failed: " ^ Printexc.to_string e)

(* Execute one parsed line.  {!Service.handle} never raises on bad
   input, but a crashed worker ({!Sched.Worker_crashed}) or an
   engine bug can still raise — that costs the one request an
   [internal] error in position, never the session. *)
let run_parsed service p =
  match p with
  | Bad (id, code, message) -> Response.error ~id ~code message
  | Req (id, _, req) -> (
      try Service.handle ~id service req
      with e -> internal_error id e)

(* Read one batch: block for the first line, then take only what is
   already available.  This is the fix for the head-of-line stall — a
   client that sends a single request and waits for its reply gets a
   batch of one instead of hanging against a reader that wants 16. *)
let read_batch frames batch =
  match Frames.next frames with
  | None -> []
  | Some first -> first :: Frames.drain frames ~max:(batch - 1)

(* Where responses go.  An out_channel in production; the simulation
   harness captures responses in a buffer instead. *)
type sink = { write : string -> unit; flush : unit -> unit }

let sink_of_channel oc =
  {
    write = (fun s -> Out_channel.output_string oc s);
    flush = (fun () -> Out_channel.flush oc);
  }

type conn = { frames : Frames.t; sink : sink; next_id : int ref }

let conn frames sink = { frames; sink; next_id = ref 0 }

(* One read/execute/reply iteration of a session.

   Lone requests run on [solo] (the full jobs budget — a single heavy
   corpus request in an otherwise idle batch still parallelizes across
   its cells); batches of two or more fan across [sched] with the
   [fan] service (jobs = 1 per request, parallelism from the fanning,
   so the domain budget is never multiplied).

   Fault tolerance: a request whose execution raises — a worker crash
   mid-batch, an engine bug — answers with an [internal] error in its
   position.  If the scheduler itself fails, the whole batch answers
   [internal] errors, in order.  Either way the session keeps going:
   the next batch is read and served normally. *)
let step ?(batch = 16) ~sched ~solo ~fan { frames; sink; next_id } =
  let batch = max 1 batch in
  match read_batch frames batch with
  | [] -> false
  | lines ->
      Metrics.incr m_batches;
      if List.compare_length_with lines batch < 0 then
        Metrics.incr m_partial_batches;
      Metrics.add m_requests (List.length lines);
      let parsed = List.map (parse_line next_id) lines in
      let responses =
        match parsed with
        | [ one ] -> [ run_parsed solo one ]
        | many -> (
            try Sched.map sched (List.map (fun p () -> run_parsed fan p) many)
            with e -> List.map (fun p -> internal_error (id_of_parsed p) e) many)
      in
      List.iter2
        (fun p resp ->
          sink.write (Wire.response_line ~proto:(proto_of_parsed p) resp))
        parsed responses;
      sink.flush ();
      true

(* One client session: iterate {!step} to end of input. *)
let session ?batch ~sched ~solo ~fan frames oc =
  let c = conn frames (sink_of_channel oc) in
  let rec loop () = if step ?batch ~sched ~solo ~fan c then loop () in
  loop ()

let run ?(batch = 16) ?jobs ?cache ?store ic oc =
  let jobs =
    match jobs with Some j -> j | None -> Smem_parallel.Pool.default_jobs ()
  in
  let store =
    match (store, cache) with
    | Some path, Some cache -> Some (Store.attach ~path cache)
    | Some _, None -> None  (* nothing to persist without a cache *)
    | None, _ -> None
  in
  let sched = Sched.create ~jobs () in
  let solo = Service.create ?cache ~jobs () in
  let fan = Service.create ?cache ~jobs:1 () in
  Fun.protect
    ~finally:(fun () ->
      Sched.shutdown sched;
      Option.iter Store.close store)
    (fun () -> session ~batch ~sched ~solo ~fan (Frames.of_in_channel ic) oc)
