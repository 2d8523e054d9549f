(* The production serving path, in process: one connection whose
   request lines come from memory and whose responses go to a buffer,
   stepped by [Server.step] — Frames, Wire decode, Service.handle and
   Wire encode, minus only the socket syscalls.  One request is in
   flight at a time, so every step is a batch of one and runs on the
   [solo] service ([jobs = 1]); the inline scheduler is never asked to
   fan anything out, and no worker domain exists to compete for the
   two cores. *)

module Server = Smem_serve.Server
module Service = Smem_serve.Service
module Frames = Smem_serve.Frames
module Sched = Smem_serve.Sched
module Cache = Smem_cache.Cache
module Clock = Smem_obs.Clock

type feed = { mutable pending : string; mutable pos : int }

type t = {
  cache : Cache.t;
  service : Service.t;
  sched : Sched.t;
  conn : Server.conn;
  feed : feed;
  out : Buffer.t;
}

(* Large enough that no workload evicts: at most 2000 tests x 20
   models, on check-cold. *)
let cache_capacity = 65536

let create () =
  let cache = Cache.create ~capacity:cache_capacity () in
  let feed = { pending = ""; pos = 0 } and out = Buffer.create 4096 in
  (* [read] is only reached while a fed line is unread, so it never
     reports end of input. *)
  let source =
    {
      Frames.read =
        (fun buf off len ->
          let n = min len (String.length feed.pending - feed.pos) in
          Bytes.blit_string feed.pending feed.pos buf off n;
          feed.pos <- feed.pos + n;
          n);
      readable = (fun () -> feed.pos < String.length feed.pending);
    }
  in
  let sink = { Server.write = Buffer.add_string out; flush = (fun () -> ()) } in
  let service = Service.create ~cache ~jobs:1 () in
  {
    cache;
    service;
    sched = Sched.inline ();
    conn = Server.conn (Frames.of_source source) sink;
    feed;
    out;
  }

(* One request line in, its response line out. *)
let request t line =
  t.feed.pending <- line;
  t.feed.pos <- 0;
  Buffer.clear t.out;
  if not (Server.step ~sched:t.sched ~solo:t.service ~fan:t.service t.conn)
  then failwith "serving loop reported end of input";
  Buffer.contents t.out

(* [lines] in order, each request timed, with the machine's speed
   probed between them; returns the responses and each request's
   (window, time) for [Speed.scaler]. *)
let measured_pass t speed lines =
  let steps = Array.make (Array.length lines) (0, 0) in
  let resp =
    Array.mapi
      (fun i line ->
        let w = Speed.mark speed in
        let t0 = Clock.now () in
        let r = request t line in
        let ns = Clock.elapsed_ns t0 in
        Speed.ran speed ns;
        steps.(i) <- (w, ns);
        r)
      lines
  in
  (resp, steps)

(* The response with its [elapsed_ns] reading removed: the one field
   that legitimately differs between two answers to the same request. *)
let strip_elapsed r =
  let key = "\"elapsed_ns\":" in
  let klen = String.length key and n = String.length r in
  let rec matches i j = j = klen || (r.[i + j] = key.[j] && matches i (j + 1)) in
  let rec find i =
    if i + klen > n then None
    else if matches i 0 then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> r
  | Some start ->
      let stop = ref start in
      while !stop < n && r.[!stop] >= '0' && r.[!stop] <= '9' do
        incr stop
      done;
      String.sub r 0 start ^ String.sub r !stop (n - !stop)

type timed = {
  times : float array list;
      (** per pass, in pass order: each request's time, line in to
          response line out, in ns at the reference speed *)
  attempted : int;  (** timed requests, over all passes *)
  busy_ns : int;  (** summed request time as measured: the timed phase *)
  probe_ns : float;  (** the phase's median probe *)
  first : string array;  (** the first timed pass's responses *)
  same : int array;
      (** per request: passes whose response equals [first]'s,
          [elapsed_ns] aside *)
  minor_words : float;
  major_collections : int;
}

(* Whole passes, closed loop, until [seconds] of request time have been
   measured (as measured, not scaled).  [before_pass k] runs untimed and returns pass [k]'s lines
   (a fresh renaming, or the same lines after a cache reset).  Responses
   of later passes are compared with the first pass's between passes,
   outside every timed interval; the first pass's are checked in full
   after the phase. *)
let run t ~seconds ~before_pass =
  let speed = Speed.create () in
  let passes = ref [] and busy = ref 0 and attempted = ref 0 in
  let first = ref [||] and first_stripped = ref [||] and same = ref [||] in
  let minor_words = ref 0. and major_collections = ref 0 in
  let limit = seconds * 1_000_000_000 in
  while !busy < limit do
    let lines = before_pass (List.length !passes) in
    let n = Array.length lines in
    let gc0 = Gc.quick_stat () in
    let resp, steps = measured_pass t speed lines in
    let gc1 = Gc.quick_stat () in
    minor_words := !minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections :=
      !major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
    busy := Array.fold_left (fun b (_, ns) -> b + ns) !busy steps;
    attempted := !attempted + n;
    if !passes = [] then begin
      first := resp;
      first_stripped := Array.map strip_elapsed resp;
      same := Array.make n 1
    end
    else
      Array.iteri
        (fun i r ->
          if strip_elapsed r = !first_stripped.(i) then
            !same.(i) <- !same.(i) + 1)
        resp;
    passes := steps :: !passes
  done;
  let scale = Speed.scaler speed in
  {
    times = List.rev_map (Array.map (fun (w, ns) -> scale w ns)) !passes;
    attempted = !attempted;
    busy_ns = !busy;
    probe_ns = Speed.probe_median_ns speed;
    first = !first;
    same = !same;
    minor_words = !minor_words;
    major_collections = !major_collections;
  }
