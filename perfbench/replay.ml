(* The traced replay: the same requests again, with each layer's public
   function called and timed from here, in the order [Service.handle]
   calls them.  Spans share the request's id, stay in memory and are
   written out once at exit; tracing inside the library itself is left
   for later.  The machine's speed is probed between requests, as in
   the untraced phase, and every span of a request is scaled by its
   request's factor (see Speed).

   The replay mirrors only the request kinds the workloads send (check
   and certify, inline litmus). *)

module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Canon = Smem_core.Canon
module Cache = Smem_cache.Cache
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Wire = Smem_api.Wire
module Test = Smem_litmus.Test
module Parse = Smem_litmus.Parse
module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel
module Clock = Smem_obs.Clock
module Json = Smem_obs.Json

type span = {
  id : int;
  pass : int;
  req : int;  (** the request's index within its pass, from 1 *)
  parent : int;  (** [-1] for a request's root span *)
  window : int;  (** the request's [Speed] window *)
  name : string;
  detail : string;  (** the model key of a [check.enum] span *)
  start_ns : int;
  dur_ns : int;
}

type t = {
  speed : Speed.t;
  mutable window : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
  mutable pass : int;
  mutable req : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable certs : int;
  mutable cert_bytes : int;
  mutable refutations : int;
  mutable unverified_cap : int;
}

let create () =
  {
    speed = Speed.create ();
    window = 0;
    next = 0;
    stack = [];
    spans = [];
    pass = 0;
    req = 0;
    bytes_in = 0;
    bytes_out = 0;
    certs = 0;
    cert_bytes = 0;
    refutations = 0;
    unverified_cap = 0;
  }

let span t ?(detail = "") name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_ns = Clock.now () in
  let v = f () in
  let dur_ns = Clock.elapsed_ns start_ns in
  t.stack <- List.tl t.stack;
  t.spans <-
    {
      id;
      pass = t.pass;
      req = t.req;
      parent;
      window = t.window;
      name;
      detail;
      start_ns;
      dur_ns;
    }
    :: t.spans;
  v

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let parse t text =
  match span t "litmus.parse" (fun () -> Parse.test_of_string text) with
  | Ok test -> test
  | Error e -> failwith (Format.asprintf "litmus parse: %a" Parse.pp_error e)

let resolve t keys =
  span t "registry.resolve" (fun () ->
      List.map (fun k -> ok_or "resolve" (Registry.resolve k)) keys)

(* One check cell, as [Service.check_model] computes it. *)
let cell t cache (test : Test.t) (m : Model.t) =
  let h = test.Test.history in
  let digest = span t "canon.digest" (fun () -> Canon.digest h) in
  let got, cached =
    span t "cache.lookup" (fun () ->
        Cache.find_or_add cache ~digest ~model:m.Model.key (fun () ->
            span t "check.enum" ~detail:m.Model.key (fun () -> Model.check m h)))
  in
  ( Verdict.v ~subject:test.Test.name ~authority:m.Model.key ~cached
      ?expected:(Test.expected test m.Model.key)
      (Some (Verdict.status_of_bool got)),
    cached )

let certify t (test : Test.t) (m : Model.t) format =
  let cert =
    match
      span t "cert.certify" (fun () ->
          Cert.certify m ~name:test.Test.name test.Test.history)
    with
    | Some c -> c
    | None -> failwith ("replay: " ^ m.Model.key ^ " is not certifiable")
  in
  (match ok_or "kernel" (span t "cert.kernel" (fun () -> Kernel.verify cert)) with
  | Kernel.Complete -> ()
  | Kernel.Unverified_cap _ -> t.unverified_cap <- t.unverified_cap + 1);
  let body = span t "cert.serialize" (fun () -> Cert.to_string ~format cert) in
  t.certs <- t.certs + 1;
  t.cert_bytes <- t.cert_bytes + String.length body;
  if cert.Cert.verdict = Cert.Forbidden then t.refutations <- t.refutations + 1;
  Response.Certificate
    { format = (match format with `Sexp -> "sexp" | `Json -> "json"); body }

let request t cache line =
  t.req <- t.req + 1;
  t.bytes_in <- t.bytes_in + String.length line;
  t.window <- Speed.mark t.speed;
  let t0 = Clock.now () in
  let out =
    span t "serve.request" (fun () ->
        let id, proto, req =
          ok_or "decode"
            (span t "api.decode" (fun () -> Wire.parse_request_line line))
        in
        let t0 = Clock.now () in
        let payload, cached, computed =
          match req with
          | Request.Check { test = Request.Inline text; models } ->
              let test = parse t text in
              let cells = List.map (cell t cache test) (resolve t models) in
              let hits = List.length (List.filter snd cells) in
              (Response.Verdicts (List.map fst cells), hits, List.length cells - hits)
          | Request.Certify { test = Request.Inline text; model; format } ->
              let test = parse t text in
              let m = List.hd (resolve t [ model ]) in
              (certify t test m format, 0, 1)
          | _ -> failwith "replay: unexpected request kind"
        in
        let resp =
          {
            Response.id;
            kind = Request.kind req;
            cached;
            computed;
            elapsed_ns = Clock.elapsed_ns t0;
            payload;
          }
        in
        span t "api.encode" (fun () -> Wire.response_line ~proto resp))
  in
  Speed.ran t.speed (Clock.elapsed_ns t0);
  t.bytes_out <- t.bytes_out + String.length out

(* One more pass over [lines]; request ids restart at 1, so a request
   has the same id in every pass. *)
let pass t cache lines =
  t.pass <- t.pass + 1;
  t.req <- 0;
  Array.iter (request t cache) lines

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

(* Summed over every pass's requests, per key, in ns at the reference
   speed: a span name (its self time: duration minus the time its child
   spans cover), ["check.enum:" ^ model] (that model's check time) and
   [""] (the whole request). *)
let summarize t =
  let children = Hashtbl.create 65536 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.dur_ns + Option.value (Hashtbl.find_opt children s.parent) ~default:0))
    t.spans;
  let scale = Speed.scaler t.speed in
  let total = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace total k (v +. Option.value (Hashtbl.find_opt total k) ~default:0.)
  in
  List.iter
    (fun (s : span) ->
      let covered = Option.value (Hashtbl.find_opt children s.id) ~default:0 in
      add s.name (scale s.window (s.dur_ns - covered));
      if s.name = "check.enum" then
        add ("check.enum:" ^ s.detail) (scale s.window s.dur_ns);
      if s.parent < 0 then add "" (scale s.window s.dur_ns))
    t.spans;
  fun key -> Option.value (Hashtbl.find_opt total key) ~default:0.

(* One JSON object per line, oldest span first; [ref_ns] is the span's
   duration at the reference speed. *)
let write t path =
  let scale = Speed.scaler t.speed in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s : span) ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("pass", Json.Int s.pass);
                    ("req", Json.Int s.req);
                    ("id", Json.Int s.id);
                    ("parent", Json.Int s.parent);
                    ("name", Json.Str s.name);
                    ("detail", Json.Str s.detail);
                    ("start_ns", Json.Int s.start_ns);
                    ("dur_ns", Json.Int s.dur_ns);
                    ("ref_ns", Json.Int (Float.to_int (scale s.window s.dur_ns)));
                  ]));
          output_char oc '\n')
        (List.rev t.spans))
