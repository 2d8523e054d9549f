(* Prints the MD5 of every JSON shape the toolkit writes, one line per
   group:

   - requests: the request lines of every kind (check, corpus,
     classify and distinguish on one small scope, certify in sexp and
     in json, models), each in smem-api/1 and smem-api/2, with and
     without an id, plus hand-written error lines;
   - responses: what one caching service, driven through
     [Server.step] (jobs = 1, a clock that ticks 1000 ns per reading),
     answers to those lines, in order;
   - certificates: the JSON certificate of every cell of the built-in
     corpus under every catalogue model.

   The error lines are those whose answer does not depend on how far
   a rejected line decoded: lines that reveal no version, v1 lines,
   and errors the service raises (unknown model or test, bad litmus,
   too-large).

   The runtest diff against golden/wire_digest.expected pins every
   byte of those shapes: a change to a codec must leave it unchanged;
   a deliberate change to a shape must come with a regenerated golden
   file (dune promote). *)

module Server = Smem_serve.Server
module Service = Smem_serve.Service
module Frames = Smem_serve.Frames
module Sched = Smem_serve.Sched
module Request = Smem_api.Request
module Wire = Smem_api.Wire
module Cert = Smem_cert.Cert
module Test = Smem_litmus.Test
module Model = Smem_core.Model

let scope procs = { Request.procs; nlocs = 2; max_value = 1; labeled = false }

let requests =
  [
    Request.Check
      {
        test = Named "mp";
        models = [ "sc"; "tso"; "pc-part(blocks=2)"; "session(ryw,mr)" ];
      };
    Request.Check
      {
        test = Inline "test t \"inline\"\np0: w x 1 ; r y 0\np1: w y 1 ; r x 0\n";
        models = [ "sc"; "pram" ];
      };
    Request.Corpus { models = [ "sc"; "causal" ] };
    Request.Classify { models = [ "sc"; "pram" ]; scopes = [ scope [ 1; 1 ] ] };
    Request.Classify
      {
        models = [ "tso"; "pc" ];
        scopes = [ { (scope [ 2; 1 ]) with nlocs = 1; labeled = true } ];
      };
    Request.Distinguish { a = "sc"; b = "tso"; scopes = [ scope [ 2; 2 ] ] };
    Request.Certify { test = Named "fig1"; model = "sc"; format = `Sexp };
    Request.Certify { test = Named "mp"; model = "tso"; format = `Json };
    Request.Certify
      { test = Named "sb+rfi"; model = "pc-part(blocks=2)"; format = `Json };
    Request.Models;
  ]

let too_large =
  let ops = List.init 70 (fun i -> Printf.sprintf "w x %d" (i + 1)) in
  "test big \"b\"\np0: " ^ String.concat " ; " ops ^ "\n"

(* Answered by the service, in the version the line spoke. *)
let service_errors =
  [
    Request.Check { test = Named "mp"; models = [ "nosuch"; "sc" ] };
    Request.Check { test = Named "nosuch"; models = [ "sc" ] };
    Request.Check { test = Inline "test t\np0: q x 1\n"; models = [ "sc" ] };
    Request.Check { test = Inline too_large; models = [ "pram" ] };
    Request.Certify { test = Named "mp"; model = "sesion(ryw)"; format = `Json };
  ]

(* Rejected before the service sees them: no version revealed, or v1.
   A line rejected for a missing or mistyped member is answered with a
   message the codec writes; test_api's codec group compares the codes
   of such answers, not their text, so none is pinned here. *)
let rejected_lines =
  [
    "this is not json\n";
    "{\"schema\":\"smem-api/999\",\"id\":4,\"kind\":\"corpus\"}\n";
    "{\"schema\":\"smem-api/2\",\"version\":1,\"id\":5,\"kind\":\"corpus\"}\n";
    "{\"schema\":7,\"kind\":\"corpus\"}\n";
    "{\"schema\":\"smem-api/1\",\"kind\":\"check\",\"test\":{\"corpus\":\"mp\"},\"models\":[{\"family\":\"a \
     b\"}]}\n";
    "{\"schema\":\"smem-api/1\",\"id\":8,\"kind\":\"certify\",\"test\":{\"corpus\":\"mp\"},\"model\":\"sc\",\"format\":\"xml\"}\n";
  ]

let request_lines =
  List.concat_map
    (fun proto ->
      List.concat
        (List.mapi
           (fun i r ->
             [ Wire.request_line ~proto ~id:(i + 1) r; Wire.request_line ~proto r ])
           (requests @ service_errors)))
    [ Wire.V1; Wire.V2 ]
  @ rejected_lines

(* An in-memory byte source: every read returns at once. *)
let source text =
  let pos = ref 0 in
  {
    Frames.read =
      (fun buf off len ->
        let n = min len (String.length text - !pos) in
        Bytes.blit_string text !pos buf off n;
        pos := !pos + n;
        n);
    readable = (fun () -> true);
  }

let responses text =
  let vtime = ref 0 in
  let clock () =
    vtime := !vtime + 1000;
    !vtime
  in
  let cache = Smem_cache.Cache.create ~capacity:4096 () in
  let service = Service.create ~cache ~jobs:1 ~clock () in
  let sched = Sched.inline () in
  let out = Buffer.create (1 lsl 16) in
  let sink = { Server.write = Buffer.add_string out; flush = (fun () -> ()) } in
  let conn = Server.conn (Frames.of_source (source text)) sink in
  while Server.step ~sched ~solo:service ~fan:service conn do
    ()
  done;
  Buffer.contents out

let certificates () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun (m : Model.t) ->
          Buffer.add_string buf
            (Cert.to_string ~format:`Json
               (Cert.make m ~name:t.Test.name t.Test.history)))
        Smem_core.Registry.all)
    Smem_litmus.Corpus.all;
  Buffer.contents buf

let () =
  let text = String.concat "" request_lines in
  let md5 s = Digest.to_hex (Digest.string s) in
  Printf.printf "requests %s\n" (md5 text);
  Printf.printf "responses %s\n" (md5 (responses text));
  Printf.printf "certificates %s\n" (md5 (certificates ()))
