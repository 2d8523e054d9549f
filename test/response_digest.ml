(* Prints the MD5 of every response byte one caching service serves
   over the production loop: [check] requests, as inline litmus text,
   for each test of the built-in corpus and of the generated corpus at
   seed 42 (200 tests), against every catalogue model by key.  The
   lines go through [Server.step] twice over one service (jobs = 1,
   one scheduler running tasks in order, a clock that ticks 1000 ns
   per reading as the simulation harness's does): a cold pass, then
   the same lines again, answered from the cache.  One MD5 per pass.

   The runtest diff against golden/response_digest.expected pins
   framing, the wire decoder, the litmus parser, model resolution and
   the verdicts, byte for byte.  Under the partition models a verdict
   reads location ids, which the parser numbers by first appearance,
   so the digest pins that numbering too. *)

module Server = Smem_serve.Server
module Service = Smem_serve.Service
module Frames = Smem_serve.Frames
module Sched = Smem_serve.Sched
module Request = Smem_api.Request
module Wire = Smem_api.Wire
module Test = Smem_litmus.Test
module Model = Smem_core.Model

let tests =
  Smem_litmus.Corpus.all @ Smem_corpus.Corpus.generate ~seed:42 ~count:200 ()

let keys = List.map (fun (m : Model.t) -> m.Model.key) Smem_core.Registry.all

let lines =
  List.mapi
    (fun i (t : Test.t) ->
      let test = Request.Inline (Smem_litmus.Print.to_string t) in
      Wire.request_line ~proto:Wire.V2 ~id:(i + 1)
        (Request.Check { test; models = keys }))
    tests
  |> String.concat ""

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

let () =
  let vtime = ref 0 in
  let clock () =
    vtime := !vtime + 1000;
    !vtime
  in
  let cache = Smem_cache.Cache.create ~capacity:65536 () in
  let service = Service.create ~cache ~jobs:1 ~clock () in
  let sched = Sched.inline () in
  List.iter
    (fun pass ->
      let out = Buffer.create (1 lsl 20) in
      let sink =
        { Server.write = Buffer.add_string out; flush = (fun () -> ()) }
      in
      let conn = Server.conn (Frames.of_source (source lines)) sink in
      while Server.step ~sched ~solo:service ~fan:service conn do
        ()
      done;
      Printf.printf "%s %s\n" pass
        (Digest.to_hex (Digest.string (Buffer.contents out))))
    [ "cold"; "warm" ]
