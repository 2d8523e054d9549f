(* The persistent verdict store: an append-only log of
   (canonical digest, model key, definition fingerprint, verdict)
   records backing the in-memory cache, so a restarted daemon starts
   warm.

   Format (smem-store/2): a '#'-prefixed header line, then one record
   per line — "digest model fingerprint 0|1", space-separated.  Every
   field is space-free by construction (the digest is MD5 hex from
   {!Smem_core.Canon}, model keys are registry identifiers, the
   fingerprint is hex).  Replay is forgiving: blank, comment, malformed
   and truncated lines are skipped, so a crash mid-append costs at most
   the final record.

   A verdict is a function of the history and the model's definition,
   so a record carries a fingerprint of the definition it was decided
   under, and replay skips (and counts as stale) every record whose
   fingerprint is not the running definition's: a fixed model restarts
   cold, the others warm.  A log in any other format (smem-store/1
   kept no fingerprints) is stale as a whole and is started afresh.
   Within one definition a verdict never changes, so the log needs no
   compaction; re-computation after a cache eviction may append a
   duplicate record, and replay collapses duplicates through
   [Cache.add]'s last-write-wins semantics.

   Appends go through the cache's [on_store] hook, which fires from
   whatever domain decided the verdict, so the writer is mutex-guarded.
   Every append is flushed: a verdict costs a search, a flush costs a
   syscall. *)

module Metrics = Smem_obs.Metrics
module Cache = Smem_cache.Cache
module Model = Smem_core.Model

let m_appends = Metrics.counter "store.appends"
let m_replayed = Metrics.counter "store.replayed"
let m_stale = Metrics.counter "store.stale"

let header = "# smem-store/2"

(* The definition a verdict is decided under: the rendered parameter
   quadruple, or for tso-op, the catalogue's one model without a
   quadruple, the version string kept beside its code. *)
let fingerprint key =
  match Smem_core.Registry.resolve key with
  | Error _ -> None
  | Ok m ->
      let definition =
        match m.Model.params with
        | Some p ->
            String.concat ";"
              (List.map (fun (k, v) -> k ^ "=" ^ v) (Model.params_strings p))
        | None -> Smem_core.Tso_operational.version
      in
      Some (String.sub (Digest.to_hex (Digest.string definition)) 0 16)

(* [fingerprint], resolved once per key. *)
let memo () =
  let tbl = Hashtbl.create 32 in
  fun key ->
    match Hashtbl.find_opt tbl key with
    | Some fp -> fp
    | None ->
        let fp = fingerprint key in
        Hashtbl.add tbl key fp;
        fp

type t = {
  path : string;
  oc : out_channel;
  mutex : Mutex.t;
  known : string -> string option;  (* under [mutex] *)
  replayed : int;
  stale : int;
  mutable appended : int;
  mutable closed : bool;
}

let parse_record line =
  match String.split_on_char ' ' line with
  | [ digest; model; fp; verdict ] when digest <> "" && model <> "" && fp <> ""
    -> (
      match verdict with
      | "1" -> Some (digest, model, fp, true)
      | "0" -> Some (digest, model, fp, false)
      | _ -> None)
  | _ -> None

(* Replay a log into the cache: (records replayed, records stale, the
   log is current).  Records of a log in another format are all stale. *)
let replay_file path cache known =
  if not (Sys.file_exists path) then (0, 0, true)
  else
    In_channel.with_open_bin path (fun ic ->
        let current =
          match In_channel.input_line ic with
          | None -> true
          | Some first -> String.equal first header
        in
        let replayed = ref 0 and stale = ref 0 in
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              (if line <> "" && line.[0] <> '#' then
                 if not current then incr stale
                 else
                   match parse_record line with
                   | Some (digest, model, fp, verdict) -> (
                       match known model with
                       | Some fp' when String.equal fp fp' ->
                           (* notify:false — replaying must not re-append *)
                           Cache.add ~notify:false cache ~digest ~model verdict;
                           incr replayed
                       | _ -> incr stale)
                   | None -> ());
              go ()
        in
        go ();
        (!replayed, !stale, current))

let append t ~digest ~model verdict =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        let fp = Option.value (t.known model) ~default:"-" in
        output_string t.oc
          (Printf.sprintf "%s %s %s %c\n" digest model fp
             (if verdict then '1' else '0'));
        flush t.oc;
        t.appended <- t.appended + 1;
        Metrics.incr m_appends
      end)

(* A crash mid-append leaves a torn final record with no trailing
   newline.  Appending straight after it would splice the next record
   onto the torn bytes, corrupting a good record into garbage (found
   by the simulation harness's store-kill fault).  Sealing the tail
   with a newline turns the torn bytes into one malformed line that
   replay skips forever. *)
let torn_tail path =
  Sys.file_exists path
  && In_channel.with_open_bin path (fun ic ->
         let n = In_channel.length ic in
         n > 0L
         &&
         (In_channel.seek ic (Int64.sub n 1L);
          In_channel.input_char ic <> Some '\n'))

let attach ~path cache =
  let known = memo () in
  let replayed, stale, current = replay_file path cache known in
  Metrics.add m_replayed replayed;
  Metrics.add m_stale stale;
  let fresh =
    (not current)
    || (not (Sys.file_exists path))
    || In_channel.with_open_bin path In_channel.length = 0L
  in
  let seal = (not fresh) && torn_tail path in
  let oc =
    if fresh then open_out_bin path
    else open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  if fresh then begin
    output_string oc (header ^ "\n");
    flush oc
  end
  else if seal then begin
    output_string oc "\n";
    flush oc
  end;
  let t =
    {
      path;
      oc;
      mutex = Mutex.create ();
      known;
      replayed;
      stale;
      appended = 0;
      closed = false;
    }
  in
  Cache.on_store cache (append t);
  t

let replayed t = t.replayed
let stale t = t.stale
let appended t = t.appended
let path t = t.path

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        flush t.oc;
        close_out_noerr t.oc
      end)
