(* A buffered NDJSON line reader over an abstract byte source.

   The server's batching bug was baked into [In_channel.input_line]:
   the channel cannot say whether another line is available without
   blocking, so a batch reader built on it must either block until the
   batch fills (head-of-line stall for request/response clients) or
   give up batching entirely.  Reading the bytes ourselves fixes that:
   [next] blocks for one line, [drain] takes whatever further complete
   lines can be had without blocking — the source's [readable] probe
   decides whether another [read] is safe.

   The source is abstract so the deterministic simulation harness
   ({!Smem_sim}) can feed a session from an in-memory channel with no
   descriptor underneath; [of_fd] wraps a real descriptor ([Unix.read]
   guarded by a zero-timeout [Unix.select]).

   Lines are split on '\n'; a trailing '\r' is dropped so CRLF clients
   work.  A final unterminated line is delivered at EOF.  For the fd
   source, [EINTR] is retried; [ECONNRESET]/[EPIPE] from a vanished
   peer count as EOF rather than tearing the server down. *)

type source = {
  read : Bytes.t -> int -> int -> int;
      (* like [Unix.read]: blocks for at least one byte, 0 = EOF *)
  readable : unit -> bool;
      (* would [read] return immediately, with bytes or EOF? *)
}

(* The bytes read but not yet delivered are [buf.[start .. stop - 1]],
   and none of them is a newline, so each read scans only the bytes it
   brought.  A complete line is copied out once.  The buffer is
   compacted or doubled only to make room for a read, so framing a line
   of n bytes costs O(n) time and allocation however the bytes
   arrive. *)
type t = {
  source : source;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  lines : string Queue.t;  (* complete lines, oldest first *)
  mutable eof : bool;
}

let chunk_size = 65536

let of_source source =
  { source; buf = Bytes.create chunk_size; start = 0; stop = 0;
    lines = Queue.create (); eof = false }

(* Would a [read] on [fd] return immediately?  True for regular files
   always (so file-fed tests and closed pipes still batch up to the
   limit), and for sockets exactly when data or EOF is pending. *)
let source_of_fd fd =
  let rec read buf pos len =
    match Unix.read fd buf pos len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read buf pos len
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  let readable () =
    match Unix.select [ fd ] [] [] 0. with
    | [ _ ], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  { read; readable }

let of_fd fd = of_source (source_of_fd fd)
let of_in_channel ic = of_fd (Unix.descr_of_in_channel ic)

(* Move every line that [buf.[from .. stop - 1]], the bytes just read,
   completes into [lines]; a trailing '\r' is dropped. *)
let split_new t from =
  let buf = t.buf in
  for i = from to t.stop - 1 do
    if Bytes.unsafe_get buf i = '\n' then begin
      let len = i - t.start in
      let len =
        if len > 0 && Bytes.get buf (i - 1) = '\r' then len - 1 else len
      in
      Queue.push (Bytes.sub_string buf t.start len) t.lines;
      t.start <- i + 1
    end
  done

(* Room for a whole chunk after [stop]: move the pending bytes to the
   front, into a buffer at least twice as large when they would leave
   less than a chunk free. *)
let reserve t =
  if Bytes.length t.buf - t.stop < chunk_size then begin
    let pending = t.stop - t.start in
    let buf =
      if pending + chunk_size <= Bytes.length t.buf then t.buf
      else Bytes.create (max (2 * Bytes.length t.buf) (pending + chunk_size))
    in
    Bytes.blit t.buf t.start buf 0 pending;
    t.buf <- buf;
    t.start <- 0;
    t.stop <- pending
  end

let read_once t =
  reserve t;
  match t.source.read t.buf t.stop chunk_size with
  | 0 -> t.eof <- true
  | n ->
      let from = t.stop in
      t.stop <- from + n;
      split_new t from

let readable_now t = t.source.readable ()

let pop t = Queue.take_opt t.lines

(* The unterminated tail, delivered once at EOF, as read. *)
let pop_tail t =
  if t.start = t.stop then None
  else begin
    let l = Bytes.sub_string t.buf t.start (t.stop - t.start) in
    t.start <- t.stop;
    Some l
  end

let rec next t =
  match pop t with
  | Some _ as l -> l
  | None ->
      if t.eof then pop_tail t
      else begin
        read_once t;
        next t
      end

let drain t ~max:limit =
  let rec go acc n =
    if n >= limit then List.rev acc
    else
      match pop t with
      | Some l -> go (l :: acc) (n + 1)
      | None ->
          if (not t.eof) && readable_now t then begin
            read_once t;
            go acc n
          end
          else
            match if t.eof then pop_tail t else None with
            | Some l -> go (l :: acc) (n + 1)
            | None -> List.rev acc
  in
  go [] 0
