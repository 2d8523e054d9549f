(** Buffered NDJSON line framing over an abstract byte source.

    The server reads request lines through this instead of
    [In_channel.input_line] because batching needs one question a
    channel cannot answer: {e is another line available right now,
    without blocking?}  [next] blocks for the first line of a batch;
    [drain] then takes only what is already there (the source's
    [readable] probe guards every further [read]), so a client that
    sends one request and waits gets its answer immediately while a
    pipelining client still fills whole batches.

    The byte source is abstract: {!of_fd} wraps a real descriptor
    ([Unix.read] guarded by a zero-timeout [Unix.select]), while the
    deterministic simulation harness supplies an in-memory source via
    {!of_source} — same framing code, no descriptor, no wall time.

    Lines are split on ['\n'] (a trailing ['\r'] is dropped); an
    unterminated final line is delivered at EOF, as read.  Each read
    is scanned once and each line copied out once, so a line of n
    bytes is framed in O(n) time and allocation, whatever the read
    sizes.  For the fd-backed source, [EINTR] is retried and a peer
    reset ([ECONNRESET]/[EPIPE]) reads as EOF. *)

type source = {
  read : Bytes.t -> int -> int -> int;
      (** [read buf pos len] — the [Unix.read] contract: block until at
          least one byte is available, return the count, [0] at EOF. *)
  readable : unit -> bool;
      (** Would [read] return immediately (bytes buffered, or EOF
          pending)?  Polled between batch lines; must not block. *)
}

type t

val of_source : source -> t

val source_of_fd : Unix.file_descr -> source
(** The descriptor-backed source: [Unix.read] with [EINTR] retried and
    peer resets mapped to EOF; [readable] is a zero-timeout
    [Unix.select]. *)

val of_fd : Unix.file_descr -> t
(** [of_source (source_of_fd fd)]. *)

val of_in_channel : in_channel -> t
(** Reads the descriptor underneath the channel.  The channel's own
    buffer must be untouched (hand the channel over before reading
    from it) — the reader consumes the descriptor directly. *)

val next : t -> string option
(** The next line, blocking until one arrives; [None] at end of
    input. *)

val drain : t -> max:int -> string list
(** Up to [max] further lines obtainable {e without blocking}.  On a
    regular file this reads ahead to the limit or EOF; on a socket or
    pipe it stops as soon as another [read] would block (bytes of an
    incomplete line stay buffered for the next call). *)
