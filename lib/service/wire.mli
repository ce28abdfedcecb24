(** Length-prefixed frame transport for the service protocol.

    Frame format: a 4-byte big-endian payload length, then that many
    bytes of UTF-8 JSON. Every reader takes a [?max_frame] limit
    (default 64 MiB) and rejects a longer length prefix
    with {!Oversized_frame} {e before} allocating or buffering the
    payload — a hostile 4-byte prefix can never request a multi-GB
    buffer, and a decoder configured with the daemon's (much smaller)
    per-connection limit refuses the frame as soon as the prefix is
    complete. *)

exception Framing_error of string
(** Stream desync: negative length prefix, EOF inside a frame, or a
    short write. The connection cannot be resynchronized; close it. *)

exception Oversized_frame of { len : int; limit : int }
(** A structurally valid length prefix above the configured limit. *)

(** A byte transport with the [Unix.read]/[Unix.write] calling
    convention ([buf -> off -> len -> n]; read returning 0 is EOF).
    {!of_fd} wraps a socket; the tests' [Fault.wrap] injects faults. *)
type transport = {
  read : Bytes.t -> int -> int -> int;
  write : Bytes.t -> int -> int -> int;
}

val of_fd : Unix.file_descr -> transport

val write_frame_t : ?max_frame:int -> transport -> string -> unit

val write_frame : ?max_frame:int -> Unix.file_descr -> string -> unit
(** Write one complete frame. The caller serializes concurrent writers
    on the same descriptor (the server holds a per-connection mutex). *)

val read_frame_t : ?max_frame:int -> transport -> string option

val read_frame : ?max_frame:int -> Unix.file_descr -> string option
(** Blocking read of one frame; [None] on clean EOF between frames
    (zero bytes of the next frame arrived — the discrimination the
    client's retry policy relies on). Raises {!Framing_error} on EOF
    inside a frame and {!Oversized_frame} on a too-large prefix. *)

(** Incremental decoder for {!Conn_loop}'s select loop: feed whatever
    bytes arrived, pull out as many complete frames as are buffered. *)
type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] is checked by {!next_frame} as soon as the 4-byte prefix
    is buffered, so a rejected frame's payload is never awaited. *)

val buffered : decoder -> int
(** Bytes currently buffered. After draining with {!next_frame} this is
    nonzero exactly when a partial frame is pending — what the core's
    partial-frame read deadline watches. *)

val feed : decoder -> Bytes.t -> int -> unit
(** [feed d chunk n] appends the first [n] bytes of [chunk]. *)

val next_frame : decoder -> string option
(** Extract the next complete frame, or [None] if more bytes are
    needed. Raises {!Framing_error} on a negative prefix and
    {!Oversized_frame} on one above the decoder's limit. *)
