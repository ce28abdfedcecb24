(** Minimal HTTP/1.1 framing for the gateway and its clients.

    The bodies exchanged are exactly the wire protocol's JSON frame
    payloads: HTTP is an alternative {e framing} of the same protocol,
    so responses through the gateway stay byte-identical to direct
    daemon responses. Streamed replies map one wire frame to one HTTP
    chunk. *)

exception Bad_request of string
(** A malformed request head, oversized body, or bad Content-Length;
    raised by {!next_request}. *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;  (** keys lowercased *)
  body : string;
}

val header : request -> string -> string option

(** {2 Server-side incremental parsing} *)

type reader

val reader : ?max_body:int -> unit -> reader
(** [max_body] (default 8 MiB) bounds both the request head and the
    declared Content-Length before anything is buffered. *)

val feed : reader -> Bytes.t -> int -> unit
(** Append the first [n] bytes just read from the socket. *)

val buffered : reader -> int

val next_request : reader -> request option
(** Slice the next complete request out of the buffer, or [None] if
    more bytes are needed. Raises {!Bad_request} on malformed input. *)

(** {2 Response serialization} *)

val response :
  ?headers:(string * string) list ->
  status:int ->
  content_type:string ->
  string ->
  string
(** A complete fixed-length response, ready to write. *)

val chunked_head :
  ?headers:(string * string) list ->
  status:int ->
  content_type:string ->
  unit ->
  string
(** Status line + headers of a [Transfer-Encoding: chunked] response. *)

val chunk : string -> string
(** One chunk (hex length, payload, CRLF). *)

val last_chunk : string
(** The terminal zero chunk. *)

val write_all : Unix.file_descr -> string -> unit
(** Write all of a response (or request), blocking. *)

(** {2 Blocking client} *)

type ic
(** A buffered input channel over a socket; persists across keep-alive
    responses. [Unix_error] (including [EAGAIN] from an armed
    [SO_RCVTIMEO]) propagates; EOF raises [End_of_file]. *)

exception Bad_response of string

val ic_of_fd : Unix.file_descr -> ic

val total_read : ic -> int
(** Bytes ever read through this channel — compare before/after a read
    to decide whether a failure preceded the first response byte. *)

val write_request :
  Unix.file_descr -> ?meth:string -> host:string -> path:string -> string ->
  unit
(** Write a keep-alive JSON request (default [POST]) with the given
    body. *)

val read_status_headers : ic -> int * (string * string) list
(** Status code and lowercased headers of the next response. *)

val read_body : ic -> (string * string) list -> string
(** The full body, honouring Content-Length or chunked encoding. *)

val chunked : (string * string) list -> bool

val read_chunk : ic -> string option
(** One chunk of a chunked body; [None] on the terminal chunk. *)
