(** The connection core of both front doors, [crnserved] ({!Server.run})
    and [crnsgate] ({!Gateway.run}): one [Unix.select] loop owns the
    listeners, accept, the connection cap, per-connection decoding in
    the listener's framing, the read deadline, idle reaping and
    teardown. Responses are written by whoever produces them, under the
    connection's write mutex, so a daemon worker answers without waiting
    for the loop; {!hold} and {!release} bracket a response owed later,
    and a connection stays open until every owed response is written.

    Fault tolerance: every misbehaving peer kills at most its own
    connection. Torn frames are reassembled; an oversized or negative
    length prefix or a malformed HTTP request is answered with a
    structured [bad_request] and closed, and so is a partial frame
    still incomplete at the read deadline; an idle connection is
    reaped; a reset or dirty close is absorbed. A connection over the
    cap, or whose descriptor [select] cannot watch ([FD_SETSIZE], 1024),
    is answered with [connection_limit] (a 503 on HTTP) and closed, so
    the effective cap is the smaller of the two. A failed [accept] (out
    of descriptors, a peer gone first) is survived, and accepting
    resumes a tick later. Each class increments a
    {!Metrics.conn_event} counter. *)

val response_ok :
  ?done_:bool -> op:string -> result:Json.t -> metrics:Metrics.request ->
  unit -> Json.t
(** The response envelope: ["ok"], ["op"], ["result"] or ["error"], and
    ["metrics"]; [done_] leads with ["done": true], the final frame of a
    stream. *)

val response_error :
  ?done_:bool -> op:string -> error:Error.t -> metrics:Metrics.request ->
  unit -> Json.t

val quick_metrics : arrival:float -> unit -> Metrics.request
(** The metrics block of a reply that ran nothing. *)

type conn

type door =
  | Frames of (conn -> string -> unit)  (** wire frames *)
  | Http_requests of (conn -> Http.request -> unit)
      (** HTTP/1.1, one request at a time: the next is decoded once the
          connection owes no response *)

val http : conn -> bool

val send_frame : conn -> string -> unit
(** Write one wire frame. A failed write, or one stalled past the 10 s
    send timeout, drops this and every later response and closes the
    connection once nothing is owed; it never raises. *)

val send_raw : conn -> string -> unit
(** Write bytes already framed (HTTP), like {!send_frame}. *)

val reply : conn -> string -> unit
(** One response envelope in the connection's framing: a wire frame, or
    an HTTP response whose status follows the envelope (200 when ok,
    else by its error code: 400, 422, 503, 504 or 500). *)

val hold : conn -> unit
val release : conn -> unit

val selectable : Unix.file_descr -> bool
(** The descriptor is below [FD_SETSIZE]. *)

val default_read_deadline_ms : float
(** 10 s. *)

val default_idle_timeout_ms : float
(** 5 min. *)

val run :
  ?stop:(unit -> bool) ->
  ?log:string ->
  ?watch:(unit -> (Unix.file_descr * (unit -> unit)) list) ->
  ?tick:(unit -> unit) ->
  ?drain:(unit -> unit) ->
  ?read_deadline_ms:float ->
  ?idle_timeout_ms:float ->
  metrics:Metrics.t ->
  max_frame:int ->
  max_conns:int ->
  (Unix.file_descr * Addr.t * door) list ->
  unit
(** Serve the listening sockets ({!Addr.listen}) until [stop ()] returns
    true (polled at least every 0.25 s).
    [max_frame] bounds a frame or an HTTP body; a deadline [<= 0]
    disables it. [watch] adds {!selectable} descriptors with their
    readable callbacks; [tick] runs once per turn; [log] names the
    program that prefixes a stderr line per connection event. Teardown,
    also on an exception: the listeners close, [drain] runs (accepted
    jobs finish and answer), the connections close, and Unix socket
    files are unlinked. *)
