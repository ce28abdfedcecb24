(* The connection core of crnserved and crnsgate (see conn_loop.mli).
   Responses are written where they are produced, never queued for the
   loop: a daemon worker writes its own frames under the connection's
   write mutex, so no response waits for a select tick. *)

(* ---------------------------------------------------- response envelope *)

(* [done_] marks the final frame of a streamed (trace) response; the
   field leads the object so the serialized form has the stable prefix
   {"done": that a relaying gateway matches without parsing *)
let envelope ~done_ fields =
  Json.Obj (if done_ then ("done", Json.Bool true) :: fields else fields)

let response_ok ?(done_ = false) ~op ~result ~metrics () =
  envelope ~done_
    [
      ("ok", Json.Bool true);
      ("op", Json.str op);
      ("result", result);
      ("metrics", Metrics.request_json metrics);
    ]

let response_error ?(done_ = false) ~op ~error ~metrics () =
  envelope ~done_
    [
      ("ok", Json.Bool false);
      ("op", Json.str op);
      ("error", Error.to_json error);
      ("metrics", Metrics.request_json metrics);
    ]

let quick_metrics ~arrival () =
  {
    Metrics.queue_wait_ms = 0.;
    cache = Metrics.Not_applicable;
    compile_ms = 0.;
    run_ms = 0.;
    total_ms = (Unix.gettimeofday () -. arrival) *. 1000.;
    extra = [];
  }

let status_of_code = function
  | "bad_request" | "parse_error" | "unknown_design" | "not_compilable" -> 400
  | "max_events_exceeded" | "max_steps_exceeded" | "solver_failure"
  | "validation_failed" ->
      422
  | "deadline_exceeded" -> 504
  | "overloaded" | "connection_limit" | "shard_failed" -> 503
  | _ -> 500

(* an envelope's HTTP status: 200 when ok (matched on the stable prefix,
   unparsed), else by its error code *)
let status_of_envelope payload =
  if
    String.starts_with ~prefix:"{\"ok\":true" payload
    || String.starts_with ~prefix:"{\"done\":true,\"ok\":true" payload
  then 200
  else
    match
      Option.bind (Json.member "error" (Json.of_string payload)) (fun e ->
          Option.bind (Json.member "code" e) Json.to_str)
    with
    | Some code -> status_of_code code
    | None | (exception _) -> 500

(* ------------------------------------------------------- connections *)

type conn = {
  fd : Unix.file_descr;
  front : front;
  wmutex : Mutex.t;  (* serializes writes and the fields below *)
  mutable in_flight : int;  (* responses still owed on this connection *)
  mutable closing : bool;  (* stop reading; close once nothing is owed *)
  mutable broken : bool;  (* a write failed: later responses are dropped *)
  mutable closed : bool;
  mutable last_activity : float;  (* last bytes read or owed response sent *)
  mutable partial_since : float option;
      (* when the oldest byte of a still-incomplete frame arrived; the
         read deadline kills a connection that stalls mid-frame *)
  id : int;
}

and front =
  | Wire_in of Wire.decoder * (conn -> string -> unit)
  | Http_in of Http.reader * (conn -> Http.request -> unit)

type door =
  | Frames of (conn -> string -> unit)
  | Http_requests of (conn -> Http.request -> unit)

let http c = match c.front with Http_in _ -> true | Wire_in _ -> false

let close_locked c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with _ -> ()
  end

(* A peer that is gone, or stalled past the send timeout, loses this
   response and every later one: a worker must never die because a
   client hung up mid-run, nor block again on the same dead peer. *)
let locked_write c f =
  Mutex.lock c.wmutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.wmutex)
    (fun () ->
      if not (c.closed || c.broken) then
        try f c.fd
        with Unix.Unix_error _ | Wire.Framing_error _ ->
          c.broken <- true;
          c.closing <- true)

let send_frame c payload =
  locked_write c (fun fd -> Wire.write_frame fd payload)

let send_raw c s = locked_write c (fun fd -> Http.write_all fd s)

let reply c payload =
  match c.front with
  | Wire_in _ -> send_frame c payload
  | Http_in _ ->
      send_raw c
        (Http.response ~status:(status_of_envelope payload)
           ~content_type:"application/json" payload)

let hold c =
  Mutex.lock c.wmutex;
  c.in_flight <- c.in_flight + 1;
  Mutex.unlock c.wmutex

let release c =
  Mutex.lock c.wmutex;
  c.in_flight <- c.in_flight - 1;
  c.last_activity <- Unix.gettimeofday ();
  if c.closing && c.in_flight = 0 then close_locked c;
  Mutex.unlock c.wmutex

(* tell the offending peer what killed its connection, best-effort, then
   let the reaper close the socket *)
let kill c error =
  reply c
    (Json.to_string
       (response_error ~op:"?" ~error
          ~metrics:(quick_metrics ~arrival:(Unix.gettimeofday ()) ())
          ()));
  c.closing <- true

(* a partial frame, or an HTTP request head or body still arriving; an
   HTTP connection's buffered bytes may also be whole requests deferred
   while a response is owed, which no deadline applies to *)
let partial c =
  match c.front with
  | Wire_in (d, _) -> Wire.buffered d > 0
  | Http_in (r, _) -> c.in_flight = 0 && Http.buffered r > 0

(* [Unix.select] raises EINVAL for a descriptor at or above FD_SETSIZE
   (1024 with glibc and on macOS), which would end the whole loop, so no
   such descriptor is ever watched. On Unix a file_descr is the
   descriptor number itself. *)
external fd_number : Unix.file_descr -> int = "%identity"

let selectable fd = fd_number fd < 1024

(* ------------------------------------------------------------ the loop *)

let default_read_deadline_ms = 10_000.
let default_idle_timeout_ms = 300_000.
let send_timeout_s = 10.
let tick_s = 0.25

let run ?(stop = fun () -> false) ?log ?(watch = fun () -> [])
    ?(tick = ignore) ?(drain = ignore)
    ?(read_deadline_ms = default_read_deadline_ms)
    ?(idle_timeout_ms = default_idle_timeout_ms) ~metrics ~max_frame ~max_conns
    listeners =
  let logf fmt =
    match log with
    | Some name -> Printf.eprintf ("%s: " ^^ fmt ^^ "\n%!") name
    | None -> Printf.ifprintf stderr fmt
  in
  let conns = ref [] and next_id = ref 0 and accept_paused_until = ref 0. in
  let buf = Bytes.create 65536 in
  let count e = Metrics.record_conn metrics e in
  (* the next decoded request, bound to its door's handler; HTTP takes
     one request at a time, since keep-alive responses must leave in
     request order: the next is parsed only once nothing is owed (the
     reaper drives it then) *)
  let next_request c =
    match c.front with
    | Wire_in (d, on_frame) ->
        Option.map (fun p () -> on_frame c p) (Wire.next_frame d)
    | Http_in (r, on_request) ->
        if c.in_flight > 0 || c.closing then None
        else Option.map (fun q () -> on_request c q) (Http.next_request r)
  in
  let decode c =
    (try
       let rec go () =
         match next_request c with
         | Some handle ->
             count Metrics.Frame_in;
             handle ();
             go ()
         | None -> ()
       in
       go ()
     with
    | Wire.Framing_error msg | Http.Bad_request msg ->
        count Metrics.Framing_error;
        logf "conn %d: framing error: %s" c.id msg;
        kill c (Error.Bad_request ("framing error: " ^ msg))
    | Wire.Oversized_frame { len; limit } ->
        count Metrics.Oversized_frame;
        logf "conn %d: oversized frame (%d > %d)" c.id len limit;
        kill c
          (Error.Bad_request
             (Printf.sprintf "frame length %d exceeds the %d-byte limit" len
                limit)));
    (* whatever drained, what remains is a partial frame: start (or keep)
       its read-deadline clock; a clean boundary resets it *)
    if c.closing || not (partial c) then c.partial_since <- None
    else if c.partial_since = None then
      c.partial_since <- Some (Unix.gettimeofday ())
  in
  let accept lfd door =
    match Unix.accept ~cloexec:true lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
        (* out of descriptors (EMFILE, ENFILE) or a peer gone before its
           accept (ECONNABORTED): survive it, and leave the listeners out
           of the next select so that a connection still pending cannot
           spin the loop; accepting resumes a tick later *)
        count Metrics.Accept_error;
        logf "accept failed: %s" (Unix.error_message err);
        accept_paused_until := Unix.gettimeofday () +. tick_s
    | fd, _ ->
        (* a stalled reader must not wedge a daemon worker or the
           gateway's single-threaded relay *)
        (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s
         with _ -> ());
        incr next_id;
        let c =
          {
            fd;
            front =
              (match door with
              | Frames f -> Wire_in (Wire.decoder ~max_frame (), f)
              | Http_requests f ->
                  Http_in (Http.reader ~max_body:max_frame (), f));
            wmutex = Mutex.create ();
            in_flight = 0;
            closing = false;
            broken = false;
            closed = false;
            last_activity = Unix.gettimeofday ();
            partial_since = None;
            id = !next_id;
          }
        in
        let open_conns = List.length !conns in
        if open_conns >= max_conns || not (selectable fd) then begin
          (* over the cap, or past what select can watch: a structured
             rejection, not a silent drop and not an accept queue that
             starves the connections already served *)
          count Metrics.Conn_rejected;
          logf "conn refused: %d connections open (cap %d)" open_conns
            max_conns;
          kill c
            (Error.Connection_limit { max_conns = min open_conns max_conns });
          close_locked c
        end
        else begin
          count Metrics.Conn_accepted;
          logf "conn %d: accepted" c.id;
          conns := c :: !conns
        end
  in
  let read_conn c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
        if c.partial_since <> None then begin
          (* peer died mid-frame: the reset/torn-close fault class *)
          count Metrics.Dirty_close;
          logf "conn %d: EOF inside a frame" c.id
        end
        else logf "conn %d: EOF" c.id;
        c.closing <- true
    | n ->
        c.last_activity <- Unix.gettimeofday ();
        (match c.front with
        | Wire_in (d, _) -> Wire.feed d buf n
        | Http_in (r, _) -> Http.feed r buf n);
        decode c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
        count Metrics.Read_reset;
        logf "conn %d: read failed: %s" c.id (Unix.error_message err);
        c.closing <- true
  in
  (* per-tick sweep: a partial frame older than the read deadline, or a
     connection with nothing buffered, nothing owed and no traffic for
     the idle timeout, is killed — only that connection; the select
     tick bounds the sweep latency *)
  let sweep_timeouts () =
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        if not c.closing then begin
          (match c.partial_since with
          | Some t0
            when read_deadline_ms > 0.
                 && (now -. t0) *. 1000. > read_deadline_ms ->
              count Metrics.Read_timeout;
              logf "conn %d: read deadline (%.0f ms) on a partial frame" c.id
                read_deadline_ms;
              kill c
                (Error.Bad_request
                   (Printf.sprintf
                      "incomplete frame after %.0f ms read deadline"
                      read_deadline_ms))
          | _ -> ());
          if
            (not c.closing)
            && idle_timeout_ms > 0.
            && c.in_flight = 0 && c.partial_since = None
            && (now -. c.last_activity) *. 1000. > idle_timeout_ms
          then begin
            count Metrics.Idle_reaped;
            logf "conn %d: idle for %.0f ms, reaping" c.id idle_timeout_ms;
            c.closing <- true
          end
        end)
      !conns
  in
  let reap () =
    conns :=
      List.filter
        (fun c ->
          if c.closing then begin
            Mutex.lock c.wmutex;
            if c.in_flight = 0 then close_locked c;
            let dead = c.closed in
            Mutex.unlock c.wmutex;
            if dead then begin
              count Metrics.Conn_closed;
              logf "conn %d: closed" c.id
            end;
            not dead
          end
          else begin
            (* an HTTP request that arrived while a response was owed *)
            (match c.front with
            | Http_in (r, _)
              when c.in_flight = 0 && c.partial_since = None
                   && Http.buffered r > 0 ->
                decode c
            | _ -> ());
            true
          end)
        !conns
  in
  let teardown () =
    List.iter (fun (lfd, _, _) -> try Unix.close lfd with _ -> ()) listeners;
    drain ();
    List.iter
      (fun c ->
        Mutex.lock c.wmutex;
        close_locked c;
        Mutex.unlock c.wmutex)
      !conns;
    List.iter (fun (_, addr, _) -> Addr.cleanup addr) listeners
  in
  Fun.protect ~finally:teardown (fun () ->
      while not (stop ()) do
        (* a handler earlier in the same turn may have closed a
           connection, so each read re-checks it *)
        let watched =
          (if Unix.gettimeofday () >= !accept_paused_until then
             List.map (fun (lfd, _, door) -> (lfd, fun () -> accept lfd door))
               listeners
           else [])
          @ List.filter_map
              (fun c ->
                if c.closing then None
                else Some (c.fd, fun () -> if not c.closing then read_conn c))
              !conns
          @ watch ()
        in
        (match Unix.select (List.map fst watched) [] [] tick_s with
        | readable, _, _ ->
            List.iter (fun fd -> (List.assoc fd watched) ()) readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        sweep_timeouts ();
        tick ();
        reap ()
      done;
      logf "shutting down")
