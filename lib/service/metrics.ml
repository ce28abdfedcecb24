(* Per-request metrics blocks and since-start aggregate counters.

   Every response the daemon writes carries a [request] block (queue
   wait, cache outcome, compile/run wall time, engine-specific work
   counters); the aggregate side is a mutex-protected set of counters
   the [stats] request reads. *)

type cache_outcome = Hit | Miss | Not_applicable

let cache_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Not_applicable -> "n/a"

type request = {
  queue_wait_ms : float;
  cache : cache_outcome;
  compile_ms : float;  (** 0 on a cache hit *)
  run_ms : float;
  total_ms : float;  (** arrival to response, excluding socket transfer *)
  extra : (string * Json.t) list;
      (** engine work counters: events, steps, runs, points... *)
}

let request_json m =
  Json.Obj
    ([
       ("queue_wait_ms", Json.num m.queue_wait_ms);
       ("cache", Json.str (cache_string m.cache));
       ("compile_ms", Json.num m.compile_ms);
       ("run_ms", Json.num m.run_ms);
       ("total_ms", Json.num m.total_ms);
     ]
    @ m.extra)

(* ------------------------------------------------------------ aggregate *)

type t = {
  mutex : Mutex.t;
  started_at : float;
  by_op : (string, int) Hashtbl.t;
  by_error : (string, int) Hashtbl.t;
  (* engine work counters summed from the per-request [extra] blocks
     (events, leaps, ode_steps…) — a daemon-lifetime view of how much
     simulation work each engine has done, per counter name *)
  work : (string, float) Hashtbl.t;
  mutable requests : int;
  mutable ok : int;
  mutable errors : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable queue_wait_ms_sum : float;
  mutable run_ms_sum : float;
  mutable run_ms_max : float;
  (* exceptions that escaped a pool job entirely (reported by
     Domain_pool.Bounded.set_on_uncaught) — zero in a healthy daemon,
     since run_job answers every failure with a structured error *)
  mutable job_exceptions : int;
  mutable last_job_error : string option;
  (* exact verification tier: certified vs rejected networks; validate
     runs inline on the event loop, so these also measure how much
     traffic never reached the worker pool *)
  mutable validate_ok : int;
  mutable validate_reject : int;
  (* connection-level fault counters: one per fault class the daemon
     degrades gracefully under, so the stats op shows exactly what a
     hostile or broken peer has been doing *)
  mutable conns_accepted : int;
  mutable conns_closed : int;
  mutable conns_rejected : int;  (* over the connection cap *)
  mutable frames_in : int;  (* complete frames decoded, however torn *)
  mutable framing_errors : int;  (* negative prefix, desynced stream *)
  mutable oversized_frames : int;  (* prefix above the max-frame limit *)
  mutable read_timeouts : int;  (* partial frame older than the deadline *)
  mutable idle_reaped : int;  (* quiet connection past the idle timeout *)
  mutable read_resets : int;  (* ECONNRESET (or kin) while reading *)
  mutable dirty_closes : int;  (* EOF with a partial frame buffered *)
  mutable accept_errors : int;  (* accept calls that failed (EMFILE...) *)
}

type conn_event =
  | Conn_accepted
  | Conn_closed
  | Conn_rejected
  | Frame_in
  | Framing_error
  | Oversized_frame
  | Read_timeout
  | Idle_reaped
  | Read_reset
  | Dirty_close
  | Accept_error

let create () =
  {
    mutex = Mutex.create ();
    started_at = Unix.gettimeofday ();
    by_op = Hashtbl.create 16;
    by_error = Hashtbl.create 16;
    work = Hashtbl.create 16;
    requests = 0;
    ok = 0;
    errors = 0;
    cache_hits = 0;
    cache_misses = 0;
    queue_wait_ms_sum = 0.;
    run_ms_sum = 0.;
    run_ms_max = 0.;
    job_exceptions = 0;
    last_job_error = None;
    validate_ok = 0;
    validate_reject = 0;
    conns_accepted = 0;
    conns_closed = 0;
    conns_rejected = 0;
    frames_in = 0;
    framing_errors = 0;
    oversized_frames = 0;
    read_timeouts = 0;
    idle_reaped = 0;
    read_resets = 0;
    dirty_closes = 0;
    accept_errors = 0;
  }

let record_conn agg event =
  Mutex.lock agg.mutex;
  (match event with
  | Conn_accepted -> agg.conns_accepted <- agg.conns_accepted + 1
  | Conn_closed -> agg.conns_closed <- agg.conns_closed + 1
  | Conn_rejected -> agg.conns_rejected <- agg.conns_rejected + 1
  | Frame_in -> agg.frames_in <- agg.frames_in + 1
  | Framing_error -> agg.framing_errors <- agg.framing_errors + 1
  | Oversized_frame -> agg.oversized_frames <- agg.oversized_frames + 1
  | Read_timeout -> agg.read_timeouts <- agg.read_timeouts + 1
  | Idle_reaped -> agg.idle_reaped <- agg.idle_reaped + 1
  | Read_reset -> agg.read_resets <- agg.read_resets + 1
  | Dirty_close -> agg.dirty_closes <- agg.dirty_closes + 1
  | Accept_error -> agg.accept_errors <- agg.accept_errors + 1);
  Mutex.unlock agg.mutex

let record_validate agg ~ok =
  Mutex.lock agg.mutex;
  if ok then agg.validate_ok <- agg.validate_ok + 1
  else agg.validate_reject <- agg.validate_reject + 1;
  Mutex.unlock agg.mutex

let record_job_exception agg e =
  let msg = Printexc.to_string e in
  Mutex.lock agg.mutex;
  agg.job_exceptions <- agg.job_exceptions + 1;
  agg.last_job_error <- Some msg;
  Mutex.unlock agg.mutex

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let record agg ~op ~error ~request:m =
  Mutex.lock agg.mutex;
  agg.requests <- agg.requests + 1;
  bump agg.by_op op;
  (match error with
  | None -> agg.ok <- agg.ok + 1
  | Some code ->
      agg.errors <- agg.errors + 1;
      bump agg.by_error code);
  (match m.cache with
  | Hit -> agg.cache_hits <- agg.cache_hits + 1
  | Miss -> agg.cache_misses <- agg.cache_misses + 1
  | Not_applicable -> ());
  agg.queue_wait_ms_sum <- agg.queue_wait_ms_sum +. m.queue_wait_ms;
  agg.run_ms_sum <- agg.run_ms_sum +. m.run_ms;
  if m.run_ms > agg.run_ms_max then agg.run_ms_max <- m.run_ms;
  List.iter
    (fun (key, v) ->
      match Json.to_float v with
      | Some f ->
          Hashtbl.replace agg.work key
            (f +. Option.value ~default:0. (Hashtbl.find_opt agg.work key))
      | None -> ())
    m.extra;
  Mutex.unlock agg.mutex

let table_json tbl =
  Json.Obj
    (Hashtbl.fold (fun k v acc -> (k, Json.int v) :: acc) tbl []
    |> List.sort compare)

let conn_counters agg =
  Mutex.lock agg.mutex;
  let counters =
    [
      ("conns_accepted", agg.conns_accepted);
      ("conns_closed", agg.conns_closed);
      ("conns_rejected", agg.conns_rejected);
      ("frames_in", agg.frames_in);
      ("framing_errors", agg.framing_errors);
      ("oversized_frames", agg.oversized_frames);
      ("read_timeouts", agg.read_timeouts);
      ("idle_reaped", agg.idle_reaped);
      ("read_resets", agg.read_resets);
      ("dirty_closes", agg.dirty_closes);
      ("accept_errors", agg.accept_errors);
    ]
  in
  Mutex.unlock agg.mutex;
  counters

let to_json agg =
  let conns = conn_counters agg in
  Mutex.lock agg.mutex;
  let j =
    Json.Obj
      ([
        ("uptime_s", Json.num (Unix.gettimeofday () -. agg.started_at));
        ("requests", Json.int agg.requests);
        ("ok", Json.int agg.ok);
        ("errors", Json.int agg.errors);
        ("by_op", table_json agg.by_op);
        ("by_error", table_json agg.by_error);
        ( "work",
          Json.Obj
            (Hashtbl.fold
               (fun k v acc -> (k, Json.num v) :: acc)
               agg.work []
            |> List.sort compare) );
        ("cache_hits", Json.int agg.cache_hits);
        ("cache_misses", Json.int agg.cache_misses);
        ("queue_wait_ms_sum", Json.num agg.queue_wait_ms_sum);
        ("run_ms_sum", Json.num agg.run_ms_sum);
        ("run_ms_max", Json.num agg.run_ms_max);
        ("job_exceptions", Json.int agg.job_exceptions);
        ("validate_ok", Json.int agg.validate_ok);
        ("validate_reject", Json.int agg.validate_reject);
        ( "last_job_error",
          match agg.last_job_error with
          | None -> Json.Null
          | Some msg -> Json.str msg );
      ]
      @ List.map (fun (k, n) -> (k, Json.int n)) conns)
  in
  Mutex.unlock agg.mutex;
  j
