(* The mrsc scale-out gateway.

   One front-end process fans requests out over N crnserved worker
   shards. Routing is a consistent-hash ring ({!Ring}) keyed on the
   request's compiled-model identity (the {!Crn.Equiv.cache_key} digest
   of the network's binding, plus the rate environment), the digest the
   shards' model caches use, so a hot compiled model lives in exactly one
   shard's Model_cache and a repeated source is never re-synthesized
   anywhere in the fleet. The gateway speaks both framings: the
   length-prefixed wire protocol and HTTP/1.1 (POST /api, plus /health
   and a Prometheus-text /metrics); shard-side it speaks only the wire
   protocol, relaying response frames byte-for-byte — which is what
   keeps gateway responses byte-identical to direct daemon responses.

   Concurrency model: the connection core ({!Conn_loop}) multiplexes
   client connections and, through its watch hook, in-flight shard
   exchanges on one select loop; no worker pool — the
   gateway only routes, relays and synthesizes routing keys (memoized).
   Each in-flight request owns a dedicated shard connection (the wire
   protocol carries no request ids, so pairing is by connection), drawn
   from a per-shard idle pool; the checked-out count doubles as the
   per-shard queue depth for admission control, answered with the same
   structured [overloaded] reply the daemon uses. A shard that dies
   mid-exchange yields a structured retryable [shard_failed] reply,
   never a hang; spawned shards are monitored and respawned with the
   client library's jittered exponential backoff. *)

type backend =
  | Spawn of {
      exe : string;  (* crnserved binary *)
      count : int;
      dir : string;  (* runtime dir for the shard sockets *)
      jobs : int option;  (* per-shard worker domains *)
      queue_bound : int option;
      cache_capacity : int option;
      state_dir : string option;  (* per-shard subdir <dir>/shard-<i>-state *)
      extra_args : string list;
    }
  | Attach of Addr.t list  (* pre-existing daemons (tests, manual fleets) *)

type config = {
  wire : Addr.t option;
  http : Addr.t option;
  backend : backend;
  replicas : int;
  affinity : bool;
      (* false = route uniformly at random: the no-affinity baseline
         the bench uses to measure what the ring buys *)
  max_inflight : int;  (* per-shard admission bound *)
  route_memo : int;  (* source -> routing-key memo capacity *)
  max_frame : int;
  max_conns : int;
  shard_deadline_ms : float;  (* stats/metrics fan-out read deadline *)
  boot_timeout_ms : float;  (* wait for spawned shards before listening *)
  log : bool;
  seed : int64;
}

let default_config backend =
  {
    wire = None;
    http = None;
    backend;
    replicas = 128;
    affinity = true;
    max_inflight = 64;
    route_memo = 512;
    max_frame = 64 * 1024 * 1024;
    max_conns = 1024;
    shard_deadline_ms = 2_000.;
    boot_timeout_ms = 10_000.;
    log = false;
    seed = 1L;
  }

(* ------------------------------------------------------------- plumbing *)

type shard = {
  sid : int;
  saddr : Addr.t;
  mutable pid : int option;  (* Spawn backend only *)
  mutable idle : Unix.file_descr list;
  mutable inflight : int;
  mutable up : bool;
  mutable fails : int;  (* consecutive connect/exchange failures *)
  mutable respawn_at : float;
  mutable routed : int;
  mutable failed : int;
}

type exchange = {
  x_shard : shard;
  xfd : Unix.file_descr;
  xdec : Wire.decoder;
  x_client : Conn_loop.conn;
  x_stream : bool;
  x_op : string;
  mutable http_started : bool;  (* chunked response head written *)
  mutable x_done : bool;
}

type t = {
  cfg : config;
  shards : shard array;
  ring : Ring.t;
  rng : Numeric.Rng.t;
  memo : (string, string) Hashtbl.t;
  memo_order : string Queue.t;  (* FIFO eviction; capacity route_memo *)
  mutable exchanges : exchange list;
  started_at : float;
  (* gateway-level counters, surfaced by stats and /metrics; the
     connection fault classes are counted by the core in conn_metrics *)
  conn_metrics : Metrics.t;
  by_op : (string, int) Hashtbl.t;
  mutable requests : int;
  mutable wire_requests : int;
  mutable http_requests : int;
  mutable overloaded : int;
  mutable shard_failures : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let logf gw fmt =
  if gw.cfg.log then Printf.eprintf ("crnsgate: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ------------------------------------------------------- client replies *)

(* a locally produced response in the daemon's own envelope ([done_]
   marks the final frame of a refused stream) *)
let local_envelope ?(done_ = false) ~arrival ~op outcome =
  let metrics = Conn_loop.quick_metrics ~arrival () in
  Json.to_string
    (match outcome with
    | Ok result -> Conn_loop.response_ok ~done_ ~op ~result ~metrics ()
    | Error error -> Conn_loop.response_error ~done_ ~op ~error ~metrics ())

let reply_local c ?done_ ~arrival ~op outcome =
  Conn_loop.reply c (local_envelope ?done_ ~arrival ~op outcome)

(* --------------------------------------------------------- shard conns *)

let drop_idle s =
  List.iter (fun fd -> try Unix.close fd with _ -> ()) s.idle;
  s.idle <- []

let note_shard_trouble gw s =
  s.up <- false;
  s.fails <- s.fails + 1;
  drop_idle s;
  gw.shard_failures <- gw.shard_failures + 1;
  logf gw "shard %d: trouble (consecutive failures %d)" s.sid s.fails

(* an idle pooled connection that became readable can only mean EOF (a
   healthy idle daemon sends nothing unprompted) — or stale bytes that
   would desync the next exchange; both mean discard *)
let idle_fd_ok fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let rec checkout gw s =
  match s.idle with
  | fd :: rest ->
      s.idle <- rest;
      if idle_fd_ok fd then Some fd
      else begin
        (try Unix.close fd with _ -> ());
        checkout gw s
      end
  | [] -> (
      match Addr.connect s.saddr with
      | fd ->
          s.up <- true;
          s.fails <- 0;
          Some fd
      | exception _ ->
          s.up <- false;
          s.fails <- s.fails + 1;
          None)

let checkin s fd = s.idle <- fd :: s.idle

(* ---------------------------------------------------------- routing key *)

(* Runs the daemon's own request decoding just far enough to name the
   compiled model a request will use: build the network (catalog
   synthesis or a parse of the inline text) and digest its binding
   ({!Crn.Equiv.cache_key}, one pass, no colour refinement). Both run on
   the event loop, once per distinct source: the memo keeps the event
   loop from re-parsing a large repeated text, and its hit and miss
   counters show how many distinct sources the fleet sees. Sources that
   fail to build still get a deterministic key (the raw spec) so their
   structured error comes from a consistent shard. *)

let memo_put gw key value =
  if Hashtbl.length gw.memo >= gw.cfg.route_memo then begin
    match Queue.take_opt gw.memo_order with
    | Some oldest -> Hashtbl.remove gw.memo oldest
    | None -> ()
  end;
  Hashtbl.replace gw.memo key value;
  Queue.add key gw.memo_order

let env_tag req =
  match Option.bind (Json.member "ratio" req) Json.to_float with
  | Some r -> Printf.sprintf "%.17g" r
  | None -> "default"

let routing_key gw ~payload req =
  match Server.network_source req with
  | exception Error.Rejected _ ->
      (* unroutable-by-model requests still route deterministically *)
      "payload:" ^ payload
  | spec_str, build ->
      (* the memo maps the source alone to its binding digest — the
         rate environment only scales rates, so the same network at a
         new ratio reuses the memoized build and only the routing tag
         changes (mirroring the shards' cache_key+env model keying) *)
      let base =
        match Hashtbl.find_opt gw.memo spec_str with
        | Some key ->
            gw.memo_hits <- gw.memo_hits + 1;
            key
        | None ->
            gw.memo_misses <- gw.memo_misses + 1;
            let key =
              match build () with
              | net -> Crn.Equiv.cache_key net
              | exception _ -> "unbuildable:" ^ spec_str
            in
            memo_put gw spec_str key;
            key
      in
      base ^ "@" ^ env_tag req

let shard_order gw ~key =
  if gw.cfg.affinity then Ring.route_order gw.ring key
  else begin
    (* uniform random baseline: a random owner, the rest as failovers *)
    let ids = Array.map (fun s -> s.sid) gw.shards in
    let n = Array.length ids in
    let k = Numeric.Rng.int gw.rng n in
    let tmp = ids.(0) in
    ids.(0) <- ids.(k);
    ids.(k) <- tmp;
    Array.to_list ids
  end

(* ----------------------------------------------------------- exchanges *)

(* the exchange's last frame to its client (mid-stream, a done frame
   that terminates the chunked body) *)
let end_exchange x final =
  x.x_done <- true;
  let c = x.x_client in
  if x.http_started then
    Conn_loop.send_raw c (Http.chunk final ^ Http.last_chunk)
  else Conn_loop.reply c final;
  x.x_shard.inflight <- x.x_shard.inflight - 1;
  Conn_loop.release c

let fail_exchange gw x =
  if not x.x_done then begin
    end_exchange x
      (local_envelope ~done_:x.x_stream ~arrival:(Unix.gettimeofday ())
         ~op:x.x_op
         (Error (Error.Shard_failed { shard = x.x_shard.sid })));
    (try Unix.close x.xfd with _ -> ());
    x.x_shard.failed <- x.x_shard.failed + 1;
    note_shard_trouble gw x.x_shard
  end

let finish_exchange x ~final =
  end_exchange x final;
  (* the shard connection is reusable only if the response stream ended
     exactly on a frame boundary *)
  if Wire.buffered x.xdec = 0 then checkin x.x_shard x.xfd
  else try Unix.close x.xfd with _ -> ()

let relay_frame x payload =
  let c = x.x_client in
  if Conn_loop.http c then begin
    if not x.http_started then begin
      x.http_started <- true;
      Conn_loop.send_raw c
        (Http.chunked_head ~status:200 ~content_type:"application/json" ())
    end;
    Conn_loop.send_raw c (Http.chunk payload)
  end
  else Conn_loop.send_frame c payload

let read_exchange gw buf x =
  match Unix.read x.xfd buf 0 (Bytes.length buf) with
  | 0 -> fail_exchange gw x
  | n -> (
      Wire.feed x.xdec buf n;
      try
        let rec drain () =
          if not x.x_done then
            match Wire.next_frame x.xdec with
            | None -> ()
            | Some payload ->
                if
                  x.x_stream
                  && not (String.starts_with ~prefix:"{\"done\":" payload)
                then begin
                  relay_frame x payload;
                  drain ()
                end
                else finish_exchange x ~final:payload
        in
        drain ()
      with Wire.Framing_error _ | Wire.Oversized_frame _ ->
        fail_exchange gw x)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> fail_exchange gw x

(* route, admit, and forward one compute request; replies locally when
   the fleet refuses or cannot take it *)
let forward gw c ~arrival ~op ~stream ~payload req =
  let key = routing_key gw ~payload req in
  (* structured and retryable, the shard not marked down *)
  let overloaded () =
    gw.overloaded <- gw.overloaded + 1;
    reply_local c ~done_:stream ~arrival ~op
      (Error (Error.Overloaded { queue_bound = gw.cfg.max_inflight }))
  in
  let rec go = function
    | [] ->
        (* every shard connect failed: transient fleet-wide trouble *)
        let preferred =
          match shard_order gw ~key with s :: _ -> s | [] -> -1
        in
        gw.shard_failures <- gw.shard_failures + 1;
        reply_local c ~done_:stream ~arrival ~op
          (Error (Error.Shard_failed { shard = preferred }))
    | sid :: rest -> (
        let s = gw.shards.(sid) in
        if s.inflight >= gw.cfg.max_inflight then
          (* admission control on the owner (no spill: spilling would
             re-compile the hot model on a neighbour, the exact cost the
             ring exists to avoid) *)
          overloaded ()
        else
          match checkout gw s with
          | None -> go rest
          | Some fd when not (Conn_loop.selectable fd) ->
              (* an exchange the loop could not watch *)
              (try Unix.close fd with _ -> ());
              overloaded ()
          | Some fd -> (
              match Wire.write_frame fd payload with
              | () ->
                  s.inflight <- s.inflight + 1;
                  s.routed <- s.routed + 1;
                  Conn_loop.hold c;
                  gw.exchanges <-
                    {
                      x_shard = s;
                      xfd = fd;
                      xdec = Wire.decoder ~max_frame:gw.cfg.max_frame ();
                      x_client = c;
                      x_stream = stream;
                      x_op = op;
                      http_started = false;
                      x_done = false;
                    }
                    :: gw.exchanges
              | exception (Unix.Unix_error _ | Wire.Framing_error _) ->
                  (try Unix.close fd with _ -> ());
                  note_shard_trouble gw s;
                  go rest))
  in
  go (shard_order gw ~key)

(* ------------------------------------------------- stats and /metrics *)

(* blocking single-frame call to one shard with a read deadline; used
   by the stats/metrics fan-out (small fleets, bounded wait) *)
let shard_call gw s req_json =
  match checkout gw s with
  | None -> None
  | Some fd -> (
      let give_up () =
        (try Unix.close fd with _ -> ());
        note_shard_trouble gw s;
        None
      in
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO
          (gw.cfg.shard_deadline_ms /. 1000.);
        Wire.write_frame fd (Json.to_string req_json);
        match Wire.read_frame fd with
        | Some payload ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.;
            checkin s fd;
            Some (Json.of_string payload)
        | None -> give_up ()
      with _ -> give_up ())

let shard_json gw s =
  Json.Obj
    [
      ("shard", Json.int s.sid);
      ("addr", Json.str (Addr.to_string s.saddr));
      ("up", Json.Bool s.up);
      ( "pid",
        match s.pid with Some p -> Json.int p | None -> Json.Null );
      ("inflight", Json.int s.inflight);
      ("routed", Json.int s.routed);
      ("failed", Json.int s.failed);
      ("consecutive_failures", Json.int s.fails);
      ("affinity", Json.Bool gw.cfg.affinity);
      ("max_inflight", Json.int gw.cfg.max_inflight);
    ]

let gateway_json gw =
  Json.Obj
    ([
      ("uptime_s", Json.num (Unix.gettimeofday () -. gw.started_at));
      ("requests", Json.int gw.requests);
      ("wire_requests", Json.int gw.wire_requests);
      ("http_requests", Json.int gw.http_requests);
      ("by_op", Metrics.table_json gw.by_op);
      ("overloaded", Json.int gw.overloaded);
      ("shard_failures", Json.int gw.shard_failures);
      ("route_memo_hits", Json.int gw.memo_hits);
      ("route_memo_misses", Json.int gw.memo_misses);
      ("affinity", Json.Bool gw.cfg.affinity);
      ("ring_replicas", Json.int (Ring.replicas gw.ring));
      ( "shards",
        Json.List (Array.to_list (Array.map (shard_json gw) gw.shards)) );
    ]
    @ List.map
        (fun (k, n) -> (k, Json.int n))
        (Metrics.conn_counters gw.conn_metrics))

let stats_req = Json.Obj [ ("op", Json.str "stats") ]

let num_field j key =
  Option.value ~default:0.
    (Option.bind (Json.member key j) Json.to_float)

(* fleet-wide aggregate: per-shard stats results summed, the lifetime
   work table included *)
let fleet_json shard_stats =
  let sum key =
    List.fold_left
      (fun acc (_, st) ->
        match st with Some j -> acc +. num_field j key | None -> acc)
      0. shard_stats
  in
  let work = Hashtbl.create 16 in
  List.iter
    (fun (_, st) ->
      match Option.bind st (Json.member "work") with
      | Some (Json.Obj fields) ->
          List.iter
            (fun (k, v) ->
              match Json.to_float v with
              | Some f ->
                  Hashtbl.replace work k
                    (f +. Option.value ~default:0. (Hashtbl.find_opt work k))
              | None -> ())
            fields
      | _ -> ())
    shard_stats;
  Json.Obj
    [
      ("requests", Json.num (sum "requests"));
      ("ok", Json.num (sum "ok"));
      ("errors", Json.num (sum "errors"));
      ("cache_hits", Json.num (sum "cache_hits"));
      ("cache_misses", Json.num (sum "cache_misses"));
      ("cache_entries", Json.num (sum "cache_entries"));
      ("job_exceptions", Json.num (sum "job_exceptions"));
      ("validate_ok", Json.num (sum "validate_ok"));
      ("validate_reject", Json.num (sum "validate_reject"));
      ("warm_loaded", Json.num (sum "warm_loaded"));
      ("warm_skipped_corrupt", Json.num (sum "warm_skipped_corrupt"));
      ("warm_skipped_version", Json.num (sum "warm_skipped_version"));
      ("snapshot_writes", Json.num (sum "snapshot_writes"));
      ( "work",
        Json.Obj
          (Hashtbl.fold (fun k v acc -> (k, Json.num v) :: acc) work []
          |> List.sort compare) );
    ]

let collect_shard_stats gw =
  Array.to_list
    (Array.map
       (fun s ->
         ( s,
           Option.bind (shard_call gw s stats_req) (fun j ->
               Json.member "result" j) ))
       gw.shards)

let handle_stats gw =
  let shard_stats = collect_shard_stats gw in
  Json.Obj
    [
      ("gateway", gateway_json gw);
      ( "shards",
        Json.List
          (List.map
             (fun (s, st) ->
               Json.Obj
                 [
                   ("shard", Json.int s.sid);
                   ("stats", Option.value ~default:Json.Null st);
                 ])
             shard_stats) );
      ("fleet", fleet_json shard_stats);
    ]

(* Prometheus text exposition: gateway counters, per-shard liveness and
   routing counters, and every numeric field of each shard's stats —
   per-op, per-error-code and per-fault-class counters plus the
   lifetime work table — labeled by shard. *)
let prometheus gw =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# TYPE mrsc_gateway_uptime_seconds gauge";
  line "mrsc_gateway_uptime_seconds %.3f"
    (Unix.gettimeofday () -. gw.started_at);
  line "# TYPE mrsc_gateway_requests_total counter";
  line "mrsc_gateway_requests_total %d" gw.requests;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) gw.by_op []
  |> List.sort compare
  |> List.iter (fun (op, n) ->
         line "mrsc_gateway_requests_total{op=%S} %d" op n);
  line "# TYPE mrsc_gateway_overloaded_total counter";
  line "mrsc_gateway_overloaded_total %d" gw.overloaded;
  line "# TYPE mrsc_gateway_shard_failures_total counter";
  line "mrsc_gateway_shard_failures_total %d" gw.shard_failures;
  line "# TYPE mrsc_gateway_route_memo_hits_total counter";
  line "mrsc_gateway_route_memo_hits_total %d" gw.memo_hits;
  line "mrsc_gateway_route_memo_misses_total %d" gw.memo_misses;
  List.iter
    (fun (k, n) ->
      line "# TYPE mrsc_gateway_%s counter" k;
      line "mrsc_gateway_%s %d" k n)
    (Metrics.conn_counters gw.conn_metrics);
  let shard_stats = collect_shard_stats gw in
  List.iter
    (fun ((s : shard), st) ->
      let l name value = line "%s{shard=\"%d\"} %s" name s.sid value in
      l "mrsc_shard_up" (if s.up then "1" else "0");
      l "mrsc_shard_inflight" (string_of_int s.inflight);
      l "mrsc_shard_routed_total" (string_of_int s.routed);
      l "mrsc_shard_failed_total" (string_of_int s.failed);
      match st with
      | None -> ()
      | Some j -> (
          (match j with
          | Json.Obj fields ->
              List.iter
                (fun (k, v) ->
                  match (v, Json.to_float v) with
                  | Json.Bool _, _ | _, None -> ()
                  | _, Some f -> l ("mrsc_shard_" ^ k) (Printf.sprintf "%g" f))
                fields
          | _ -> ());
          let labeled field metric label_name =
            match Json.member field j with
            | Some (Json.Obj entries) ->
                List.iter
                  (fun (k, v) ->
                    match Json.to_float v with
                    | Some f ->
                        line "%s{shard=\"%d\",%s=%S} %g" metric s.sid
                          label_name k f
                    | None -> ())
                  entries
            | _ -> ()
          in
          labeled "by_op" "mrsc_shard_requests_by_op_total" "op";
          labeled "by_error" "mrsc_shard_errors_by_code_total" "code";
          labeled "work" "mrsc_shard_work_total" "counter"))
    shard_stats;
  Buffer.contents b

let health gw =
  let up = Array.fold_left (fun n s -> if s.up then n + 1 else n) 0 gw.shards in
  Http.response
    ~status:(if up > 0 then 200 else 503)
    ~content_type:"application/json"
    (Json.to_string
       (Json.Obj
          [
            ("status", Json.str (if up > 0 then "ok" else "degraded"));
            ("shards", Json.int (Array.length gw.shards));
            ("up", Json.int up);
            ("protocol", Json.int Server.protocol_version);
          ]))

(* ------------------------------------------------------------ requests *)

let handle_request gw c payload =
  let arrival = Unix.gettimeofday () in
  gw.requests <- gw.requests + 1;
  if Conn_loop.http c then gw.http_requests <- gw.http_requests + 1
  else gw.wire_requests <- gw.wire_requests + 1;
  match Server.parse_request payload with
  | Error err ->
      Metrics.bump gw.by_op "?";
      reply_local c ~arrival ~op:"?" (Error err)
  | Ok (req, op) -> (
      Metrics.bump gw.by_op op;
      match op with
      | "ping" ->
          Conn_loop.reply c (Json.to_string (Server.ping ~arrival))
      | "stats" -> reply_local c ~arrival ~op:"stats" (Ok (handle_stats gw))
      | op -> forward gw c ~arrival ~op ~stream:(op = "trace") ~payload req)

let http_request gw c (r : Http.request) =
  match (r.Http.meth, r.Http.path) with
  | "POST", ("/api" | "/") -> handle_request gw c r.Http.body
  | "GET", "/health" -> Conn_loop.send_raw c (health gw)
  | "GET", "/metrics" ->
      Conn_loop.send_raw c
        (Http.response ~status:200 ~content_type:"text/plain; version=0.0.4"
           (prometheus gw))
  | meth, path ->
      Conn_loop.send_raw c
        (Http.response ~status:404 ~content_type:"application/json"
           (local_envelope ~arrival:(Unix.gettimeofday ()) ~op:"?"
              (Error
                 (Error.Bad_request
                    (Printf.sprintf "no route for %s %s" meth path)))))

(* ------------------------------------------------------ shard lifecycle *)

let shard_sock dir sid = Filename.concat dir (Printf.sprintf "shard-%d.sock" sid)

let spawn_shard gw s =
  match gw.cfg.backend with
  | Attach _ -> ()
  | Spawn { exe; jobs; queue_bound; cache_capacity; state_dir; extra_args; _ }
    ->
      let path =
        match s.saddr with Addr.Unix_sock p -> p | a -> Addr.to_string a
      in
      (try Unix.unlink path with _ -> ());
      let opt flag = function
        | Some v -> [ flag; string_of_int v ]
        | None -> []
      in
      (* per-shard state dir so a respawned shard rejoins with the warm
         set it had compiled before dying *)
      let state_args =
        match state_dir with
        | None -> []
        | Some root ->
            [
              "--state-dir";
              Filename.concat root (Printf.sprintf "shard-%d-state" s.sid);
            ]
      in
      let argv =
        [ exe; "--listen"; path ]
        @ opt "--jobs" jobs
        @ opt "--queue-bound" queue_bound
        @ opt "--cache-capacity" cache_capacity
        @ state_args
        @ extra_args
      in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let pid =
        Unix.create_process exe (Array.of_list argv) devnull Unix.stdout
          Unix.stderr
      in
      (try Unix.close devnull with _ -> ());
      s.pid <- Some pid;
      s.up <- false;
      logf gw "shard %d: spawned pid %d on %s" s.sid pid path

(* jittered exponential ladder for respawns — the client library's
   full-jitter backoff, scaled for process restarts (base 100 ms,
   capped at 5 s) *)
let respawn_backoff gw fails =
  Numeric.Rng.float gw.rng
  *. Float.min 5000. (100. *. (2. ** float_of_int fails))
  /. 1000.

let tick gw =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun s ->
      match s.pid with
      | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, _status ->
              logf gw "shard %d: pid %d exited" s.sid pid;
              s.pid <- None;
              s.up <- false;
              drop_idle s;
              s.fails <- s.fails + 1;
              s.respawn_at <- now +. respawn_backoff gw s.fails
          | exception Unix.Unix_error _ ->
              s.pid <- None;
              s.up <- false)
      | None -> (
          match gw.cfg.backend with
          | Spawn _ when now >= s.respawn_at -> spawn_shard gw s
          | _ -> ()))
    gw.shards

(* before opening the front door, probe every shard and pool the
   connection: wait (bounded) until each spawned shard accepts — so the
   first client request doesn't race the fleet's boot — and probe
   attached daemons once, without waiting, so that [up] (health,
   metrics) counts a live one before any request is routed to it *)
let wait_for_shards gw =
  let deadline =
    match gw.cfg.backend with
    | Spawn _ -> Unix.gettimeofday () +. (gw.cfg.boot_timeout_ms /. 1000.)
    | Attach _ -> neg_infinity
  in
  let pending = ref (Array.to_list gw.shards) in
  let probe () =
    pending :=
      List.filter
        (fun s ->
          match Addr.connect s.saddr with
          | fd ->
              s.up <- true;
              s.fails <- 0;
              checkin s fd;
              false
          | exception _ -> true)
        !pending
  in
  probe ();
  while !pending <> [] && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05;
    probe ()
  done;
  List.iter (fun s -> logf gw "shard %d: not up after boot wait" s.sid) !pending

let stop_shards gw =
  match gw.cfg.backend with
  | Attach _ -> ()
  | Spawn _ ->
      let live =
        Array.to_list gw.shards
        |> List.filter_map (fun s ->
               match s.pid with
               | Some pid ->
                   (try Unix.kill pid Sys.sigterm with _ -> ());
                   Some (s, pid)
               | None -> None)
      in
      let deadline = Unix.gettimeofday () +. 5. in
      let rec drain = function
        | [] -> ()
        | (s, pid) :: rest -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
                if Unix.gettimeofday () > deadline then begin
                  (try Unix.kill pid Sys.sigkill with _ -> ());
                  ignore (try Unix.waitpid [] pid with _ -> (0, Unix.WEXITED 0));
                  drain rest
                end
                else begin
                  Unix.sleepf 0.05;
                  drain ((s, pid) :: rest)
                end
            | _ ->
                s.pid <- None;
                drain rest
            | exception Unix.Unix_error _ -> drain rest)
      in
      drain live;
      Array.iter (fun s -> Addr.cleanup s.saddr) gw.shards

(* ------------------------------------------------------------ main loop *)

let make_shards cfg =
  let addrs =
    match cfg.backend with
    | Attach addrs -> addrs
    | Spawn { count; dir; _ } ->
        List.init count (fun i -> Addr.Unix_sock (shard_sock dir i))
  in
  Array.of_list
    (List.mapi
       (fun sid saddr ->
         {
           sid;
           saddr;
           pid = None;
           idle = [];
           inflight = 0;
           up = false;
           fails = 0;
           respawn_at = 0.;
           routed = 0;
           failed = 0;
         })
       addrs)

let run ?stop cfg =
  if cfg.wire = None && cfg.http = None then
    invalid_arg "Gateway.run: no listener configured";
  let shards = make_shards cfg in
  if Array.length shards = 0 then invalid_arg "Gateway.run: no shards";
  let gw =
    {
      cfg;
      shards;
      ring =
        Ring.create ~replicas:cfg.replicas
          (Array.to_list (Array.map (fun s -> s.sid) shards));
      rng = Numeric.Rng.create cfg.seed;
      memo = Hashtbl.create 256;
      memo_order = Queue.create ();
      exchanges = [];
      started_at = Unix.gettimeofday ();
      conn_metrics = Metrics.create ();
      by_op = Hashtbl.create 16;
      requests = 0;
      wire_requests = 0;
      http_requests = 0;
      overloaded = 0;
      shard_failures = 0;
      memo_hits = 0;
      memo_misses = 0;
    }
  in
  Array.iter (fun s -> spawn_shard gw s) gw.shards;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun x -> if not x.x_done then try Unix.close x.xfd with _ -> ())
        gw.exchanges;
      Array.iter drop_idle gw.shards;
      stop_shards gw)
    (fun () ->
      wait_for_shards gw;
      let listeners =
        List.filter_map
          (fun (addr, door) ->
            Option.map (fun a -> (Addr.listen a, a, door)) addr)
          [
            (cfg.wire, Conn_loop.Frames (handle_request gw));
            (cfg.http, Conn_loop.Http_requests (http_request gw));
          ]
      in
      logf gw "listening (%d shards, affinity %b)" (Array.length gw.shards)
        cfg.affinity;
      let buf = Bytes.create 65536 in
      Conn_loop.run ?stop
        ?log:(if cfg.log then Some "crnsgate" else None)
        ~metrics:gw.conn_metrics
        ~watch:(fun () ->
          gw.exchanges <- List.filter (fun x -> not x.x_done) gw.exchanges;
          List.map (fun x -> (x.xfd, fun () -> read_exchange gw buf x))
            gw.exchanges)
        ~tick:(fun () -> tick gw)
        ~max_frame:cfg.max_frame ~max_conns:cfg.max_conns listeners)
