(* The mrsc simulation server.

   Architecture: the connection core ({!Conn_loop}) slices frames out
   of client connections on the calling domain; complete requests
   become jobs on a bounded {!Numeric.Domain_pool.Bounded} queue served
   by persistent worker domains, and each worker writes its own
   response frames. Submission beyond the bound is answered immediately
   with a structured [overloaded] error (backpressure is explicit, the
   queue never grows without limit), and every compute job carries a
   wall-clock deadline threaded into the simulation kernels as a
   {!Numeric.Cancel} token — an expired run dies with a structured
   [deadline_exceeded] response while the worker survives for the next
   job.

   Compiled models are cached across requests ({!Model_cache}): a warm
   request skips synthesis, the model key and compilation. *)

type config = {
  address : Addr.t;
  jobs : int;
  queue_bound : int;
  cache_capacity : int;
  default_deadline_ms : float option;
  max_frame : int;
  read_deadline_ms : float;
  idle_timeout_ms : float;
  max_conns : int;
  log : bool;
  state_dir : string option;
      (* deadline-cancelled runs leave resumable checkpoints under
         <dir>/checkpoints; the directory is created at boot *)
}

let default_config address =
  {
    address;
    jobs = max 1 (Numeric.Domain_pool.default_jobs () - 1);
    queue_bound = 64;
    cache_capacity = 32;
    default_deadline_ms = None;
    max_frame = 8 * 1024 * 1024;
    read_deadline_ms = Conn_loop.default_read_deadline_ms;
    idle_timeout_ms = Conn_loop.default_idle_timeout_ms;
    max_conns = 256;
    log = false;
    state_dir = None;
  }

let protocol_version = 1

(* ---------------------------------------------------- request decoding *)

let get j key = Json.member key j
let get_str j key = Option.bind (get j key) Json.to_str
let get_float j key = Option.bind (get j key) Json.to_float
let get_int j key = Option.bind (get j key) Json.to_int
let bad msg = Error.reject (Error.Bad_request msg)

let network_spec req =
  match get req "network" with
  | None -> bad "missing \"network\""
  | Some n -> (
      match (get_str n "catalog", get_str n "text") with
      | Some name, None -> `Catalog name
      | None, Some text -> `Text text
      | _ -> bad "\"network\" must be {\"catalog\": name} or {\"text\": crn}")

let build_network = function
  | `Catalog name -> (
      match Designs.Catalog.find name with
      | Some entry -> entry.Designs.Catalog.build ()
      | None -> Error.reject (Error.Unknown_design name))
  | `Text text -> Crn.Parser.network_of_string text

let network_source req =
  match network_spec req with
  | `Catalog name as spec -> ("catalog:" ^ name, fun () -> build_network spec)
  | `Text text as spec -> ("text:" ^ text, fun () -> build_network spec)

let env_of req =
  match get_float req "ratio" with
  | None -> Crn.Rates.default_env
  | Some r when r > 0. -> Crn.Rates.env_with_ratio r
  | Some _ -> bad "\"ratio\" must be > 0"

let t1_of req =
  match get_float req "t1" with
  | None -> 50.
  | Some t when t > 0. -> t
  | Some _ -> bad "\"t1\" must be > 0"

let positive_int req key ~default =
  match get_int req key with
  | None -> default
  | Some n when n >= 1 -> n
  | Some _ -> bad (Printf.sprintf "%S must be >= 1" key)

let names_json net =
  Json.List
    (Array.to_list (Array.map Json.str (Crn.Network.species_names net)))

let vec_json v = Json.List (Array.to_list (Array.map Json.num v))

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, (Unix.gettimeofday () -. t0) *. 1000.)

(* ------------------------------------------------------------ jobs *)

(* What a compute job needs from whoever runs it: the daemon (its model
   cache, worker pool and state directory) or an in-process call (a
   direct compile, the process-wide pool, a --checkpoint file). *)
type host = {
  cache : Model_cache.t option;
  pool : Numeric.Domain_pool.Bounded.t option;
  save_checkpoint : (string -> string) option;
      (* persist an encoded checkpoint, return the resume token *)
}

type job = {
  host : host;
  req : Json.t;
  cancel : Numeric.Cancel.t;
  emit : Json.t -> unit;  (* stream frames, in order *)
  mutable checkpoint : Snapshot.sim_checkpoint option;
      (* a deadline-cancelled engine's loop-top state, persisted by
         [execute] so the deadline error can carry a resume token *)
}

type resolved = {
  model : Engines.model;
  cache_outcome : Metrics.cache_outcome;
  compile_ms : float;
}

(* The daemon looks the network up in its model cache; an in-process
   call compiles it straight from the built network, since a one-shot
   run has no cache to key. *)
let resolve host req ~env =
  let source, build = network_source req in
  match host.cache with
  | Some cache -> (
      let entry, outcome =
        Model_cache.find_or_compile cache
          ~source_key:(Model_cache.source_key ~spec:source ~env)
          ~env ~build
      in
      let model = entry.Model_cache.model in
      match outcome with
      | `Hit -> { model; cache_outcome = Metrics.Hit; compile_ms = 0. }
      | `Miss ->
          {
            model;
            cache_outcome = Metrics.Miss;
            compile_ms = entry.Model_cache.compile_ms;
          })
  | None ->
      let model, compile_ms =
        timed (fun () -> Engines.compile env (build ()))
      in
      { model; cache_outcome = Metrics.Miss; compile_ms }

(* Each compute handler returns (result payload, cache outcome,
   compile_ms, run_ms, extra work counters). *)
let with_model job ~env f =
  let m = resolve job.host job.req ~env in
  let result, run_ms, extra = f m in
  (result, m.cache_outcome, m.compile_ms, run_ms, extra)

(* the engine's loop-top state on a deadline, when the host can keep it *)
let on_cancel job (m : Engines.model) ~t1 (k : Engines.knobs) =
  Option.map
    (fun _ st ->
      job.checkpoint <-
        Some
          {
            Snapshot.sc_net = m.Engines.net;
            sc_env = m.Engines.env;
            sc_t1 = t1;
            sc_seed = k.Engines.seed;
            sc_params = Array.of_list k.Engines.params;
            sc_state = st;
          })
    job.host.save_checkpoint

(* ------------------------------------------------------------ handlers *)

(* the only op that refines colours: the fingerprint is computed here,
   on demand, never on a model lookup *)
let handle_parse job =
  let env = env_of job.req in
  with_model job ~env (fun { model = m; _ } ->
      let net = m.Engines.net in
      let result =
        Json.Obj
          [
            ("n_species", Json.int (Crn.Network.n_species net));
            ("n_reactions", Json.int (Crn.Network.n_reactions net));
            ("fingerprint", Json.str (Crn.Equiv.fingerprint net));
            ("cache_key", Json.str (Model_cache.key m.Engines.env net));
            ("canonical", Json.str (Crn.Network.to_string net));
            ("lint", Json.str (Crn.Validate.report net));
          ]
      in
      (result, 0., []))

(* the ode, ssa, tau and hybrid ops: one trajectory's final state *)
let handle_engine (e : Engines.entry) job =
  let env = env_of job.req and t1 = t1_of job.req in
  let k = e.Engines.knobs Engines.Run job.req in
  with_model job ~env (fun { model = m; _ } ->
      let o, run_ms =
        timed (fun () ->
            k.Engines.run ?on_cancel:(on_cancel job m ~t1 k) ~cancel:job.cancel
              ~t1 m)
      in
      let result =
        Json.Obj
          ([
             ("t1", Json.num t1);
             ("species", names_json m.Engines.net);
             ("final", vec_json o.Engines.final);
           ]
          @ o.Engines.fields)
      in
      (result, run_ms, o.Engines.counters))

let stochastic_engines =
  List.filter (fun e -> e.Engines.worker <> None) Engines.all

let handle_ensemble job =
  let req = job.req in
  let env = env_of req and t1 = t1_of req in
  let runs = Option.value ~default:20 (get_int req "runs") in
  if runs < 1 then bad "\"runs\" must be >= 1";
  let jobs = get_int req "jobs" in
  (match jobs with Some j when j < 1 -> bad "\"jobs\" must be >= 1" | _ -> ());
  let name = Option.value ~default:"ssa" (get_str req "engine") in
  let e, worker =
    match
      List.find_opt (fun e -> e.Engines.name = name) stochastic_engines
    with
    | Some ({ Engines.worker = Some w; _ } as e) -> (e, w)
    | _ ->
        bad
          (Printf.sprintf "unknown ensemble engine %S (%s)" name
             (String.concat ", "
                (List.map (fun e -> e.Engines.name) stochastic_engines)))
  in
  let k = e.Engines.knobs Engines.Ensemble req in
  with_model job ~env (fun { model = m; _ } ->
      (* fan the trajectories over the host's pool: on the daemon the
         request job occupying this worker participates as worker 0 and
         extra helpers are borrowed if idle (a saturated pool just means
         less parallelism, never deadlock). The compiled model is shared
         read-only; each worker domain gets one reusable arena. *)
      let finals, run_ms =
        timed (fun () ->
            Ssa.Ensemble.map_with ?pool:job.host.pool ?jobs ~seed:k.Engines.seed
              ~init_worker:(worker k ~cancel:job.cancel ~t1 m)
              ~runs
              (fun run _ s -> run s))
      in
      let n = Crn.Network.n_species m.Engines.net in
      let mean = Array.make n 0. and std = Array.make n 0. in
      for i = 0 to n - 1 do
        let xs = Array.map (fun f -> f.(i)) finals in
        mean.(i) <- Numeric.Stats.mean xs;
        std.(i) <- Numeric.Stats.stddev xs
      done;
      let result =
        Json.Obj
          [
            ("t1", Json.num t1);
            ("runs", Json.int runs);
            ("species", names_json m.Engines.net);
            ("mean", vec_json mean);
            ("std", vec_json std);
          ]
      in
      (result, run_ms, [ ("runs", Json.int runs) ]))

let handle_sweep job =
  let req = job.req in
  let t1 = t1_of req in
  let method_ = Engines.method_of (get req "method") in
  let jobs = get_int req "jobs" in
  let ratios =
    match Option.bind (get req "ratios") Json.to_list with
    | None | Some [] -> bad "missing \"ratios\""
    | Some xs ->
        Array.of_list
          (List.map
             (fun x ->
               match Json.to_float x with
               | Some r when r > 0. -> r
               | _ -> bad "\"ratios\" must be > 0")
             xs)
  in
  (* the sweep compiles one model per ratio point internally; the cache
     still saves synthesis of the network itself. Key the entry under
     the default env so every sweep over the same network shares it. *)
  let env = Crn.Rates.default_env in
  with_model job ~env (fun { model = m; _ } ->
      let net = m.Engines.net in
      let finals, run_ms =
        timed (fun () ->
            Ode.Sweep.final_states ?pool:job.host.pool ?jobs ~method_
              ~cancel:job.cancel ~t1 net ~ratios)
      in
      let result =
        Json.Obj
          [
            ("t1", Json.num t1);
            ("ratios", vec_json ratios);
            ("species", names_json net);
            ("finals", Json.List (Array.to_list (Array.map vec_json finals)));
          ]
      in
      (result, run_ms, [ ("points", Json.int (Array.length ratios)) ]))

let handle_dsd job =
  let env = env_of job.req in
  let c_max = get_float job.req "c_max" in
  with_model job ~env (fun { model = m; _ } ->
      let t, run_ms =
        timed (fun () -> Dsd.Translate.translate ?c_max m.Engines.net)
      in
      let compiled = t.Dsd.Translate.compiled in
      let result =
        Json.Obj
          [
            ("n_species", Json.int (Crn.Network.n_species compiled));
            ("n_reactions", Json.int (Crn.Network.n_reactions compiled));
            ( "n_fuel_species",
              Json.int (List.length t.Dsd.Translate.fuel_species) );
            ("c_max", Json.num t.Dsd.Translate.c_max);
            ("compiled", Json.str (Crn.Network.to_string compiled));
          ]
      in
      (result, run_ms, []))

(* ----------------------------------------------------- streamed traces *)

(* The trace op streams a simulation instead of buffering it: a header
   frame (species names), then sample-chunk frames as the engine
   produces them, then a final frame that is a normal response envelope
   with the ["done"] marker — so a client watches the run instead of
   holding the full trajectory in one reply, and a gateway relays frames
   as they pass without parsing more than the done prefix. The ODE
   integrator streams live; the stochastic engines own their sampling
   clock, so their finished trace streams out in chunks. *)

type chunker = {
  chunk_size : int;
  ck_emit : Json.t -> unit;
  mutable buf_t : float list;  (* reversed *)
  mutable buf_x : Json.t list;  (* reversed *)
  mutable buf_n : int;
  mutable n_chunks : int;
  mutable n_samples : int;
}

let flush_chunk ck =
  if ck.buf_n > 0 then begin
    ck.ck_emit
      (Json.Obj
         [
           ("chunk", Json.int ck.n_chunks);
           ("t", Json.List (List.rev_map Json.num ck.buf_t));
           ("x", Json.List (List.rev ck.buf_x));
         ]);
    ck.n_chunks <- ck.n_chunks + 1;
    ck.buf_t <- [];
    ck.buf_x <- [];
    ck.buf_n <- 0
  end

let chunk_sample ck t x =
  (* vec_json copies the state now — the integrator reuses its buffer *)
  ck.buf_t <- t :: ck.buf_t;
  ck.buf_x <- vec_json x :: ck.buf_x;
  ck.buf_n <- ck.buf_n + 1;
  ck.n_samples <- ck.n_samples + 1;
  if ck.buf_n >= ck.chunk_size then flush_chunk ck

(* streamed handler body: sends header + chunk frames, returns the
   final result like the other handlers *)
let stream_trace job (e : Engines.entry) (k : Engines.knobs) ~chunk_size ~t1
    ?resume (m : Engines.model) =
  (* header goes out before the run starts: the client learns the
     species while the engine is still working *)
  job.emit
    (Json.Obj
       [
         ("stream", Json.str "trace");
         ("op", Json.str "trace");
         ("engine", Json.str e.Engines.name);
         ("species", names_json m.Engines.net);
         ("t1", Json.num t1);
       ]);
  let ck =
    {
      chunk_size;
      ck_emit = job.emit;
      buf_t = [];
      buf_x = [];
      buf_n = 0;
      n_chunks = 0;
      n_samples = 0;
    }
  in
  let o, run_ms =
    timed (fun () ->
        k.Engines.run ?resume ?on_cancel:(on_cancel job m ~t1 k)
          ~on_sample:(chunk_sample ck) ~cancel:job.cancel ~t1 m)
  in
  flush_chunk ck;
  let result =
    Json.Obj
      ([
         ("t1", Json.num t1);
         ("samples", Json.int ck.n_samples);
         ("chunks", Json.int ck.n_chunks);
         ("species", names_json m.Engines.net);
         ("final", vec_json o.Engines.final);
       ]
      @ o.Engines.fields)
  in
  (result, run_ms, ("samples", Json.int ck.n_samples) :: o.Engines.counters)

let handle_trace job =
  let req = job.req in
  let name = Option.value ~default:"ode" (get_str req "engine") in
  let e =
    match Engines.find name with
    | Some e -> e
    | None ->
        bad
          (Printf.sprintf "unknown trace engine %S (%s)" name
             (String.concat ", " Engines.names))
  in
  let chunk_size = positive_int req "chunk" ~default:256 in
  let env = env_of req and t1 = t1_of req in
  let k = e.Engines.knobs Engines.Trace req in
  with_model job ~env (fun { model = m; _ } ->
      stream_trace job e k ~chunk_size ~t1 m)

let compute_handler op =
  match Engines.find op with
  | Some e -> Some (handle_engine e)
  | None -> (
      match op with
      | "parse" -> Some handle_parse
      | "ensemble" -> Some handle_ensemble
      | "sweep" -> Some handle_sweep
      | "dsd" -> Some handle_dsd
      | "trace" -> Some handle_trace
      | _ -> None)

(* ------------------------------------------------------------ responses *)

let deadline_of req ~default ~arrival =
  match
    match get_float req "deadline_ms" with Some ms -> Some ms | None -> default
  with
  | Some ms when ms > 0. -> Some (arrival +. (ms /. 1000.))
  | _ -> None

(* The body of a compute job, on a daemon worker domain or in-process:
   arm the deadline, run the handler, and map everything it can die of
   onto the response envelope. Returns the envelope with its metrics
   block and error code; [stream] marks it a stream-terminating done
   frame. *)
let execute ?(stream = false) host ~emit ~op ~handler ~req ~arrival ~deadline
    =
  let started = Unix.gettimeofday () in
  let queue_wait_ms = (started -. arrival) *. 1000. in
  let cancel =
    match deadline with
    | None -> Numeric.Cancel.never
    | Some at -> Numeric.Cancel.of_fun (fun () -> Unix.gettimeofday () > at)
  in
  let job = { host; req; cancel; emit; checkpoint = None } in
  let finish ?(cache = Metrics.Not_applicable) ?(compile_ms = 0.)
      ?(run_ms = 0.) ?(extra = []) outcome =
    let metrics =
      {
        Metrics.queue_wait_ms;
        cache;
        compile_ms;
        run_ms;
        total_ms = (Unix.gettimeofday () -. arrival) *. 1000.;
        extra;
      }
    in
    match outcome with
    | Ok result ->
        ( Conn_loop.response_ok ~done_:stream ~op ~result ~metrics (),
          metrics,
          None )
    | Stdlib.Error err ->
        ( Conn_loop.response_error ~done_:stream ~op ~error:err ~metrics (),
          metrics,
          Some (Error.code err) )
  in
  let budget_ms =
    match deadline with Some at -> (at -. arrival) *. 1000. | None -> 0.
  in
  (* persistence failures just drop the token — the deadline error
     stands either way *)
  let persist_checkpoint () =
    match (job.checkpoint, host.save_checkpoint) with
    | Some sc, Some save -> (
        try Some (save (Snapshot.encode_sim sc))
        with Sys_error _ | Unix.Unix_error _ -> None)
    | _ -> None
  in
  try
    if Numeric.Cancel.cancelled cancel then
      (* expired while queued: don't start a run we know is dead *)
      finish
        (Stdlib.Error
           (Error.Deadline_exceeded { budget_ms; checkpoint = None }))
    else
      let result, cache, compile_ms, run_ms, extra = handler job in
      finish ~cache ~compile_ms ~run_ms ~extra (Ok result)
  with
  | Numeric.Cancel.Cancelled ->
      let checkpoint = persist_checkpoint () in
      finish (Stdlib.Error (Error.Deadline_exceeded { budget_ms; checkpoint }))
  | e ->
      finish
        (Stdlib.Error
           (match Error.of_exn e with
           | Some err -> err
           | None ->
               Error.Internal
                 (match e with
                 | Failure msg | Invalid_argument msg -> msg
                 | e -> Printexc.to_string e)))

(* The validate op runs inline, like ping and stats: it compiles no
   ODE/SSA models (no Model_cache entry) and never touches a pool
   worker, so a rejected network costs the daemon nothing but the
   exact-arithmetic pass itself. A rejection is an error envelope
   ([validation_failed], one structured (code, detail) pair per problem)
   that still carries the full certificate text in ["result"], so
   clients print the same byte-deterministic certificate either way.
   Returns the envelope, the error (if any), and the verdict when the
   exact tier ran. *)
let validate req ~arrival =
  let metrics = Conn_loop.quick_metrics ~arrival () in
  match
    let spec = network_spec req in
    let net = build_network spec in
    let title = match spec with `Catalog name -> name | `Text _ -> "network" in
    Verify.certify ~title net
  with
  | exception e ->
      let err =
        match Error.of_exn e with
        | Some err -> err
        | None -> Error.Internal (Printexc.to_string e)
      in
      ( Conn_loop.response_error ~op:"validate" ~error:err ~metrics (),
        Some err,
        None )
  | cert -> (
      let result verdict =
        Json.Obj
          [
            ("verdict", Json.str verdict);
            ("certificate", Json.str (Exact.Certificate.render cert));
          ]
      in
      match Verify.error_of_certificate cert with
      | None ->
          ( Conn_loop.response_ok ~op:"validate" ~result:(result "certified")
              ~metrics (),
            None,
            Some true )
      | Some err ->
          ( Json.Obj
              [
                ("ok", Json.Bool false);
                ("op", Json.str "validate");
                ("error", Error.to_json err);
                ("result", result "rejected");
                ("metrics", Metrics.request_json metrics);
              ],
            Some err,
            Some false ))

let ping ~arrival =
  Conn_loop.response_ok ~op:"ping"
    ~result:(Json.Obj [ ("protocol", Json.int protocol_version) ])
    ~metrics:(Conn_loop.quick_metrics ~arrival ()) ()

let unknown_op op ~arrival =
  Conn_loop.response_error ~op
    ~error:(Error.Bad_request (Printf.sprintf "unknown op %S" op))
    ~metrics:(Conn_loop.quick_metrics ~arrival ()) ()

(* ------------------------------------------------------------ in-process *)

let local_host checkpoint =
  {
    cache = None;
    pool = None;
    save_checkpoint =
      Option.map
        (fun path data ->
          Binio.write_raw_atomic path data;
          path)
        checkpoint;
  }

let call ?checkpoint ?(on_frame = ignore) req =
  let arrival = Unix.gettimeofday () in
  match Option.value ~default:"" (get_str req "op") with
  | "ping" -> ping ~arrival
  | "validate" ->
      let response, _, _ = validate req ~arrival in
      response
  | op -> (
      match compute_handler op with
      | None -> unknown_op op ~arrival
      | Some handler ->
          let response, _, _ =
            execute ~stream:(op = "trace") (local_host checkpoint)
              ~emit:on_frame ~op ~handler ~req ~arrival
              ~deadline:(deadline_of req ~default:None ~arrival)
          in
          response)

let resume ?checkpoint ?deadline_ms ?(on_frame = ignore) sc =
  let arrival = Unix.gettimeofday () in
  let st = sc.Snapshot.sc_state in
  let e = Engines.of_state st in
  let handler job =
    let k =
      e.Engines.restore ~seed:sc.Snapshot.sc_seed (Snapshot.param sc) st
    in
    let m, compile_ms =
      timed (fun () -> Engines.compile sc.Snapshot.sc_env sc.Snapshot.sc_net)
    in
    let result, run_ms, extra =
      stream_trace job e k ~chunk_size:256 ~t1:sc.Snapshot.sc_t1 ~resume:st m
    in
    (result, Metrics.Miss, compile_ms, run_ms, extra)
  in
  let req = Json.Obj [] in
  let response, _, _ =
    execute ~stream:true (local_host checkpoint) ~emit:on_frame ~op:"trace"
      ~handler ~req ~arrival
      ~deadline:(deadline_of req ~default:deadline_ms ~arrival)
  in
  response

(* --------------------------------------------------------- server state *)

type t = {
  config : config;
  cache : Model_cache.t;
  metrics : Metrics.t;
  pool : Numeric.Domain_pool.Bounded.t;
}

let logf srv fmt =
  if srv.config.log then Printf.eprintf ("crnserved: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let send_json c j = Conn_loop.send_frame c (Json.to_string j)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* a deadline-cancelled run's checkpoint goes under the state directory;
   the token is its path relative to the directory *)
let save_under dir data =
  let ckdir = Filename.concat dir "checkpoints" in
  (try Unix.mkdir ckdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let name = Printf.sprintf "ck-%s.sim" (Digest.to_hex (Digest.string data)) in
  Binio.write_raw_atomic (Filename.concat ckdir name) data;
  Filename.concat "checkpoints" name

(* the compute job on a worker domain. A streamed trace keeps no
   checkpoint: resuming one needs every sample already sent, and the
   daemon streams traces so as not to hold them. *)
let run_job ~stream srv conn ~op ~handler ~req ~arrival ~deadline =
  let host =
    {
      cache = Some srv.cache;
      pool = Some srv.pool;
      save_checkpoint =
        (if stream then None else Option.map save_under srv.config.state_dir);
    }
  in
  let response, metrics, error =
    execute ~stream host ~emit:(send_json conn) ~op ~handler ~req ~arrival
      ~deadline
  in
  Metrics.record srv.metrics ~op ~error ~request:metrics;
  send_json conn response;
  Conn_loop.release conn

(* ------------------------------------------------------------ dispatch *)

let handle_stats srv ~arrival =
  let entries, hits, misses, evictions = Model_cache.stats srv.cache in
  let result =
    match Metrics.to_json srv.metrics with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ("cache_entries", Json.int entries);
              ("cache_hits_total", Json.int hits);
              ("cache_misses_total", Json.int misses);
              ("cache_evictions", Json.int evictions);
              ( "backlog",
                Json.int (Numeric.Domain_pool.Bounded.backlog srv.pool) );
              ("workers", Json.int (Numeric.Domain_pool.Bounded.jobs srv.pool));
              ("queue_bound", Json.int srv.config.queue_bound);
              ("max_frame", Json.int srv.config.max_frame);
              ("max_conns", Json.int srv.config.max_conns);
              ("read_deadline_ms", Json.num srv.config.read_deadline_ms);
              ("idle_timeout_ms", Json.num srv.config.idle_timeout_ms);
              ( "pool_uncaught",
                Json.int
                  (fst (Numeric.Domain_pool.Bounded.uncaught srv.pool)) );
            ])
    | j -> j
  in
  Conn_loop.response_ok ~op:"stats" ~result
    ~metrics:(Conn_loop.quick_metrics ~arrival ())
    ()

let parse_request payload =
  match Json.of_string payload with
  | exception Json.Parse_error msg ->
      Stdlib.Error (Error.Bad_request ("bad JSON: " ^ msg))
  | req -> (
      match get_str req "op" with
      | None | Some "" -> Stdlib.Error (Error.Bad_request "missing \"op\"")
      | Some op -> Ok (req, op))

let dispatch srv conn payload =
  let arrival = Unix.gettimeofday () in
  match parse_request payload with
  | Stdlib.Error error ->
      send_json conn
        (Conn_loop.response_error ~op:"?" ~error
           ~metrics:(Conn_loop.quick_metrics ~arrival ())
           ())
  | Ok (_, "ping") -> send_json conn (ping ~arrival)
  | Ok (_, "stats") ->
      Metrics.record srv.metrics ~op:"stats" ~error:None
        ~request:(Conn_loop.quick_metrics ~arrival ());
      send_json conn (handle_stats srv ~arrival)
  | Ok (req, "validate") ->
      let response, err, verdict = validate req ~arrival in
      Option.iter (fun ok -> Metrics.record_validate srv.metrics ~ok) verdict;
      Metrics.record srv.metrics ~op:"validate"
        ~error:(Option.map Error.code err)
        ~request:(Conn_loop.quick_metrics ~arrival ());
      send_json conn response
  | Ok (req, op) -> (
      match compute_handler op with
      | None -> send_json conn (unknown_op op ~arrival)
      | Some handler ->
          let stream = op = "trace" in
          let deadline =
            deadline_of req ~default:srv.config.default_deadline_ms ~arrival
          in
          Conn_loop.hold conn;
          let job () =
            run_job ~stream srv conn ~op ~handler ~req ~arrival ~deadline
          in
          if not (Numeric.Domain_pool.Bounded.try_submit srv.pool job)
          then begin
            let err =
              Error.Overloaded { queue_bound = srv.config.queue_bound }
            in
            Metrics.record srv.metrics ~op ~error:(Some (Error.code err))
              ~request:(Conn_loop.quick_metrics ~arrival ());
            send_json conn
              (Conn_loop.response_error ~done_:stream ~op ~error:err
                 ~metrics:(Conn_loop.quick_metrics ~arrival ()) ());
            Conn_loop.release conn
          end)

(* ------------------------------------------------------------ serving *)

let run ?stop config =
  (* made before binding: a state directory that cannot be created fails
     the boot rather than silently dropping every checkpoint token *)
  Option.iter mkdir_p config.state_dir;
  let lfd = Addr.listen config.address in
  let srv =
    {
      config;
      cache = Model_cache.create ~capacity:config.cache_capacity ();
      metrics = Metrics.create ();
      pool =
        Numeric.Domain_pool.Bounded.create ~queue_bound:config.queue_bound
          ~jobs:config.jobs ();
    }
  in
  (* a request job that somehow leaks an exception past run_job's
     handlers is still accounted for: the pool records it and the
     metrics surface it via the stats op *)
  Numeric.Domain_pool.Bounded.set_on_uncaught srv.pool
    (Metrics.record_job_exception srv.metrics);
  logf srv "listening on %s (%d workers, queue bound %d)"
    (Addr.to_string config.address)
    config.jobs config.queue_bound;
  Conn_loop.run ?stop
    ?log:(if config.log then Some "crnserved" else None)
    ~drain:(fun () -> Numeric.Domain_pool.Bounded.shutdown srv.pool)
    ~read_deadline_ms:config.read_deadline_ms
    ~idle_timeout_ms:config.idle_timeout_ms ~metrics:srv.metrics
    ~max_frame:config.max_frame ~max_conns:config.max_conns
    [ (lfd, config.address, Conn_loop.Frames (dispatch srv)) ]
