(* crnsgate — the mrsc scale-out gateway.

   Spawns and supervises N crnserved worker shards (or attaches to
   existing daemons) and routes requests to them over a consistent-hash
   ring keyed on the compiled-model identity, so a hot model lives in
   exactly one shard's cache. Front doors: the length-prefixed wire
   protocol and HTTP/1.1 (POST /api, GET /health, GET /metrics).
   SIGTERM / SIGINT shut it down cleanly: listeners close, socket files
   unlink, and spawned shards are terminated and reaped. *)

open Cmdliner

let stop_requested = ref false

let run listen http shards served dir jobs queue_bound cache_capacity
    state_dir max_inflight no_affinity replicas route_memo max_frame max_conns
    attach seed verbose =
  let parse_addr what = function
    | None -> Ok None
    | Some s -> (
        match Service.Addr.of_string s with
        | Ok a -> Ok (Some a)
        | Error msg -> Error (Printf.sprintf "%s: %s" what msg))
  in
  let parse_attach () =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest -> (
          match Service.Addr.of_string s with
          | Ok a -> go (a :: acc) rest
          | Error msg -> Error (Printf.sprintf "--attach %s: %s" s msg))
    in
    go [] attach
  in
  let ( let* ) r f = match r with Ok v -> f v | Error msg -> Error msg in
  let result =
    let* wire = parse_addr "--listen" listen in
    let* http = parse_addr "--http" http in
    let* attached = parse_attach () in
    if wire = None && http = None then
      Error "at least one of --listen or --http is required"
    else if attached = [] && shards < 1 then Error "--shards must be >= 1"
    else if max_inflight < 1 then Error "--max-inflight must be >= 1"
    else if replicas < 1 then Error "--replicas must be >= 1"
    else
      let backend =
        if attached <> [] then Service.Gateway.Attach attached
        else
          Service.Gateway.Spawn
            {
              exe = served;
              count = shards;
              dir;
              jobs;
              queue_bound;
              cache_capacity;
              state_dir;
              extra_args = [];
            }
      in
      let cfg =
        {
          (Service.Gateway.default_config backend) with
          Service.Gateway.wire;
          http;
          affinity = not no_affinity;
          max_inflight;
          replicas;
          route_memo;
          max_frame;
          max_conns;
          log = verbose;
          seed = Int64.of_int seed;
        }
      in
      Ok cfg
  in
  match result with
  | Error msg ->
      Printf.eprintf "crnsgate: %s\n" msg;
      2
  | Ok cfg -> (
      List.iter
        (fun signal ->
          Sys.set_signal signal
            (Sys.Signal_handle (fun _ -> stop_requested := true)))
        [ Sys.sigterm; Sys.sigint ];
      (* a client hanging up mid-relay must be an EPIPE, not a kill *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      try
        Service.Gateway.run ~stop:(fun () -> !stop_requested) cfg;
        0
      with
      | Unix.Unix_error (e, fn, arg) ->
          Printf.eprintf "crnsgate: %s(%s): %s\n" fn arg
            (Unix.error_message e);
          1
      | Invalid_argument msg | Failure msg ->
          Printf.eprintf "crnsgate: %s\n" msg;
          1)

let listen =
  let doc =
    "Wire-protocol listen address: unix:\\$(b,PATH), a socket path starting \
     with / or ., or \\$(b,HOST:PORT) for TCP."
  in
  Arg.(
    value & opt (some string) None & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)

let http =
  let doc =
    "HTTP listen address (\\$(b,HOST:PORT)): POST /api carries a request \
     object, GET /health and GET /metrics report fleet state."
  in
  Arg.(value & opt (some string) None & info [ "http" ] ~docv:"ADDR" ~doc)

let shards =
  let doc = "Number of crnserved worker shards to spawn and supervise." in
  Arg.(value & opt int 2 & info [ "n"; "shards" ] ~docv:"N" ~doc)

let served =
  let doc = "Path to the crnserved binary used to spawn shards." in
  Arg.(value & opt string "crnserved" & info [ "served" ] ~docv:"PATH" ~doc)

let dir =
  let doc = "Runtime directory for shard sockets." in
  Arg.(value & opt string "/tmp" & info [ "dir" ] ~docv:"DIR" ~doc)

let jobs =
  let doc = "Worker domains per shard (default: the shard's own default)." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let queue_bound =
  let doc = "Per-shard queue bound passed through to crnserved." in
  Arg.(
    value & opt (some int) None & info [ "queue-bound" ] ~docv:"N" ~doc)

let cache_capacity =
  let doc = "Per-shard compiled-model cache entries passed to crnserved." in
  Arg.(
    value & opt (some int) None & info [ "cache-capacity" ] ~docv:"N" ~doc)

let state_dir =
  let doc =
    "Checkpoint root. Each spawned shard gets $(docv)/shard-N-state as \
     its own $(b,--state-dir), so a deadline-cancelled run routed there \
     leaves its resumable checkpoint under \
     $(docv)/shard-N-state/checkpoints."
  in
  Arg.(
    value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let max_inflight =
  let doc =
    "Admission bound: in-flight requests allowed per shard before further \
     requests for it are refused with a structured $(i,overloaded) error."
  in
  Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)

let no_affinity =
  let doc =
    "Route uniformly at random instead of by the consistent-hash ring \
     (baseline mode for measuring what cache affinity buys)."
  in
  Arg.(value & flag & info [ "no-affinity" ] ~doc)

let replicas =
  let doc = "Virtual ring points per shard." in
  Arg.(value & opt int 128 & info [ "replicas" ] ~docv:"N" ~doc)

let route_memo =
  let doc = "Entries in the source-to-routing-key memo." in
  Arg.(value & opt int 512 & info [ "route-memo" ] ~docv:"N" ~doc)

let max_frame =
  let doc = "Frame/body size limit in bytes on both front doors." in
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let max_conns =
  let doc = "Open client connection cap." in
  Arg.(value & opt int 1024 & info [ "max-conns" ] ~docv:"N" ~doc)

let attach =
  let doc =
    "Attach to an existing daemon at $(docv) instead of spawning shards \
     (repeatable; overrides --shards/--served)."
  in
  Arg.(value & opt_all string [] & info [ "attach" ] ~docv:"ADDR" ~doc)

let seed =
  let doc = "Seed for the respawn-jitter and random-routing streams." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let verbose =
  let doc = "Log one stderr line per fleet and connection event." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let cmd =
  let doc = "scale-out gateway routing requests over crnserved shards" in
  let info = Cmd.info "crnsgate" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run $ listen $ http $ shards $ served $ dir $ jobs $ queue_bound
      $ cache_capacity $ state_dir $ max_inflight $ no_affinity $ replicas
      $ route_memo $ max_frame $ max_conns $ attach $ seed $ verbose)

let () = exit (Cmd.eval' cmd)
