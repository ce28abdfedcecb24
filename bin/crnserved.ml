(* crnserved — the persistent simulation daemon.

   Serves parse/ODE/SSA/ensemble/sweep/DSD requests over a
   length-prefixed JSON protocol (Unix-domain socket or TCP), with a
   compiled-model cache, a bounded worker queue, and per-request
   deadlines. SIGTERM / SIGINT shut it down cleanly: the listen socket
   closes, accepted jobs finish, worker domains join, and a Unix socket
   file is unlinked. *)

open Cmdliner

let stop_requested = ref false

let run listen jobs queue_bound cache_capacity deadline_ms max_frame
    read_deadline_ms idle_timeout_ms max_conns state_dir verbose =
  match Service.Addr.of_string listen with
  | Error msg ->
      Printf.eprintf "crnserved: %s\n" msg;
      2
  | Ok address -> (
      let config =
        let base = Service.Server.default_config address in
        {
          base with
          Service.Server.jobs =
            Option.value ~default:base.Service.Server.jobs jobs;
          queue_bound;
          cache_capacity;
          default_deadline_ms = deadline_ms;
          max_frame;
          read_deadline_ms;
          idle_timeout_ms;
          max_conns;
          log = verbose;
          state_dir;
        }
      in
      if config.Service.Server.jobs < 1 then begin
        Printf.eprintf "crnserved: --jobs must be >= 1\n";
        2
      end
      else if queue_bound < 1 then begin
        Printf.eprintf "crnserved: --queue-bound must be >= 1\n";
        2
      end
      else if cache_capacity < 1 then begin
        Printf.eprintf "crnserved: --cache-capacity must be >= 1\n";
        2
      end
      else if max_frame < 4096 then begin
        Printf.eprintf "crnserved: --max-frame must be >= 4096 bytes\n";
        2
      end
      else if max_conns < 1 then begin
        Printf.eprintf "crnserved: --max-conns must be >= 1\n";
        2
      end
      else begin
        List.iter
          (fun signal ->
            Sys.set_signal signal
              (Sys.Signal_handle (fun _ -> stop_requested := true)))
          [ Sys.sigterm; Sys.sigint ];
        (* a client hanging up mid-write must be an EPIPE, not a kill *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        try
          Service.Server.run ~stop:(fun () -> !stop_requested) config;
          0
        with
        | Unix.Unix_error (e, fn, arg) ->
            Printf.eprintf "crnserved: %s(%s): %s\n" fn arg
              (Unix.error_message e);
            1
        | Failure msg ->
            Printf.eprintf "crnserved: %s\n" msg;
            1
      end)

let listen =
  let doc =
    "Listen address: unix:\\$(b,PATH), a socket path starting with / or ., \
     or \\$(b,HOST:PORT) for TCP."
  in
  Arg.(
    value
    & opt string "/tmp/crnserved.sock"
    & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)

let jobs =
  let doc = "Worker domains (default: all recommended cores minus one)." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let queue_bound =
  let doc =
    "Maximum queued jobs; requests beyond this are refused immediately with \
     a structured $(i,overloaded) error."
  in
  Arg.(value & opt int 64 & info [ "queue-bound" ] ~docv:"N" ~doc)

let cache_capacity =
  let doc = "Compiled-model LRU cache entries." in
  Arg.(value & opt int 32 & info [ "cache-capacity" ] ~docv:"N" ~doc)

let deadline_ms =
  let doc =
    "Default per-request deadline in milliseconds, applied when a request \
     carries no deadline_ms field. A run that exceeds it is cancelled and \
     answered with $(i,deadline_exceeded)."
  in
  Arg.(
    value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_frame =
  let doc =
    "Per-connection frame-size limit in bytes. A longer length prefix is \
     answered with a structured error and the connection closed, without \
     allocating the payload."
  in
  Arg.(
    value & opt int (8 * 1024 * 1024) & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let read_deadline_ms =
  let doc =
    "Kill a connection whose partial frame has not completed within $(docv) \
     milliseconds (a stalled or byte-dribbling peer). 0 disables."
  in
  Arg.(
    value & opt float 10_000. & info [ "read-deadline-ms" ] ~docv:"MS" ~doc)

let idle_timeout_ms =
  let doc =
    "Close a connection with no traffic and no running jobs for $(docv) \
     milliseconds. 0 disables."
  in
  Arg.(
    value & opt float 300_000. & info [ "idle-timeout-ms" ] ~docv:"MS" ~doc)

let max_conns =
  let doc =
    "Open-connection cap; accepts beyond it are answered with a structured \
     $(i,connection_limit) error and closed immediately."
  in
  Arg.(value & opt int 256 & info [ "max-conns" ] ~docv:"N" ~doc)

let state_dir =
  let doc =
    "Checkpoint directory, created at startup if missing. A \
     deadline-cancelled run leaves a resumable checkpoint in \
     $(docv)/checkpoints and names it in its $(i,deadline_exceeded) error; \
     $(b,crnsim --resume) continues it bitwise. Without it no checkpoint \
     is kept."
  in
  Arg.(
    value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let verbose =
  let doc = "Log one stderr line per connection event." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let cmd =
  let doc = "persistent simulation daemon with compiled-model caching" in
  let info = Cmd.info "crnserved" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run $ listen $ jobs $ queue_bound $ cache_capacity $ deadline_ms
      $ max_frame $ read_deadline_ms $ idle_timeout_ms $ max_conns
      $ state_dir $ verbose)

let () = exit (Cmd.eval' cmd)
