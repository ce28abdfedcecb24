(* crnsim — simulate a chemical reaction network.

   The network comes either from a .crn file (see Crn.Parser for the
   format) or from the built-in design catalog. Output is a CSV dump, an
   ASCII plot of selected species, or a final-state summary.

   Every mode builds the request the daemon protocol takes. Without
   --connect that request runs through the daemon's own pipeline in this
   process (Service.Server.call); with --connect it goes to a running
   crnserved daemon or crnsgate gateway. Both answers print through the
   one formatter below, so local, daemon and gateway output agree by
   construction. *)

open Cmdliner
module J = Service.Json

let unknown_source source =
  failwith
    (Printf.sprintf "%S is neither a file nor a built-in design (available: %s)"
       source
       (String.concat ", " (Designs.Catalog.names ())))

(* the network as the request ships it: catalog designs by name (so the
   daemon's source memo keys on the name), files as inline text; --focus
   slices and ships the slice as canonical text. The network itself
   comes along, built on demand, for the local lint report. *)
let network_json source focus =
  let catalog = Designs.Catalog.find source in
  let build () =
    match catalog with
    | Some entry -> entry.Designs.Catalog.build ()
    | None when Sys.file_exists source -> Crn.Parser.network_of_file source
    | None -> unknown_source source
  in
  match focus with
  | [] ->
      let json =
        if Option.is_some catalog then J.Obj [ ("catalog", J.str source) ]
        else if Sys.file_exists source then
          J.Obj
            [
              ( "text",
                J.str (In_channel.with_open_bin source In_channel.input_all) );
            ]
        else unknown_source source
      in
      (json, lazy (build ()))
  | names ->
      let slice = Crn.Slice.extract (build ()) names in
      Printf.eprintf "focused on %s: %d species, %d reactions\n"
        (String.concat ", " names)
        (Crn.Network.n_species slice)
        (Crn.Network.n_reactions slice);
      (J.Obj [ ("text", J.str (Crn.Network.to_string slice)) ], lazy slice)

(* A local run reports the network's structural lint before it runs; a
   network that does not build is left to the request to report, as the
   daemon would. *)
let print_lint net =
  match Crn.Validate.report (Lazy.force net) with
  | "" -> ()
  | report -> Printf.eprintf "lint:\n%s\n" report
  | exception _ -> ()

(* The library clamps a fan-out to the cores it has (more domains only
   time-slice the same silicon); a local run says so, so that a forced
   --jobs is not silently ignored. Returns the domains the run uses. *)
let domains_used ~what ~tasks requested =
  let cores = Numeric.Domain_pool.default_jobs () in
  (match requested with
  | Some j when j > cores ->
      Printf.eprintf
        "crnsim: %s: %d jobs requested but only %d core(s) available; \
         clamping to %d (results are identical for every job count)\n"
        what j cores cores
  | _ -> ());
  min (min (Option.value ~default:cores requested) cores) tasks

(* ------------------------------------------------------------ requests *)

type mode = Final | Trace | Ensemble | Sweep | Validate

(* Every engine knob goes out with every request: each op reads its
   engine's knobs from the registry and ignores the rest. *)
let request ~mode ~engine ~network ~t1 ~ratio ~method_name ~seed ~runs ~jobs
    ~sweep_ratios ~sweep_jobs ~deadline_ms ~pop_threshold ~prop_threshold
    ~repartition_every =
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  let sim =
    [
      ("network", network);
      ("t1", J.num t1);
      ("ratio", J.num ratio);
      ("method", J.str method_name);
      ("seed", J.int seed);
      ("pop_threshold", J.num pop_threshold);
      ("prop_threshold", J.num prop_threshold);
      ("repartition_every", J.int repartition_every);
    ]
  in
  let fields =
    match mode with
    | Final -> ("op", J.str engine) :: sim
    | Trace ->
        (* the ode engine records every 5th accepted step *)
        (("op", J.str "trace") :: ("engine", J.str engine) :: sim)
        @ [ ("thin", J.int 5) ]
    | Ensemble ->
        (("op", J.str "ensemble") :: ("engine", J.str engine) :: sim)
        @ [ ("runs", J.int runs) ] @ opt "jobs" J.int jobs
    | Sweep ->
        [
          ("op", J.str "sweep");
          ("network", network);
          ("t1", J.num t1);
          ("method", J.str method_name);
          ("ratios", J.List (List.map J.num sweep_ratios));
        ]
        @ opt "jobs" J.int sweep_jobs
    | Validate -> [ ("op", J.str "validate"); ("network", network) ]
  in
  J.Obj (fields @ opt "deadline_ms" J.num deadline_ms)

(* ---------------------------------------------------------- formatting *)

let json_floats j =
  match J.to_list j with
  | Some xs ->
      Array.of_list
        (List.map
           (fun x ->
             match J.to_float x with
             | Some f -> f
             | None -> failwith "malformed server response (expected number)")
           xs)
  | None -> failwith "malformed server response (expected array)"

let json_strings j =
  match J.to_list j with
  | Some xs ->
      Array.of_list
        (List.map
           (fun x ->
             match J.to_str x with
             | Some s -> s
             | None -> failwith "malformed server response (expected string)")
           xs)
  | None -> failwith "malformed server response (expected array)"

let json_field result key =
  match J.member key result with
  | Some v -> v
  | None -> failwith (Printf.sprintf "malformed server response (no %S)" key)

(* a failed response, by the exit code of its error *)
exception Failed of int

(* the result of an ok envelope; a failed one prints its message and
   raises [Failed] *)
let result_of ~remote envelope =
  let resp = Service.Client.response_of_json envelope in
  (match resp.Service.Client.metrics with
  | Some m when remote ->
      let f key =
        Option.value ~default:0. (Option.bind (J.member key m) J.to_float)
      in
      let cache =
        Option.value ~default:"n/a" (Option.bind (J.member "cache" m) J.to_str)
      in
      Printf.eprintf
        "server: cache %s, queue %.1f ms, compile %.1f ms, run %.1f ms, \
         total %.1f ms\n"
        cache (f "queue_wait_ms") (f "compile_ms") (f "run_ms") (f "total_ms")
  | _ -> ());
  if resp.Service.Client.ok then
    match resp.Service.Client.result with
    | Some result -> result
    | None -> failwith "malformed server response (ok without result)"
  else begin
    Printf.eprintf "crnsim: %s\n"
      (Option.value ~default:"unknown server error"
         resp.Service.Client.error_message);
    raise
      (Failed
         (match resp.Service.Client.error with
         | Some err -> Service.Error.exit_code err
         | None -> 70))
  end

(* the trace op's frames: the header opens the trace, each chunk
   appends its samples *)
let trace_collector () =
  let trace = ref None in
  let on_frame j =
    match J.member "stream" j with
    | Some _ ->
        trace :=
          Some (Ode.Trace.create ~names:(json_strings (json_field j "species")))
    | None -> (
        match !trace with
        | None -> failwith "malformed server response (chunk before header)"
        | Some tr -> (
            let ts = json_floats (json_field j "t") in
            match J.to_list (json_field j "x") with
            | Some xs ->
                List.iteri
                  (fun i x -> Ode.Trace.record tr ts.(i) (json_floats x))
                  xs
            | None -> failwith "malformed server response (expected array)"))
  in
  let get () =
    match !trace with
    | Some tr -> tr
    | None -> failwith "malformed server response (no stream header)"
  in
  (on_frame, get)

let print_state ~t1 names state =
  Printf.printf "final state at t = %g:\n" t1;
  Array.iteri
    (fun i name ->
      if state.(i) > 1e-6 then Printf.printf "  %-24s %10.4f\n" name state.(i))
    names

(* the engine's own work summary, from its result fields *)
let print_summary result =
  let int j key =
    Option.value ~default:0 (Option.bind (J.member key j) J.to_int)
  in
  match
    ( J.member "stats" result,
      J.member "n_events" result,
      J.member "n_leaps" result )
  with
  | Some s, _, _ ->
      Printf.eprintf
        "hybrid: %d exact + %d tau events (%d leaps), %d ode slices, %d \
         repartitions, %d mode switches, %d rejected, fast partition %d/%d at \
         end (peak %d)\n"
        (int s "ssa_events") (int s "tau_events") (int s "tau_leaps")
        (int s "ode_steps") (int s "repartitions") (int s "mode_switches")
        (int s "rejected") (int s "final_n_fast")
        (int s "final_n_fast" + int s "final_n_slow")
        (int s "peak_n_fast")
  | None, Some _, _ ->
      Printf.eprintf "stochastic simulation: %d reaction events\n"
        (int result "n_events")
  | None, None, Some _ ->
      Printf.eprintf "tau-leaping: %d leaps, %d exact fallbacks\n"
        (int result "n_leaps") (int result "n_exact")
  | None, None, None -> ()

let print_ensemble ~t1 ~runs ~csv_out result =
  let names = json_strings (json_field result "species") in
  let mean = json_floats (json_field result "mean") in
  let std = json_floats (json_field result "std") in
  (match csv_out with
  | Some path ->
      Analysis.Csv.write_rows ~path ~header:[ "species"; "mean"; "std" ]
        (Array.to_list
           (Array.mapi
              (fun i name ->
                [
                  name;
                  Printf.sprintf "%.17g" mean.(i);
                  Printf.sprintf "%.17g" std.(i);
                ])
              names));
      Printf.printf "wrote final-state statistics to %s\n" path
  | None -> ());
  Printf.printf "final state at t = %g (mean +- std over %d runs):\n" t1 runs;
  Array.iteri
    (fun i name ->
      if mean.(i) > 1e-6 then
        Printf.printf "  %-24s %10.4f +- %8.4f\n" name mean.(i) std.(i))
    names

let print_sweep ~t1 ~csv_out result =
  let names = json_strings (json_field result "species") in
  let ratios = json_floats (json_field result "ratios") in
  let finals =
    match J.to_list (json_field result "finals") with
    | Some xs -> Array.of_list (List.map json_floats xs)
    | None -> failwith "malformed server response (expected array)"
  in
  (match csv_out with
  | Some path ->
      Analysis.Csv.write_rows ~path
        ~header:("ratio" :: Array.to_list names)
        (Array.to_list
           (Array.mapi
              (fun i final ->
                Printf.sprintf "%.17g" ratios.(i)
                :: Array.to_list (Array.map (Printf.sprintf "%.17g") final))
              finals));
      Printf.printf "wrote final states for %d ratios to %s\n"
        (Array.length ratios) path
  | None -> ());
  Array.iteri
    (fun i final ->
      Printf.printf "ratio %g: " ratios.(i);
      print_state ~t1 names final)
    finals

(* ------------------------------------------------------------- running *)

(* map everything crnsim itself can die of to a one-line message and the
   structured exit code shared with the service protocol: 2 input, 3
   budget/solver, 4 deadline, 5 overloaded, 70 internal *)
let report_error e =
  match Service.Error.of_exn e with
  | Some err ->
      Printf.eprintf "crnsim: %s\n" (Service.Error.message err);
      Service.Error.exit_code err
  | None -> (
      match e with
      | Failure msg | Invalid_argument msg ->
          Printf.eprintf "crnsim: %s\n" msg;
          2
      | Failed exit_code -> exit_code
      | Service.Client.Timeout ms ->
          Printf.eprintf
            "crnsim: no response from server within %.0f ms read deadline\n"
            ms;
          4
      | Service.Client.Retries_exhausted { attempts; last } ->
          let detail =
            match last with
            | Unix.Unix_error (err, fn, _) ->
                Printf.sprintf "%s: %s" fn (Unix.error_message err)
            | _ -> "server closed the connection"
          in
          Printf.eprintf "crnsim: gave up after %d attempt(s): %s\n" attempts
            detail;
          5
      | Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "crnsim: %s(%s): %s\n" fn arg (Unix.error_message err);
          70
      | e -> raise e)

(* One request, in-process or over --connect; returns the response
   envelope. A trace op's frames go to [on_frame] either way. *)
let send ~connect ~checkpoint ~deadline_ms ~retries ~retry_budget_ms ~seed req
    ~on_frame =
  match connect with
  | None -> Service.Server.call ?checkpoint ~on_frame req
  | Some connect ->
      if retries < 0 then failwith "--retries must be >= 0";
      if retry_budget_ms <= 0. then failwith "--retry-budget-ms must be > 0";
      let address =
        match Service.Addr.of_string connect with
        | Ok a -> a
        | Error msg -> failwith msg
      in
      (* the daemon enforces the deadline and answers deadline_exceeded;
         the socket-read deadline is a backstop (budget + grace) so a
         daemon that accepts and then never responds cannot hang the
         client *)
      let read_deadline_ms =
        Option.map (fun ms -> Float.max ms 1. +. 1000.) deadline_ms
      in
      let client =
        Service.Client.connect ~retries ~retry_budget_ms
          ~retry_seed:(Int64.of_int seed) ?read_deadline_ms address
      in
      Fun.protect
        ~finally:(fun () -> Service.Client.close client)
        (fun () ->
          if J.member "op" req = Some (J.str "trace") then
            Service.Client.call_stream client req ~on_frame
          else Service.Client.call client req)

let print_final result =
  print_state
    ~t1:
      (Option.value ~default:0.
         (Option.bind (J.member "t1" result) J.to_float))
    (json_strings (json_field result "species"))
    (json_floats (json_field result "final"))

(* print a trace op's answer: the rebuilt trace feeds the CSV and plot
   output; the final state is the engine's state at t1, which the
   sampled trace need not end on *)
let print_trace ~remote ~source ~csv_out ~plot_species ~final_only trace
    envelope =
  let result = result_of ~remote envelope in
  print_summary result;
  let trace = trace () in
  (match csv_out with
  | Some path ->
      Analysis.Csv.write_trace ~path trace;
      Printf.printf "wrote %d samples to %s\n" (Ode.Trace.length trace) path
  | None -> ());
  (match plot_species with
  | [] -> ()
  | names ->
      print_string
        (Analysis.Ascii_plot.render ~width:72 ~height:16 ~title:source
           (Analysis.Ascii_plot.of_trace trace names)));
  if final_only || (csv_out = None && plot_species = []) then
    print_final result

let run_simulation ~source ~t1 ~ratio ~method_name ~csv_out ~plot_species
    ~engine ~seed ~runs ~jobs ~final_only ~focus ~sweep_ratios ~sweep_jobs
    ~connect ~deadline_ms ~retries ~retry_budget_ms ~pop_threshold
    ~prop_threshold ~repartition_every ~validate ~checkpoint =
  let stochastic =
    match Service.Engines.find engine with
    | Some e -> e.Service.Engines.worker <> None
    | None ->
        failwith
          (Printf.sprintf "unknown engine %S (%s)" engine
             (String.concat ", " Service.Engines.names))
  in
  let mode =
    if validate then Validate
    else if sweep_ratios <> [] then begin
      if stochastic then
        failwith
          "--sweep-ratio is a deterministic mode; use the default --engine ode";
      Sweep
    end
    else if runs <> 1 then Ensemble
    else if csv_out <> None || plot_species <> [] || checkpoint <> None then
      (* a checkpointed run records its trace too, so that a resumed
         --csv or --plot is the uninterrupted run's *)
      Trace
    else Final
  in
  if mode = Ensemble && plot_species <> [] then
    Printf.eprintf "note: --plot is ignored when --runs > 1\n";
  let network, net = network_json source (if validate then [] else focus) in
  let req =
    request ~mode ~engine ~network ~t1 ~ratio ~method_name ~seed ~runs ~jobs
      ~sweep_ratios ~sweep_jobs ~deadline_ms ~pop_threshold ~prop_threshold
      ~repartition_every
  in
  let remote = Option.is_some connect in
  if not (remote || mode = Validate) then print_lint net;
  (* a local fan-out names its domains and wall time, where --connect
     prints the daemon's metrics line *)
  let fan_out =
    match mode with
    | Ensemble when not remote ->
        Some
          (Printf.sprintf "ensemble (%s): %d stochastic runs on %d domain(s)"
             engine runs
             (domains_used ~what:"ensemble" ~tasks:runs jobs))
    | Sweep when not remote ->
        let n = List.length sweep_ratios in
        Some
          (Printf.sprintf "sweep: %d deterministic points on %d domain(s)" n
             (domains_used ~what:"sweep" ~tasks:n sweep_jobs))
    | _ -> None
  in
  let on_frame, trace = trace_collector () in
  let envelope =
    send ~connect ~checkpoint ~deadline_ms ~retries ~retry_budget_ms ~seed req
      ~on_frame
  in
  let fan_out_result envelope =
    let result = result_of ~remote envelope in
    Option.iter
      (fun line ->
        let run_ms =
          Option.bind (J.member "metrics" envelope) (fun m ->
              Option.bind (J.member "run_ms" m) J.to_float)
        in
        Printf.eprintf "%s in %.2fs\n" line
          (Option.value ~default:0. run_ms /. 1000.))
      fan_out;
    result
  in
  (match mode with
  | Validate ->
      (* certified and rejected responses both carry the rendered
         certificate; print it either way, then exit by verdict *)
      Option.iter print_string
        (Option.bind (J.member "result" envelope) (fun r ->
             Option.bind (J.member "certificate" r) J.to_str));
      ignore (result_of ~remote envelope)
  | Trace ->
      print_trace ~remote ~source ~csv_out ~plot_species ~final_only trace
        envelope
  | Final ->
      let result = result_of ~remote envelope in
      print_summary result;
      print_final result
  | Ensemble -> print_ensemble ~t1 ~runs ~csv_out (fan_out_result envelope)
  | Sweep -> print_sweep ~t1 ~csv_out (fan_out_result envelope));
  0

(* --resume FILE: the checkpoint is self-contained (network, rate
   environment, horizon, seed, engine parameters, mid-run engine state),
   so everything the continuation needs comes from the file; the
   NETWORK argument and the engine/ratio/seed flags are ignored. It runs
   as a trace, so the finished output is bitwise that of the
   uninterrupted run. *)
let run_resume ~path ~source ~csv_out ~plot_species ~final_only ~checkpoint
    ~deadline_ms =
  let sc =
    try Service.Snapshot.decode_sim (Service.Binio.read_raw path) with
    | Service.Binio.Corrupt msg ->
        failwith (Printf.sprintf "%s: corrupt checkpoint: %s" path msg)
    | Service.Snapshot.Version_mismatch { found; expected; _ } ->
        failwith
          (Printf.sprintf "%s: checkpoint format v%d, this build reads v%d"
             path found expected)
    | Sys_error msg -> failwith msg
  in
  Printf.eprintf "crnsim: resuming %s run from %s (t1 = %g)\n"
    (Service.Snapshot.engine_name sc.Service.Snapshot.sc_state)
    path sc.Service.Snapshot.sc_t1;
  let on_frame, trace = trace_collector () in
  print_trace ~remote:false ~source ~csv_out ~plot_species ~final_only trace
    (Service.Server.resume ?checkpoint ?deadline_ms ~on_frame sc);
  0

let run source t1 ratio method_name csv_out plot_species engine seed runs jobs
    final_only focus sweep_ratios sweep_jobs connect deadline_ms retries
    retry_budget_ms pop_threshold prop_threshold repartition_every validate
    checkpoint resume =
  try
    if
      (checkpoint <> None || resume <> None)
      && (connect <> None || validate || runs <> 1 || sweep_ratios <> [])
    then
      failwith
        "--checkpoint/--resume apply to a single local trajectory (not \
         --connect, --validate, --runs > 1 or --sweep-ratio)";
    match (resume, source) with
    | Some path, _ ->
        (* the checkpoint carries the network; a NETWORK argument, if
           given, only names the plot title *)
        run_resume ~path
          ~source:(Option.value ~default:path source)
          ~csv_out ~plot_species ~final_only ~checkpoint ~deadline_ms
    | None, None ->
        failwith
          "a NETWORK argument is required (only --resume runs without one)"
    | None, Some source ->
        run_simulation ~source ~t1 ~ratio ~method_name ~csv_out ~plot_species
          ~engine ~seed ~runs ~jobs ~final_only ~focus ~sweep_ratios
          ~sweep_jobs ~connect ~deadline_ms ~retries ~retry_budget_ms
          ~pop_threshold ~prop_threshold ~repartition_every ~validate
          ~checkpoint
  with e -> report_error e

let source =
  let doc =
    "A .crn file or a built-in design name. Optional with $(b,--resume): \
     the checkpoint file already carries the network."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"NETWORK" ~doc)

let t1 =
  let doc = "Simulation horizon." in
  Arg.(value & opt float 50. & info [ "t"; "t1" ] ~docv:"TIME" ~doc)

let ratio =
  let doc = "Rate separation k_fast / k_slow (k_slow is fixed at 1)." in
  Arg.(value & opt float 1000. & info [ "ratio" ] ~docv:"R" ~doc)

let method_name =
  let doc = "Integrator: dopri5, rosenbrock, or an RK4 step size." in
  Arg.(value & opt string "rosenbrock" & info [ "m"; "method" ] ~doc)

let csv_out =
  let doc = "Write the trajectory as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let plot_species =
  let doc = "Render an ASCII plot of this species (repeatable)." in
  Arg.(value & opt_all string [] & info [ "p"; "plot" ] ~docv:"SPECIES" ~doc)

let engine_opt =
  let doc =
    "Simulation engine: $(b,ode) (deterministic mass-action integration, \
     the default), $(b,ssa) (exact Gillespie over molecule counts), \
     $(b,tau) (Poisson tau-leaping), or $(b,hybrid) (adaptive \
     partitioned: fast high-population reactions integrated as ODEs, \
     slow ones exact, tau-leaping in between — see --pop-threshold and \
     --prop-threshold)."
  in
  Arg.(value & opt string "ode" & info [ "engine" ] ~docv:"ENGINE" ~doc)

let pop_threshold =
  let doc =
    "Hybrid engine: a reaction may be treated deterministically only \
     while every reactant population is at least $(docv)."
  in
  Arg.(
    value & opt float 1000. & info [ "pop-threshold" ] ~docv:"N" ~doc)

let prop_threshold =
  let doc =
    "Hybrid engine: a reaction may be treated deterministically only \
     while its propensity is at least $(docv) events per time unit."
  in
  Arg.(
    value & opt float 1000. & info [ "prop-threshold" ] ~docv:"A" ~doc)

let repartition_every =
  let doc =
    "Hybrid engine: re-evaluate the fast/slow partition every $(docv) \
     events or substeps."
  in
  Arg.(
    value & opt int 256 & info [ "repartition-every" ] ~docv:"N" ~doc)

let seed =
  let doc = "Random seed for the stochastic simulator." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let runs =
  let doc =
    "With a stochastic engine (ssa, tau, hybrid), simulate $(docv) \
     independent trajectories (streams split off --seed) and report \
     mean +- std of the final state; the deterministic ode engine refuses \
     --runs other than 1."
  in
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Domains for the ensemble (default: all recommended cores; requests \
     above the core count are clamped with a warning — oversubscribing \
     only slows the run down). Results are identical for every job count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let final_only =
  let doc = "Print the final state even when plotting or dumping CSV." in
  Arg.(value & flag & info [ "final" ] ~doc)

let focus =
  let doc =
    "Slice the network to the cone of influence of this species before \
     simulating (repeatable)."
  in
  Arg.(value & opt_all string [] & info [ "focus" ] ~docv:"SPECIES" ~doc)

let sweep_ratios =
  let doc =
    "Deterministic rate-robustness sweep: simulate the network once per \
     fast/slow ratio $(docv) (repeatable) and report the final state at \
     each. Results are identical for every --sweep-jobs value; --csv \
     writes one row per ratio."
  in
  Arg.(value & opt_all float [] & info [ "sweep-ratio" ] ~docv:"R" ~doc)

let sweep_jobs =
  let doc =
    "Domains for the deterministic sweep (default: all recommended cores; \
     requests above the core count are clamped with a warning)."
  in
  Arg.(value & opt (some int) None & info [ "sweep-jobs" ] ~docv:"N" ~doc)

let connect =
  let doc =
    "Delegate the simulation to a running crnserved daemon or crnsgate \
     gateway at $(docv): unix:PATH, a socket path, HOST:PORT for the \
     wire protocol over TCP, or http://HOST:PORT for a gateway's HTTP \
     front door. Local runs send the same request through the daemon's \
     own pipeline in-process, so output is byte-identical either way; \
     --csv and --plot of a single trajectory stream over the trace op."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)

let deadline_ms =
  let doc =
    "Give up after $(docv) milliseconds of simulation (exit code 4). With \
     --connect the deadline is enforced by the daemon, and the client also \
     arms a socket-read deadline of $(docv) + 1000 ms so a silent server \
     cannot hang it."
  in
  Arg.(
    value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let retries =
  let doc =
    "With --connect, retry up to $(docv) times on a transient transport \
     failure — connect refused, or the connection reset before any \
     response byte arrived — with exponential backoff and jitter. A \
     request whose response has started arriving, or whose read deadline \
     expired, is never re-sent (it may have executed)."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let retry_budget_ms =
  let doc =
    "Total wall-clock budget in milliseconds for the --retries backoff of \
     one operation."
  in
  Arg.(
    value & opt float 2_000. & info [ "retry-budget-ms" ] ~docv:"MS" ~doc)

let validate =
  let doc =
    "Do not simulate: run the exact-arithmetic verification tier \
     (rational conservation-law basis, clock phase non-overlap proof, \
     rate-independence discipline, structural lint) and print the \
     certificate. Exit 0 when the network is certified, 6 when it is \
     rejected. With --connect the daemon's validate op answers and the \
     printed certificate is byte-identical to local execution."
  in
  Arg.(value & flag & info [ "validate" ] ~doc)

let checkpoint =
  let doc =
    "If the run is cancelled by --deadline-ms, write the engine's mid-run \
     state to $(docv) (atomic temp-file-plus-rename) before exiting 4. \
     The file is self-contained: $(b,--resume) $(docv) continues the \
     trajectory to a result bitwise identical to an uninterrupted run. \
     Applies to a single local trajectory of any engine."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume =
  let doc =
    "Continue a simulation from the checkpoint in $(docv) (written by \
     $(b,--checkpoint) or by a daemon's state directory). The network, \
     rate environment, horizon, seed and engine parameters all come from \
     the file; may be combined with $(b,--checkpoint) to re-checkpoint if \
     a new --deadline-ms expires."
  in
  Arg.(
    value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "simulate a chemical reaction network" in
  let info = Cmd.info "crnsim" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run $ source $ t1 $ ratio $ method_name $ csv_out $ plot_species
      $ engine_opt $ seed $ runs $ jobs $ final_only $ focus
      $ sweep_ratios $ sweep_jobs $ connect $ deadline_ms $ retries
      $ retry_budget_ms $ pop_threshold $ prop_threshold $ repartition_every
      $ validate $ checkpoint $ resume)

let () = exit (Cmd.eval' cmd)
