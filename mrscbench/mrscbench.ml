(* The repository benchmark.

     mrscbench.exe --workload ode-clocked|stochastic-ensemble|serve-mixed
                   --seed N --seconds S --trace 0|1 [--served PATH --gate PATH]

   Runs one workload for about S seconds from inputs drawn from the
   seed, checks every output against properties that hold for any seed,
   and prints a report on stderr and, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, measured with tracing
   off; with --trace 1 they are the per-layer ones from a run with the
   benchmark's spans around every call into a library layer. The full
   run record (configuration, host block, per-design and per-class
   details) and, for traced runs, the spans are written under
   .mrscbench/. Exits 1 when an output check fails.

   --setup-only (ode-clocked) runs one set-up in this fresh process and
   prints its time; the ode-clocked workload starts itself that way to
   time set-ups that the library's per-process caches cannot shorten. *)

open Common

(* Every per-layer metric, in report order. Each traced run reports all
   of them: a layer a workload never enters reads 0. The traced.* rows
   repeat the end-to-end metrics as measured with tracing on, so the
   tracing overhead is traced.X minus the untraced run's X. *)
let per_layer_names =
  [
    ("designs.synth_ms", "ms");
    ("crn.parse_ms", "ms");
    ("crn.canon_ms", "ms");
    ("ode.compile_ms", "ms");
    ("ssa.compile_ms", "ms");
    ("hybrid.compile_ms", "ms");
    ("ode.steps", "count");
    ("ode.rejected", "count");
    ("ode.factorizations", "count");
    ("ode.jac_evals", "count");
    ("ode.integrate_s", "s");
    ("ode.rhs_s", "s");
    ("ode.jac_s", "s");
    ("numeric.lu_factor_s", "s");
    ("numeric.lu_solve_s", "s");
    ("ode.step_other_s", "s");
    ("ode.jac_density", "ratio");
    ("numeric.pool_busy_share", "ratio");
    ("ssa.events", "count");
    ("ssa.events_per_s", "1/s");
    ("hybrid.ssa_events", "count");
    ("hybrid.tau_leaps", "count");
    ("hybrid.ode_steps", "count");
    ("hybrid.repartitions", "count");
    ("hybrid.mode_switches", "count");
    ("hybrid.rejected", "count");
    ("hybrid.busy_s", "s");
    ("hybrid.conservation_ok_share", "ratio");
    ("hybrid.law_max_dev", "count");
    ("analysis.decode_ms", "ms");
    ("analysis.decode_ok_share", "ratio");
    ("exact.certify_ms", "ms");
    ("service.queue_wait_ms", "ms");
    ("service.compile_ms", "ms");
    ("service.run_ms", "ms");
    ("service.total_ms", "ms");
    ("service.dispatch_ms", "ms");
    ("service.cache_hits", "count");
    ("service.cache_misses", "count");
    ("service.encode_ms", "ms");
    ("service.bytes_out", "bytes");
    ("service.relay_ms", "ms");
    ("gateway.route_memo_misses", "count");
    ("loadgen.lag_ms", "ms");
  ]

let end_to_end_names =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("class_a_ms", "ms");
    ("class_b_ms", "ms");
    ("class_c_ms", "ms");
    ("class_d_ms", "ms");
  ]

(* The workload's metrics in the canonical order; a name it does not
   measure reads 0, a name outside the list is a bug. *)
let complete names (ms : metric list) =
  List.iter
    (fun (x : metric) ->
      if not (List.mem_assoc x.name names) then
        failwith ("metric outside BENCHMARK.json: " ^ x.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : metric) -> x.name = name) ms with
      | Some x -> x
      | None -> m name unit_ 0.)
    names

let usage () =
  prerr_endline
    "usage: mrscbench --workload ode-clocked|stochastic-ensemble|serve-mixed \
     --seed N --seconds S --trace 0|1 [--served PATH] [--gate PATH]";
  exit 2

let () =
  (* a signal still runs the at_exit hooks that stop the serve fleet *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and served = ref "" and gate = ref "" in
  let setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | "--served" :: v :: rest ->
        served := v;
        parse rest
    | "--gate" :: v :: rest ->
        gate := v;
        parse rest
    | "--setup-only" :: rest ->
        setup_only := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !trace <> 0 && !trace <> 1 then usage ();
  if !seconds <= 0. then usage ();
  (* one ode-clocked set-up in this fresh process; prints its time *)
  if !setup_only then begin
    if !workload <> "ode-clocked" then usage ();
    Printf.printf "%.17g\n" (Wl_ode.setup_time ~seed:!seed);
    exit 0
  end;
  let traced = !trace = 1 in
  Tr.enabled := traced;
  let out_dir = ".mrscbench" in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let seed = !seed and seconds = !seconds in
  let started = now () in
  let o =
    match !workload with
    | "ode-clocked" -> Wl_ode.run ~seed ~seconds ~traced
    | "stochastic-ensemble" -> Wl_ensemble.run ~seed ~seconds
    | "serve-mixed" ->
        let exe name default = if name = "" then default else name in
        Wl_serve.run
          ~gate:(exe !gate "_build/default/bin/crnsgate.exe")
          ~served:(exe !served "_build/default/bin/crnserved.exe")
          ~seed ~seconds ~traced
    | _ -> usage ()
  in
  let end_to_end = complete end_to_end_names o.end_to_end in
  let metrics =
    if traced then
      complete per_layer_names o.per_layer
      @ List.map (fun (x : metric) -> { x with name = "traced." ^ x.name }) end_to_end
    else end_to_end
  in
  let correct = o.checks_ok && o.failed = 0 in
  List.iter (fun p -> Printf.eprintf "FAIL %s\n" p) o.problems;
  Printf.eprintf "%s seed %d trace %d: %d attempted, %d failed, %.1f s\n"
    !workload seed !trace o.attempted o.failed (now () -. started);
  List.iter
    (fun { name; value; unit_ } ->
      Printf.eprintf "  %-28s %14.6g %s\n" name value unit_)
    (metrics @ o.named);
  let base =
    Printf.sprintf "%s/%s-seed%d-trace%d" out_dir !workload seed !trace
  in
  (* tracing overhead against the untraced run of the same seed, when
     one was made in this checkout *)
  let overhead =
    let untraced = Printf.sprintf "%s/%s-seed%d-trace0.json" out_dir !workload seed in
    if not (traced && Sys.file_exists untraced) then []
    else
      match
        J.member "metrics"
          (J.of_string (In_channel.with_open_text untraced In_channel.input_all))
      with
      | Some plain ->
          [
            ( "tracing_overhead",
              J.Obj
                (List.filter_map
                   (fun (x : metric) ->
                     Option.map
                       (fun v -> (x.name, jnum (x.value -. v)))
                       (Option.bind (J.member x.name plain) (fun e ->
                            Option.bind (J.member "value" e) J.to_float)))
                   end_to_end) );
          ]
      | None -> []
      | exception _ -> []
  in
  let record =
    J.Obj
      ([
         ("workload", jstr !workload);
         ("seed", jint seed);
         ("seconds", jnum seconds);
         ("trace", jint !trace);
         ("host", J.of_string (Bench_host.json ()));
         ("correct", J.Bool correct);
         ("attempted", jint o.attempted);
         ("failed", jint o.failed);
         ("problems", J.List (List.map jstr o.problems));
         ("metrics", metrics_json metrics);
         ("named_metrics", metrics_json o.named);
       ]
      @ overhead @ o.info)
  in
  let oc = open_out (base ^ ".json") in
  output_string oc (J.to_string record);
  output_char oc '\n';
  close_out oc;
  if traced then Tr.write (base ^ ".spans.jsonl");
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", jint o.attempted);
            ("failed", jint o.failed);
            ("metrics", metrics_json metrics);
          ]));
  exit (if correct then 0 else 1)
