(* The engine registry, driven from its own table: every engine answers
   byte-identically in-process (the path crnsim takes without
   --connect), through a daemon, and through a gateway's wire and HTTP
   doors — final state, ensemble where stochastic, and trace; every
   knob outside its engine's range is a bad_request (exit 2) on both
   paths through the ops that read it, and ignored by the others; a
   served rk4 deadline checkpoint resumes bitwise, and an in-process
   trace checkpoint resumes to the whole trace. *)

module J = Service.Json
module C = Service.Client
module E = Service.Engines

let check_string = Alcotest.(check string)

let base ?(design = "counter2") op =
  [
    ("op", J.str op);
    ("network", J.Obj [ ("catalog", J.str design) ]);
    ("t1", J.num 5.);
    ("ratio", J.num 1000.);
    ("seed", J.int 7);
  ]

let stochastic (e : E.entry) = e.E.worker <> None

(* every request class each registry entry takes *)
let requests () =
  List.concat_map
    (fun (e : E.entry) ->
      let name = e.E.name in
      [ (name ^ " final", J.Obj (base name)) ]
      @ (if stochastic e then
           [
             ( name ^ " ensemble",
               J.Obj
                 (base "ensemble"
                 @ [
                     ("engine", J.str name);
                     ("runs", J.int 4);
                     ("jobs", J.int 1);
                   ]) );
           ]
         else [])
      @ [
          ( name ^ " trace",
            J.Obj
              (base "trace"
              @ [
                  ("engine", J.str name);
                  ("thin", J.int 5);
                  ("chunk", J.int 64);
                ]) );
        ])
    E.all

let is_trace req = J.member "op" req = Some (J.str "trace")

(* frames and the final envelope, metrics stripped: the deterministic
   bytes of one answer *)
let answer call req =
  let frames = ref [] in
  let final =
    call req ~on_frame:(fun f -> frames := J.to_string f :: !frames)
  in
  if not (C.response_of_json final).C.ok then
    Alcotest.failf "request failed: %s" (J.to_string final);
  String.concat "\n" (List.rev (Test_gateway.canon final :: !frames))

let remote client req ~on_frame =
  if is_trace req then C.call_stream client req ~on_frame else C.call client req

let test_doors_identical () =
  Test_gateway.with_fleet ~shards:2 ~http:true (fun gate_addr shard_addrs ->
      let http_addr = Service.Addr.Http ("127.0.0.1", Test_gateway.http_port) in
      Test_gateway.with_client (List.hd shard_addrs) (fun daemon ->
          Test_gateway.with_client gate_addr (fun wire ->
              Test_gateway.with_client http_addr (fun http ->
                  List.iter
                    (fun (name, req) ->
                      let local =
                        answer
                          (fun req ~on_frame ->
                            Service.Server.call ~on_frame req)
                          req
                      in
                      check_string (name ^ ": daemon = in-process") local
                        (answer (remote daemon) req);
                      check_string (name ^ ": gateway wire = in-process") local
                        (answer (remote wire) req);
                      check_string (name ^ ": gateway http = in-process") local
                        (answer (remote http) req))
                    (requests ())))))

(* ------------------------------------------------------- knob ranges *)

(* each bounded knob at its first invalid value, and the ops that read
   it: the engine's own op, the trace op, and the ensemble *)
let bad_knobs =
  let run_trace = [ E.Run; E.Trace ] in
  let every = E.Ensemble :: run_trace in
  [
    ("ssa", "sample_dt", J.num 0., run_trace);
    ("tau", "sample_dt", J.num 0., run_trace);
    ("hybrid", "sample_dt", J.num 0., run_trace);
    ("hybrid", "pop_threshold", J.num 0., every);
    ("hybrid", "prop_threshold", J.num 0., every);
    ("hybrid", "repartition_every", J.int 0, every);
    ("hybrid", "epsilon", J.num 0., run_trace);
    ("hybrid", "epsilon", J.num 1., run_trace);
    ("ode", "thin", J.int 0, [ E.Trace ]);
    ("ode", "method", J.num 0., run_trace);
  ]

let knob_request engine use knob =
  match use with
  | E.Run -> J.Obj (base engine @ knob)
  | E.Trace -> J.Obj (base "trace" @ [ ("engine", J.str engine) ] @ knob)
  | E.Ensemble ->
      J.Obj
        (base "ensemble"
        @ [ ("engine", J.str engine); ("runs", J.int 2); ("jobs", J.int 1) ]
        @ knob)

let use_name = function
  | E.Run -> "run"
  | E.Trace -> "trace"
  | E.Ensemble -> "ensemble"

(* every (name, request, read) an engine's bad knob makes: [read] when
   the op reads the knob and must refuse it, otherwise the op ignores
   the field as it always has *)
let knob_requests () =
  List.concat_map
    (fun (engine, key, v, reads) ->
      let e = Option.get (E.find engine) in
      List.filter_map
        (fun use ->
          if use = E.Ensemble && not (stochastic e) then None
          else
            Some
              ( Printf.sprintf "%s %s %s" (use_name use) engine key,
                knob_request engine use [ (key, v) ],
                List.mem use reads ))
        [ E.Run; E.Trace; E.Ensemble ])
    bad_knobs
  (* the deterministic engine has no ensemble *)
  @ [ ("ensemble ode", knob_request "ode" E.Ensemble [], true) ]

let expect_bad_request what (resp : C.response) =
  match resp.C.error with
  | Some (Service.Error.Bad_request _ as err) ->
      Alcotest.(check int) (what ^ ": exit 2") 2 (Service.Error.exit_code err)
  | Some err ->
      Alcotest.failf "%s: expected bad_request, got %s (%s)" what
        (Service.Error.code err)
        (Option.value ~default:"" resp.C.error_message)
  | None -> Alcotest.failf "%s: accepted" what

let expect_ok what (resp : C.response) =
  if not resp.C.ok then
    Alcotest.failf "%s: refused a knob the op does not read (%s)" what
      (Option.value ~default:"" resp.C.error_message)

let test_knob_ranges () =
  Test_gateway.with_fleet ~shards:1 (fun _ shard_addrs ->
      Test_gateway.with_client (List.hd shard_addrs) (fun daemon ->
          List.iter
            (fun (name, req, read) ->
              let expect = if read then expect_bad_request else expect_ok in
              expect (name ^ " in-process")
                (C.response_of_json (Service.Server.call req));
              expect (name ^ " daemon")
                (C.response_of_json (remote daemon req ~on_frame:ignore)))
            (knob_requests ())))

(* ------------------------------------------------------- checkpoints *)

(* counter2 to t = 400 in rk4 steps of 0.002: long enough that a 100 ms
   deadline cancels it mid-run *)
let rk4_request ?(extra = []) op deadline =
  J.Obj
    ([
       ("op", J.str op);
       ("network", J.Obj [ ("catalog", J.str "counter2") ]);
       ("t1", J.num 400.);
       ("method", J.str "0.002");
     ]
    @ extra @ deadline)

let deadline = [ ("deadline_ms", J.num 100.) ]

(* the checkpoint token of a deadline_exceeded answer *)
let checkpoint_of what (resp : C.response) =
  match resp.C.error with
  | Some (Service.Error.Deadline_exceeded { checkpoint; _ }) -> checkpoint
  | _ -> Alcotest.failf "%s: expected deadline_exceeded" what

(* a daemon with a state directory cancels an rk4 run on its deadline
   and names the checkpoint it wrote; resuming that file finishes on the
   uninterrupted run's final state, bit for bit. The directory does not
   exist beforehand: the daemon creates it. A streamed trace keeps no
   checkpoint there: resuming one would need every sample already
   sent. *)
let test_served_rk4_resume () =
  let dir = Test_snapshot.tmpdir () in
  let state = Filename.concat (Filename.concat dir "state") "nested" in
  let sock = Filename.concat dir "d.sock" in
  let address = Service.Addr.Unix_sock sock in
  let stop = Atomic.make false in
  let config =
    { (Service.Server.default_config address) with
      Service.Server.jobs = 1;
      state_dir = Some state }
  in
  let d =
    Domain.spawn (fun () ->
        Service.Server.run ~stop:(fun () -> Atomic.get stop) config)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    (fun () ->
      Test_gateway.wait_up address;
      let token =
        match
          checkpoint_of "ode"
            (Test_gateway.with_client address (fun c ->
                 C.request c (rk4_request "ode" deadline)))
        with
        | Some t -> t
        | None -> Alcotest.fail "ode: no checkpoint"
      in
      let sc =
        Service.Snapshot.decode_sim
          (Service.Binio.read_raw (Filename.concat state token))
      in
      let final envelope =
        let result = Option.get (C.response_of_json envelope).C.result in
        List.map
          (fun x -> Int64.bits_of_float (Option.get (J.to_float x)))
          (Option.get (J.to_list (Option.get (J.member "final" result))))
      in
      let resumed = final (Service.Server.resume sc) in
      let full = final (Service.Server.call (rk4_request "ode" [])) in
      Alcotest.(check (list int64))
        "resumed = uninterrupted (bits)" full resumed;
      let traced =
        Test_gateway.with_client address (fun c ->
            C.call_stream c
              (rk4_request "trace" deadline
                 ~extra:[ ("engine", J.str "ode"); ("thin", J.int 500) ])
              ~on_frame:ignore)
      in
      Alcotest.(check (option string))
        "a served trace keeps no checkpoint" None
        (checkpoint_of "trace" (C.response_of_json traced)))

(* an in-process trace with a checkpoint file (crnsim --checkpoint)
   keeps every sample recorded before its deadline, so the resumed
   trace is frame for frame the uninterrupted one *)
let test_trace_checkpoint_resume () =
  let path = Filename.concat (Test_snapshot.tmpdir ()) "trace.sim" in
  let req =
    rk4_request "trace"
      ~extra:[ ("engine", J.str "ode"); ("thin", J.int 500) ]
  in
  Alcotest.(check (option string))
    "the deadline error names the file" (Some path)
    (checkpoint_of "trace"
       (C.response_of_json (Service.Server.call ~checkpoint:path (req deadline))));
  let sc = Service.Snapshot.decode_sim (Service.Binio.read_raw path) in
  check_string "resumed trace = uninterrupted trace"
    (answer (fun req ~on_frame -> Service.Server.call ~on_frame req) (req []))
    (answer (fun _ ~on_frame -> Service.Server.resume ~on_frame sc) (req []))

(* --------------------------------------------------------- blow-up *)

(* X -> 2X at the fast rate overflows near t = 0.71: a served ode run
   must answer solver_failure (exit 3), not hold its worker forever.
   The deadline turns a regression into a failure rather than a hang. *)
let test_blowup_is_solver_failure () =
  List.iter
    (fun method_ ->
      let req =
        J.Obj
          [
            ("op", J.str "ode");
            ( "network",
              J.Obj [ ("text", J.str "init X 1\nX ->{fast} 2 X\n") ] );
            ("t1", J.num 0.72);
            ("method", J.str method_);
            ("deadline_ms", J.num 10_000.);
          ]
      in
      match (C.response_of_json (Service.Server.call req)).C.error with
      | Some (Service.Error.Solver_failure _ as err) ->
          Alcotest.(check int)
            (method_ ^ ": exit 3") 3
            (Service.Error.exit_code err)
      | Some err ->
          Alcotest.failf "%s: expected solver_failure, got %s" method_
            (Service.Error.code err)
      | None -> Alcotest.failf "%s: integrated past the overflow" method_)
    [ "rosenbrock"; "dopri5" ]

let suite =
  [
    Alcotest.test_case "every engine: in-process = daemon = gateway" `Quick
      test_doors_identical;
    Alcotest.test_case "knob ranges: bad_request where read, else ignored"
      `Quick test_knob_ranges;
    Alcotest.test_case "served rk4 checkpoint resumes bitwise" `Quick
      test_served_rk4_resume;
    Alcotest.test_case "in-process trace checkpoint resumes whole" `Quick
      test_trace_checkpoint_resume;
    Alcotest.test_case "ode blow-up answers solver_failure" `Quick
      test_blowup_is_solver_failure;
  ]
