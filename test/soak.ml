(* soak ADDR SECONDS SEED — the CI fault-matrix driver for crnserved.

   Phase 1 runs the deterministic fault matrix once: every fault class
   (torn writes, corrupt frame, oversized prefix, negative prefix, dirty
   close) against a live daemon, checking the structured answer for
   each. Phase 2 hammers the daemon for SECONDS wall-clock seconds with
   concurrent well-formed clients (every response must be ok) and
   malformed clients replaying seeded random fault schedules, garbage
   bytes, torn frames and connect/close churn. All randomness derives
   from SEED, so a failing run replays exactly.

   Exit 0 iff the daemon answered every well-formed request correctly
   during the storm and still answers after it. *)

module J = Service.Json
module W = Service.Wire
module F = Fault
module C = Service.Client

let violations = Atomic.make 0
let ok_requests = Atomic.make 0
let attacks = Atomic.make 0

let vmutex = Mutex.create ()

let violate fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr violations;
      Mutex.lock vmutex;
      Printf.eprintf "soak: VIOLATION: %s\n%!" msg;
      Mutex.unlock vmutex)
    fmt

let ping = J.Obj [ ("op", J.str "ping") ]

let ode_req =
  J.Obj
    [
      ("op", J.str "ode");
      ("network", J.Obj [ ("catalog", J.str "counter2") ]);
      ("t1", J.num 0.5);
      ("ratio", J.num 1000.);
      ("method", J.str "0.01");
      ("deadline_ms", J.num 10_000.);
    ]

let with_raw addr f =
  let fd = Service.Addr.connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      f fd)

let raw_response fd =
  match W.read_frame fd with
  | Some payload -> Some (C.response_of_json (J.of_string payload))
  | None -> None

(* ------------------------------------------- phase 1: the fault matrix *)

let expect_error what fd =
  match raw_response fd with
  | Some resp when not resp.C.ok -> ()
  | Some _ -> violate "%s: daemon answered ok to a malformed stream" what
  | None -> violate "%s: connection closed without a structured error" what

let matrix addr =
  (* torn writes reassemble *)
  with_raw addr (fun fd ->
      W.write_frame_t (F.chop 3 (W.of_fd fd)) (J.to_string ping);
      match raw_response fd with
      | Some resp when resp.C.ok -> ()
      | _ -> violate "matrix: torn request not served");
  (* corrupt first payload byte -> structured bad_request, conn survives *)
  with_raw addr (fun fd ->
      let t = F.wrap ~on_write:[ F.Corrupt { at = 4; xor = 1 } ] (W.of_fd fd) in
      W.write_frame_t t (J.to_string ping);
      expect_error "matrix: corrupt frame" fd;
      W.write_frame fd (J.to_string ping);
      match raw_response fd with
      | Some resp when resp.C.ok -> ()
      | _ -> violate "matrix: connection did not survive a corrupt frame");
  (* oversized prefix -> structured error then close *)
  with_raw addr (fun fd ->
      let prefix = Bytes.create 4 in
      Bytes.set_int32_be prefix 0 0x7f00_0000l;
      ignore (Unix.write fd prefix 0 4);
      expect_error "matrix: oversized prefix" fd);
  (* negative prefix -> structured error then close *)
  with_raw addr (fun fd ->
      ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4);
      expect_error "matrix: negative prefix" fd);
  (* dirty close: half a frame, then vanish — the daemon just absorbs it *)
  with_raw addr (fun fd ->
      let torn = Bytes.make 9 'x' in
      Bytes.set_int32_be torn 0 100l;
      ignore (Unix.write fd torn 0 9));
  (* and after all of that, a clean request is served *)
  with_raw addr (fun fd ->
      W.write_frame fd (J.to_string ping);
      match raw_response fd with
      | Some resp when resp.C.ok -> ()
      | _ -> violate "matrix: daemon not serving after the fault matrix")

(* ------------------------------------------------ phase 2: the storm *)

let well_formed addr ~deadline ~seed =
  let rng = Numeric.Rng.create seed in
  while Unix.gettimeofday () < deadline do
    match
      let c = C.connect ~retries:3 ~retry_budget_ms:2_000.
          ~retry_seed:(Numeric.Rng.uint64 rng) ~read_deadline_ms:15_000. addr
      in
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          for _ = 1 to 1 + Numeric.Rng.int rng 5 do
            let req = if Numeric.Rng.int rng 4 = 0 then ode_req else ping in
            let resp = C.request c req in
            if resp.C.ok then Atomic.incr ok_requests
            else
              (* the daemon may shed load explicitly; anything else is a
                 correctness violation *)
              match resp.C.error with
              | Some (Service.Error.Overloaded _)
              | Some (Service.Error.Connection_limit _) ->
                  ()
              | _ ->
                  violate "well-formed request failed: %s"
                    (Option.value ~default:"?" resp.C.error_message)
          done)
    with
    | () -> ()
    | exception C.Timeout _ ->
        violate "well-formed client timed out waiting for a response"
    | exception e ->
        violate "well-formed client died: %s" (Printexc.to_string e)
  done

let malformed addr ~deadline ~seed =
  let rng = Numeric.Rng.create seed in
  while Unix.gettimeofday () < deadline do
    Atomic.incr attacks;
    (try
       with_raw addr (fun fd ->
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
           match Numeric.Rng.int rng 5 with
           | 0 ->
               (* seeded random fault schedule over a ping *)
               let req = J.to_string ping in
               let len = 4 + String.length req in
               let sched =
                 F.random_schedule ~rng ~len (1 + Numeric.Rng.int rng 2)
               in
               W.write_frame_t (F.wrap ~on_write:sched (W.of_fd fd)) req;
               ignore (raw_response fd)
           | 1 ->
               (* raw garbage *)
               let n = 1 + Numeric.Rng.int rng 64 in
               let junk =
                 Bytes.init n (fun _ -> Char.chr (Numeric.Rng.int rng 256))
               in
               ignore (Unix.write fd junk 0 n);
               ignore (raw_response fd)
           | 2 ->
               (* torn frame, then hang up *)
               let torn = Bytes.make 10 'z' in
               Bytes.set_int32_be torn 0
                 (Int32.of_int (64 + Numeric.Rng.int rng 4096));
               ignore (Unix.write fd torn 0 (1 + Numeric.Rng.int rng 9))
           | 3 ->
               (* oversized prefix *)
               let prefix = Bytes.create 4 in
               Bytes.set_int32_be prefix 0
                 (Int32.of_int (0x1000_0000 + Numeric.Rng.int rng 1000));
               ignore (Unix.write fd prefix 0 4);
               ignore (raw_response fd)
           | _ -> (* connect/close churn *) ())
     with
    | Unix.Unix_error _ | W.Framing_error _ | W.Oversized_frame _
    | J.Parse_error _ ->
        (* the attack connection dying is the expected outcome *)
        ());
    ignore (Unix.sleepf 0.002)
  done

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Sys.argv with
  | [| _; addr_s; secs_s; seed_s |] -> (
      match Service.Addr.of_string addr_s with
      | Error msg ->
          Printf.eprintf "soak: %s\n" msg;
          exit 2
      | Ok addr ->
          let secs = float_of_string secs_s in
          let seed = Int64.of_string seed_s in
          Printf.printf "soak: %s for %.0fs, seed %Ld\n%!" addr_s secs seed;
          matrix addr;
          Printf.printf "soak: deterministic fault matrix done\n%!";
          let deadline = Unix.gettimeofday () +. secs in
          let rng = Numeric.Rng.create seed in
          let spawn f = Domain.spawn (fun () -> f addr ~deadline ~seed:(Numeric.Rng.uint64 rng)) in
          let doms =
            [ spawn well_formed; spawn well_formed ]
            @ [ spawn malformed; spawn malformed; spawn malformed ]
          in
          List.iter Domain.join doms;
          (* the daemon must still serve after the storm *)
          with_raw addr (fun fd ->
              W.write_frame fd (J.to_string ping);
              match raw_response fd with
              | Some resp when resp.C.ok -> ()
              | _ -> violate "daemon not serving after the storm");
          Printf.printf
            "soak: %d ok responses, %d attack connections, %d violations\n%!"
            (Atomic.get ok_requests) (Atomic.get attacks)
            (Atomic.get violations);
          exit (if Atomic.get violations = 0 then 0 else 1))
  | _ ->
      prerr_endline "usage: soak ADDR SECONDS SEED";
      exit 2
