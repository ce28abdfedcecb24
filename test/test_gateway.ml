(* The gateway offensive: an in-process fleet (real [Service.Server]
   daemons in domains, attached to an in-process [Service.Gateway])
   driven through the acceptance bar — responses byte-identical to
   direct daemon execution over both front doors, cache affinity
   observable from the envelope's own metrics, admission control
   answering with the structured retryable [overloaded], a shard dying
   mid-request yielding a structured [shard_failed] (never a hang), a
   dead shard failed over transparently, and the client retry policy
   proven side-effect-safe against a scripted fake daemon. *)

module J = Service.Json
module W = Service.Wire
module C = Service.Client
module G = Service.Gateway

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mrsc-gw-%d-%s" (Unix.getpid ()) name)

(* one free-ish TCP port per test process for the HTTP front door *)
let http_port = 18000 + (Unix.getpid () mod 20000)

(* ------------------------------------------------------- fleet harness *)

let start_daemon ?max_conns path =
  (try Unix.unlink path with _ -> ());
  let address = Service.Addr.Unix_sock path in
  let stop = Atomic.make false in
  let config = Service.Server.default_config address in
  let config =
    {
      config with
      Service.Server.max_conns =
        Option.value ~default:config.Service.Server.max_conns max_conns;
    }
  in
  let d =
    Domain.spawn (fun () ->
        Service.Server.run ~stop:(fun () -> Atomic.get stop) config)
  in
  (address, stop, d)

let stop_daemon (_, stop, d) =
  Atomic.set stop true;
  Domain.join d

let wait_up ?(tries = 250) addr =
  let rec go tries =
    match Service.Addr.connect addr with
    | fd -> Unix.close fd
    | exception _ ->
        if tries = 0 then Alcotest.fail "endpoint did not come up";
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go tries

(* [f gate_addr shard_addrs] against a live gateway over [shards]
   in-process daemons (plus any [extra] attached addresses) *)
let with_fleet ?(shards = 2) ?(extra = []) ?(affinity = true)
    ?(max_inflight = 64) ?(http = false) ?(boot_timeout_ms = 10_000.)
    ?max_conns f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let daemons =
    List.init shards (fun i ->
        start_daemon (tmp (Printf.sprintf "shard%d.sock" i)))
  in
  let shard_addrs = List.map (fun (a, _, _) -> a) daemons in
  List.iter wait_up shard_addrs;
  let gate_path = tmp "gate.sock" in
  (try Unix.unlink gate_path with _ -> ());
  let gate_addr = Service.Addr.Unix_sock gate_path in
  let cfg =
    {
      (G.default_config (G.Attach (shard_addrs @ extra))) with
      G.wire = Some gate_addr;
      http = (if http then Some (Service.Addr.Tcp ("127.0.0.1", http_port))
              else None);
      affinity;
      max_inflight;
      boot_timeout_ms;
    }
  in
  let cfg =
    { cfg with G.max_conns = Option.value ~default:cfg.G.max_conns max_conns }
  in
  let gstop = Atomic.make false in
  let gd =
    Domain.spawn (fun () ->
        G.run ~stop:(fun () -> Atomic.get gstop) cfg)
  in
  wait_up gate_addr;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gstop true;
      Domain.join gd;
      List.iter stop_daemon daemons)
    (fun () -> f gate_addr shard_addrs)

let ode_req ?(ratio = 1000.) ?(design = "counter2") ?(t1 = 5.) () =
  J.Obj
    [
      ("op", J.str "ode");
      ("network", J.Obj [ ("catalog", J.str design) ]);
      ("t1", J.num t1);
      ("ratio", J.num ratio);
    ]

let ssa_req ?(seed = 7) ?(design = "counter2") ?(t1 = 5.) () =
  J.Obj
    [
      ("op", J.str "ssa");
      ("network", J.Obj [ ("catalog", J.str design) ]);
      ("t1", J.num t1);
      ("seed", J.int seed);
    ]

let trace_req ~engine =
  J.Obj
    ([
       ("op", J.str "trace");
       ("engine", J.str engine);
       ("network", J.Obj [ ("catalog", J.str "clock4") ]);
       ("t1", J.num 0.5);
       ("thin", J.int 5);
       ("ratio", J.num 1000.);
     ]
    @ if engine = "ssa" then [ ("seed", J.int 11) ] else [])

(* the deterministic face of an envelope: everything but the metrics
   object (whose timings differ between two executions of the same
   request); [to_string]/[of_string] round-trip bit-exactly, so string
   equality here is byte equality of the wire fields *)
let canon j =
  match j with
  | J.Obj fields ->
      J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "metrics") fields))
  | other -> J.to_string other

let with_client addr f =
  let c = C.connect addr in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

(* ---------------------------------------------- byte-identity: finals *)

(* every op class through the gateway (wire and HTTP front doors)
   answers with the same bytes — modulo execution timing — as a direct
   daemon connection *)
let test_byte_identity () =
  with_fleet ~shards:2 ~http:true (fun gate_addr shard_addrs ->
      let requests =
        [
          ("ping", J.Obj [ ("op", J.str "ping") ]);
          ("ode", ode_req ());
          ("ode rosenbrock",
           J.Obj
             [
               ("op", J.str "ode");
               ("network", J.Obj [ ("catalog", J.str "clock4") ]);
               ("t1", J.num 2.);
               ("method", J.str "rosenbrock");
             ]);
          ("ssa", ssa_req ());
          (* relaxation-chassis catalog entries travel the same three
             front doors: the gateway must treat a chassis variant as
             just another design name *)
          ("rx validate",
           J.Obj
             [
               ("op", J.str "validate");
               ("network", J.Obj [ ("catalog", J.str "rx-counter2") ]);
             ]);
          ("rx ode", ode_req ~design:"rx-counter2" ());
          ("rx ensemble",
           J.Obj
             [
               ("op", J.str "ensemble");
               ("network", J.Obj [ ("catalog", J.str "rx-counter2") ]);
               ("t1", J.num 5.);
               ("ratio", J.num 1000.);
               ("seed", J.int 7);
               ("runs", J.int 3);
               ("jobs", J.int 1);
             ]);
          ("unknown design",
           J.Obj
             [
               ("op", J.str "ode");
               ("network", J.Obj [ ("catalog", J.str "nonesuch") ]);
               ("t1", J.num 1.);
             ]);
          ("bad op", J.Obj [ ("op", J.str "transmogrify") ]);
        ]
      in
      let direct_addr = List.hd shard_addrs in
      let http_addr = Service.Addr.Http ("127.0.0.1", http_port) in
      with_client direct_addr (fun direct ->
          with_client gate_addr (fun wire ->
              with_client http_addr (fun http ->
                  List.iter
                    (fun (name, req) ->
                      let d = canon (C.call direct req) in
                      let w = canon (C.call wire req) in
                      let h = canon (C.call http req) in
                      check_string (name ^ ": wire gateway = direct") d w;
                      check_string (name ^ ": http gateway = direct") d h)
                    requests))))

(* --------------------------------------------- byte-identity: streams *)

let collect_stream client req =
  let frames = ref [] in
  let final =
    C.call_stream client req ~on_frame:(fun f -> frames := f :: !frames)
  in
  (List.rev_map J.to_string !frames, canon final)

let test_stream_identity () =
  with_fleet ~shards:2 ~http:true (fun gate_addr shard_addrs ->
      let http_addr = Service.Addr.Http ("127.0.0.1", http_port) in
      List.iter
        (fun engine ->
          let req = trace_req ~engine in
          let d_frames, d_final =
            with_client (List.hd shard_addrs) (fun c -> collect_stream c req)
          in
          check_bool (engine ^ ": stream has header + chunks") true
            (List.length d_frames >= 2);
          let w_frames, w_final =
            with_client gate_addr (fun c -> collect_stream c req)
          in
          let h_frames, h_final =
            with_client http_addr (fun c -> collect_stream c req)
          in
          check_bool (engine ^ ": wire frames identical") true
            (d_frames = w_frames);
          check_bool (engine ^ ": http frames identical") true
            (d_frames = h_frames);
          check_string (engine ^ ": wire final = direct") d_final w_final;
          check_string (engine ^ ": http final = direct") d_final h_final)
        [ "ode"; "ssa" ])

(* ------------------------------------------------------ cache affinity *)

let cache_of (resp : C.response) =
  Option.value ~default:"?"
    (Option.bind (Option.bind resp.metrics (J.member "cache")) J.to_str)

(* a repeated source hits the compiled-model cache through the gateway:
   the ring sent it back to the shard that compiled it *)
let test_affinity_cache_hits () =
  with_fleet ~shards:2 (fun gate_addr _ ->
      with_client gate_addr (fun c ->
          List.iter
            (fun design ->
              let req = ode_req ~design () in
              let first = C.request c req in
              check_bool (design ^ ": first call ok") true first.ok;
              for i = 1 to 3 do
                let again = C.request c req in
                check_bool (design ^ ": repeat ok") true again.ok;
                check_string
                  (Printf.sprintf "%s: repeat %d is a cache hit" design i)
                  "hit" (cache_of again)
              done)
            [ "counter2"; "clock4"; "ma2" ]))

(* ----------------------------------- admission control + shard death *)

(* One fake shard that accepts the gateway's boot probe, swallows the
   first forwarded request without answering, and closes on command.
   With max_inflight = 1 this pins both halves of the degraded path:
   the second request is refused with the structured retryable
   [overloaded] (never spilled), and closing the connection turns the
   first request into a structured [shard_failed] — not a hang. *)
let test_overloaded_then_shard_failed () =
  let fake_path = tmp "fake.sock" in
  (try Unix.unlink fake_path with _ -> ());
  let fake_addr = Service.Addr.Unix_sock fake_path in
  let lfd = Service.Addr.listen fake_addr in
  let got_request = Atomic.make false and release = Atomic.make false in
  let fake =
    Domain.spawn (fun () ->
        let conn, _ = Unix.accept lfd in
        (* the boot-probe connection is pooled by the gateway, so the
           first forwarded request arrives right here *)
        ignore (W.read_frame conn);
        Atomic.set got_request true;
        while not (Atomic.get release) do
          Unix.sleepf 0.01
        done;
        (try Unix.close conn with _ -> ());
        try Unix.close lfd with _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join fake;
      try Unix.unlink fake_path with _ -> ())
    (fun () ->
      with_fleet ~shards:0 ~extra:[ fake_addr ] ~max_inflight:1
        (fun gate_addr _ ->
          let blocked =
            Domain.spawn (fun () ->
                with_client gate_addr (fun c -> C.request c (ode_req ())))
          in
          let rec wait_swallowed tries =
            if not (Atomic.get got_request) then begin
              if tries = 0 then Alcotest.fail "fake shard never got the frame";
              Unix.sleepf 0.02;
              wait_swallowed (tries - 1)
            end
          in
          wait_swallowed 250;
          (* shard 0 is now at its in-flight bound *)
          let refused =
            with_client gate_addr (fun c -> C.request c (ode_req ()))
          in
          check_bool "second request refused" false refused.ok;
          check_bool "refusal is structured overloaded" true
            (match refused.error with
            | Some (Service.Error.Overloaded { queue_bound }) ->
                queue_bound = 1
            | _ -> false);
          (* kill the shard mid-exchange: the blocked request must get
             a structured reply, not a hang *)
          Atomic.set release true;
          let dead = Domain.join blocked in
          check_bool "killed shard answer is structured" false dead.ok;
          check_bool "killed shard answer is shard_failed" true
            (match dead.error with
            | Some (Service.Error.Shard_failed { shard }) -> shard = 0
            | _ -> false)))

(* a shard that is simply gone (nothing listening) is walked past: its
   keys land on the ring successor and every request still succeeds *)
let test_dead_shard_failover () =
  let ghost = Service.Addr.Unix_sock (tmp "ghost.sock") in
  (try Unix.unlink (tmp "ghost.sock") with _ -> ());
  with_fleet ~shards:1 ~extra:[ ghost ] ~boot_timeout_ms:300.
    (fun gate_addr _ ->
      with_client gate_addr (fun c ->
          (* spread keys so some route to the dead shard first *)
          for i = 0 to 9 do
            let resp =
              C.request c (ode_req ~ratio:(500. +. float_of_int i) ())
            in
            check_bool (Printf.sprintf "request %d failed over" i) true
              resp.ok
          done))

(* ------------------------------------------------- health and metrics *)

let http_get path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, http_port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      (* the gateway keeps connections alive, so read until the socket
         goes quiet rather than until EOF *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
      let buf = Bytes.create 65536 and out = Buffer.create 4096 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out buf 0 n;
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2;
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
      in
      drain ();
      Buffer.contents out)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_health_and_metrics () =
  with_fleet ~shards:2 ~http:true (fun gate_addr _ ->
      (* generate some per-shard traffic first *)
      with_client gate_addr (fun c ->
          ignore (C.request c (ode_req ()));
          ignore (C.request c (ssa_req ())));
      let health = http_get "/health" in
      check_bool "health is 200" true
        (contains ~needle:"HTTP/1.1 200" health);
      check_bool "health counts shards up" true
        (contains ~needle:"\"up\":2" health);
      let metrics = http_get "/metrics" in
      List.iter
        (fun needle ->
          check_bool ("metrics exposes " ^ needle) true
            (contains ~needle metrics))
        [
          "mrsc_gateway_requests_total";
          "mrsc_shard_up{shard=\"0\"} 1";
          "mrsc_shard_up{shard=\"1\"} 1";
          "mrsc_shard_requests";
        ];
      (* the aggregated stats op matches: fleet totals sum the shards *)
      with_client gate_addr (fun c ->
          let stats = C.request c (J.Obj [ ("op", J.str "stats") ]) in
          check_bool "stats ok" true stats.ok;
          let result = Option.get stats.result in
          let n_shards =
            match Option.bind (J.member "shards" result) J.to_list with
            | Some l -> List.length l
            | None -> 0
          in
          check_int "stats lists both shards" 2 n_shards;
          check_bool "fleet aggregate present" true
            (J.member "fleet" result <> None)))

(* --------------------------------------- client retry: no duplication *)

(* Scripted fake daemon for the retry policy. Replies to the first
   request with a complete structured [overloaded] envelope and to the
   next with success: the client must retry (2 frames observed) and the
   "work" must run once. Then a response torn mid-frame: the client
   must NOT retry — the daemon may have acted — so exactly 1 frame is
   ever observed. *)
let overloaded_envelope =
  J.to_string
    (J.Obj
       [
         ("ok", J.Bool false);
         ("error",
          Service.Error.to_json (Service.Error.Overloaded { queue_bound = 4 }));
       ])

let ok_envelope =
  J.to_string
    (J.Obj [ ("ok", J.Bool true); ("result", J.Obj [ ("v", J.int 42) ]) ])

let test_retry_overloaded_no_duplicate () =
  let path = tmp "retry.sock" in
  (try Unix.unlink path with _ -> ());
  let addr = Service.Addr.Unix_sock path in
  let lfd = Service.Addr.listen addr in
  let frames = Atomic.make 0 and execs = Atomic.make 0 in
  let fake =
    Domain.spawn (fun () ->
        let conn, _ = Unix.accept lfd in
        let rec serve () =
          match W.read_frame conn with
          | None -> ()
          | Some _ ->
              Atomic.incr frames;
              if Atomic.get frames = 1 then
                W.write_frame conn overloaded_envelope
              else begin
                Atomic.incr execs;
                W.write_frame conn ok_envelope
              end;
              serve ()
        in
        (try serve () with _ -> ());
        (try Unix.close conn with _ -> ());
        try Unix.close lfd with _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join fake;
      try Unix.unlink path with _ -> ())
    (fun () ->
      let c = C.connect ~retries:4 ~retry_budget_ms:5000. addr in
      let resp = C.request c (ode_req ()) in
      C.close c;
      check_bool "retried through overloaded to success" true resp.ok;
      check_int "fake saw exactly two frames" 2 (Atomic.get frames);
      check_int "the work ran exactly once" 1 (Atomic.get execs))

let test_no_retry_after_torn_response () =
  let path = tmp "torn.sock" in
  (try Unix.unlink path with _ -> ());
  let addr = Service.Addr.Unix_sock path in
  let lfd = Service.Addr.listen addr in
  let frames = Atomic.make 0 in
  let stop_accepting = Atomic.make false in
  let fake =
    Domain.spawn (fun () ->
        let conn, _ = Unix.accept lfd in
        (match W.read_frame conn with
        | Some _ ->
            Atomic.incr frames;
            (* a frame header promising 100 bytes, then 10, then close:
               response bytes arrived, so a retry could double-execute *)
            let torn = Bytes.create 14 in
            Bytes.set_int32_be torn 0 100l;
            ignore (Unix.write conn torn 0 14)
        | None -> ());
        (try Unix.close conn with _ -> ());
        (* catch a buggy client that reconnects to retry *)
        Unix.setsockopt_float lfd Unix.SO_RCVTIMEO 0.2;
        (try
           while not (Atomic.get stop_accepting) do
             match Unix.select [ lfd ] [] [] 0.1 with
             | [], _, _ -> ()
             | _ ->
                 let c2, _ = Unix.accept lfd in
                 (match W.read_frame c2 with
                 | Some _ -> Atomic.incr frames
                 | None -> ());
                 Unix.close c2
           done
         with _ -> ());
        try Unix.close lfd with _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop_accepting true;
      Domain.join fake;
      try Unix.unlink path with _ -> ())
    (fun () ->
      let c = C.connect ~retries:4 ~retry_budget_ms:2000. addr in
      let raised =
        match C.call c (ode_req ()) with
        | _ -> false
        | exception (W.Framing_error _ | Failure _) -> true
      in
      C.close c;
      check_bool "torn response raises instead of retrying" true raised;
      (* give a buggy retry time to show up before asserting *)
      Unix.sleepf 0.4;
      check_int "exactly one request ever sent" 1 (Atomic.get frames))

(* ------------------------------------------ the daemon's fault rules *)

let ping_req = J.Obj [ ("op", J.str "ping") ]

let read_envelope fd =
  match W.read_frame fd with
  | Some payload -> J.of_string payload
  | None -> Alcotest.fail "connection closed without a structured answer"

let error_code j =
  Option.value ~default:"?"
    (Option.bind (Option.bind (J.member "error" j) (J.member "code")) J.to_str)

let with_raw addr f =
  let fd = Service.Addr.connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
      f fd)

(* everything the peer sends until it closes *)
let read_to_eof fd =
  let buf = Bytes.create 4096 and out = Buffer.create 512 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out buf 0 n;
        go ()
  in
  go ();
  Buffer.contents out

let body_of_response r =
  let n = String.length r in
  let rec find i =
    if i + 4 > n then Alcotest.fail "no HTTP response"
    else if String.sub r i 4 = "\r\n\r\n" then String.sub r (i + 4) (n - i - 4)
    else find (i + 1)
  in
  find 0

let gate_counter gate_addr key =
  let c = C.connect ~retries:5 ~retry_budget_ms:5_000. gate_addr in
  Fun.protect
    ~finally:(fun () -> C.close c)
    (fun () ->
      let stats = C.request c (J.Obj [ ("op", J.str "stats") ]) in
      match
        Option.bind (Option.bind stats.result (J.member "gateway")) (J.member key)
      with
      | Some v -> Option.value ~default:(-1) (J.to_int v)
      | None -> Alcotest.failf "gateway stats have no %S" key)

(* The gateway's doors keep the daemon's connection rules: a connection
   over the cap is answered with a structured connection_limit (a 503
   with the same envelope on HTTP) and closed, a half-sent frame is
   answered with bad_request and closed at the default 10 s read
   deadline, and the gateway's own stats and /metrics count both. *)
let test_gateway_fault_rules () =
  with_fleet ~shards:1 ~http:true ~max_conns:2 (fun gate_addr _ ->
      with_raw gate_addr (fun fd1 ->
          with_raw gate_addr (fun fd2 ->
              W.write_frame fd1 (J.to_string ping_req);
              W.write_frame fd2 (J.to_string ping_req);
              check_bool "conn 1 served" true
                (J.member "ok" (read_envelope fd1) = Some (J.Bool true));
              check_bool "conn 2 served" true
                (J.member "ok" (read_envelope fd2) = Some (J.Bool true));
              let refused =
                with_raw gate_addr (fun fd3 ->
                    let j = read_envelope fd3 in
                    check_bool "wire refusal closes" true (W.read_frame fd3 = None);
                    j)
              in
              check_string "wire door: connection_limit" "connection_limit"
                (error_code refused);
              check_bool "the cap is named" true
                (Option.bind (J.member "error" refused) (J.member "max_conns")
                = Some (J.int 2));
              let http = Service.Addr.Tcp ("127.0.0.1", http_port) in
              let response = with_raw http read_to_eof in
              check_bool "http door: 503" true
                (contains ~needle:"HTTP/1.1 503" response);
              check_string "http door: the wire door's envelope" (canon refused)
                (canon (J.of_string (body_of_response response))));
          (* half a frame, then silence *)
          let torn = Bytes.make 9 'x' in
          Bytes.set_int32_be torn 0 50l;
          ignore (Unix.write fd1 torn 0 9);
          let t0 = Unix.gettimeofday () in
          let answer = read_envelope fd1 in
          let elapsed = Unix.gettimeofday () -. t0 in
          check_string "half frame: bad_request" "bad_request"
            (error_code answer);
          check_bool
            (Printf.sprintf "answered at the 10 s deadline (%.1f s)" elapsed)
            true
            (elapsed > 9.5 && elapsed < 13.);
          check_bool "half frame: closed" true (W.read_frame fd1 = None));
      check_bool "stats count the refusals" true
        (gate_counter gate_addr "conns_rejected" >= 2);
      check_int "stats count the read timeout" 1
        (gate_counter gate_addr "read_timeouts");
      let metrics = http_get "/metrics" in
      check_bool "/metrics counts the read timeout" true
        (contains ~needle:"mrsc_gateway_read_timeouts 1" metrics))

(* Past FD_SETSIZE a select loop dies with EINVAL, and past the fd limit
   accept fails: neither may take the process down. 1,030 connections
   cross whichever limit comes first; a connection opened before the
   flood keeps answering through it, and a new one is served once it
   has closed. *)
let survives_flood addr =
  let ping_ok c = (C.request c ping_req).C.ok in
  let early = C.connect ~read_deadline_ms:10_000. addr in
  Fun.protect
    ~finally:(fun () -> C.close early)
    (fun () ->
      check_bool "served before the flood" true (ping_ok early);
      let flood = ref [] in
      (try
         for _ = 1 to 1030 do
           flood := Service.Addr.connect addr :: !flood
         done
       with Unix.Unix_error _ -> ());
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with _ -> ()) !flood)
        (fun () ->
          check_bool "served during the flood" true (ping_ok early)));
  let late =
    C.connect ~retries:5 ~retry_budget_ms:5_000. ~read_deadline_ms:10_000.
      addr
  in
  Fun.protect
    ~finally:(fun () -> C.close late)
    (fun () -> check_bool "served after the flood" true (ping_ok late))

let test_daemon_flood () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let d = start_daemon ~max_conns:2000 (tmp "flood.sock") in
  let addr, _, _ = d in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      wait_up addr;
      survives_flood addr)

let test_gateway_flood () =
  with_fleet ~shards:2 (fun gate_addr _ -> survives_flood gate_addr)

let suite =
  [
    ("byte identity (finals)", `Quick, test_byte_identity);
    ("byte identity (streams)", `Quick, test_stream_identity);
    ("cache affinity hits", `Quick, test_affinity_cache_hits);
    ("overloaded then shard_failed", `Quick, test_overloaded_then_shard_failed);
    ("dead shard failover", `Quick, test_dead_shard_failover);
    ("health and metrics", `Quick, test_health_and_metrics);
    ("retry overloaded, no duplicate", `Quick, test_retry_overloaded_no_duplicate);
    ("no retry after torn response", `Quick, test_no_retry_after_torn_response);
    ("fault rules at both doors", `Quick, test_gateway_fault_rules);
    ("daemon survives 1030 connections", `Quick, test_daemon_flood);
    ("gateway survives 1030 connections", `Quick, test_gateway_flood);
  ]
