(* Tests for the simulation service: JSON/wire plumbing, the
   compiled-model cache, and a live in-process daemon — served results
   must be byte-identical to direct execution, repeated requests must
   hit the cache (and be much cheaper), deadlines must come back as
   structured errors without killing the worker, and the bounded queue
   must refuse overload explicitly. *)

module J = Service.Json

let check_float = Alcotest.(check (float 0.))

(* ------------------------------------------------------------ json *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.num 0.1;
      J.num (-1.5e-300);
      J.int 42;
      J.str "a \"quoted\" line\nwith \t control \x01 bytes";
      J.List [ J.num 1.; J.Obj [ ("k", J.Null) ]; J.List [] ];
      J.Obj [ ("a", J.int 1); ("b", J.List [ J.Bool false ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = J.to_string j in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" s)
        true
        (J.of_string s = j))
    cases;
  (* %.17g keeps doubles exact through print/parse *)
  let xs = [ 0.1; 1. /. 3.; 1e308; 4.9e-324; 123456789.123456789 ] in
  List.iter
    (fun x ->
      match J.of_string (J.to_string (J.num x)) with
      | J.Num y -> check_float "float exact" x y
      | _ -> Alcotest.fail "not a number")
    xs;
  (* non-finite floats use the Python-json tokens so diverged runs still
     round-trip instead of collapsing to null *)
  Alcotest.(check string) "nan prints" "NaN" (J.to_string (J.num Float.nan));
  Alcotest.(check string) "inf prints" "Infinity" (J.to_string (J.num infinity));
  Alcotest.(check string) "-inf prints" "-Infinity"
    (J.to_string (J.num neg_infinity));
  (match J.of_string "[NaN,Infinity,-Infinity,-1.5]" with
  | J.List [ J.Num a; J.Num b; J.Num c; J.Num d ] ->
      Alcotest.(check bool) "nan parses" true (Float.is_nan a);
      check_float "inf parses" infinity b;
      check_float "-inf parses" neg_infinity c;
      check_float "minus still a number" (-1.5) d
  | _ -> Alcotest.fail "non-finite tokens did not parse")

let test_json_errors () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("reject " ^ s)
        (J.Parse_error "")
        (fun () ->
          match J.of_string s with
          | exception J.Parse_error _ -> raise (J.Parse_error "")
          | _ -> ()))
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

(* ------------------------------------------------------------ wire *)

let test_wire_decoder () =
  let payload_a = String.make 70000 'x' in
  let payload_b = "{\"op\":\"ping\"}" in
  let frame payload =
    let b = Buffer.create 16 in
    let len = Bytes.create 4 in
    Bytes.set_int32_be len 0 (Int32.of_int (String.length payload));
    Buffer.add_bytes b len;
    Buffer.add_string b payload;
    Buffer.contents b
  in
  let stream = frame payload_a ^ frame payload_b in
  let d = Service.Wire.decoder () in
  (* feed in awkward chunk sizes crossing both frame boundaries *)
  let collected = ref [] in
  let pos = ref 0 in
  let n = String.length stream in
  while !pos < n do
    let chunk = min 1777 (n - !pos) in
    Service.Wire.feed d (Bytes.of_string (String.sub stream !pos chunk)) chunk;
    pos := !pos + chunk;
    let rec drain () =
      match Service.Wire.next_frame d with
      | Some f ->
          collected := f :: !collected;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  match List.rev !collected with
  | [ a; b ] ->
      Alcotest.(check bool) "first frame" true (a = payload_a);
      Alcotest.(check string) "second frame" payload_b b
  | frames ->
      Alcotest.failf "expected 2 frames, got %d" (List.length frames)

let test_wire_bad_length () =
  let d = Service.Wire.decoder () in
  let bad = Bytes.of_string "\xff\xff\xff\xff" in
  Service.Wire.feed d bad 4;
  Alcotest.(check bool) "oversized length rejected" true
    (match Service.Wire.next_frame d with
    | exception Service.Wire.Framing_error _ -> true
    | _ -> false)

(* ----------------------------------------------------------- errors *)

let test_error_codes () =
  let open Service.Error in
  let cases =
    [
      (Bad_request "x", "bad_request", 2);
      (Parse_error { line = 3; msg = "x" }, "parse_error", 2);
      (Unknown_design "x", "unknown_design", 2);
      (Max_events_exceeded { max_events = 1; t = 0.5 }, "max_events_exceeded", 3);
      (Max_steps_exceeded { max_steps = 1; t = 0.5 }, "max_steps_exceeded", 3);
      (Solver_failure { solver = "s"; msg = "m" }, "solver_failure", 3);
      (Not_compilable "x", "not_compilable", 2);
      (Deadline_exceeded { budget_ms = 10.; checkpoint = None },
       "deadline_exceeded", 4);
      (Overloaded { queue_bound = 4 }, "overloaded", 5);
      (Connection_limit { max_conns = 4 }, "connection_limit", 5);
      ( Validation_failed { issues = [ ("phase_overlap", "d") ] },
        "validation_failed",
        6 );
      (Internal "x", "internal", 70);
    ]
  in
  List.iter
    (fun (err, expect_code, expect_exit) ->
      Alcotest.(check string) "code" expect_code (code err);
      Alcotest.(check int) "exit" expect_exit (exit_code err);
      (* wire roundtrip preserves the classification *)
      Alcotest.(check string) "json roundtrip code" expect_code
        (code (of_json (to_json err))))
    cases;
  (* validation issues survive the wire round trip structurally *)
  (match
     of_json
       (to_json
          (Validation_failed
             { issues = [ ("phase_overlap", "d1"); ("fast_source", "d2") ] }))
   with
  | Validation_failed { issues } ->
      Alcotest.(check (list (pair string string)))
        "issues round trip"
        [ ("phase_overlap", "d1"); ("fast_source", "d2") ]
        issues
  | _ -> Alcotest.fail "validation_failed did not round trip");
  (* the simulation stack's own exceptions classify; others don't *)
  Alcotest.(check bool) "gillespie classified" true
    (match
       of_exn
         (Ssa.Gillespie.Error
            (Ssa.Gillespie.Max_events_exceeded { max_events = 9; t = 1. }))
     with
    | Some (Max_events_exceeded { max_events = 9; _ }) -> true
    | _ -> false);
  Alcotest.(check bool) "solver classified" true
    (match
       of_exn
         (Ode.Solver_error.Error
            { solver = "Dopri5"; reason = Ode.Solver_error.Max_steps 7; t = 2. })
     with
    | Some (Solver_failure { solver = "Dopri5"; _ }) -> true
    | _ -> false);
  Alcotest.(check bool) "unrelated not classified" true
    (of_exn Exit = None)

(* ------------------------------------------------------------ cache *)

let test_model_cache () =
  let cache = Service.Model_cache.create ~capacity:2 () in
  let env = Crn.Rates.default_env in
  let builds = ref 0 in
  let build name () =
    incr builds;
    Designs.Catalog.build name
  in
  let key name = Service.Model_cache.source_key ~spec:("catalog:" ^ name) ~env in
  let _, o1 =
    Service.Model_cache.find_or_compile cache ~source_key:(key "clock3") ~env
      ~build:(build "clock3")
  in
  let e2, o2 =
    Service.Model_cache.find_or_compile cache ~source_key:(key "clock3") ~env
      ~build:(build "clock3")
  in
  Alcotest.(check bool) "first is miss" true (o1 = `Miss);
  Alcotest.(check bool) "second is hit" true (o2 = `Hit);
  Alcotest.(check int) "hit skipped synthesis" 1 !builds;
  Alcotest.(check int) "hit counted" 1 e2.Service.Model_cache.hits;
  (* a different source text synthesizing the identical network (same
     names, same index order, same reactions) dedupes onto the same
     compiled entry; the request still pays synthesis, hence `Miss *)
  let text = Crn.Network.to_string (Designs.Catalog.build "clock3") in
  let variant = "# same network, different source bytes\n" ^ text in
  let load_text t =
    Service.Model_cache.find_or_compile cache
      ~source_key:(Service.Model_cache.source_key ~spec:("text:" ^ t) ~env)
      ~env
      ~build:(fun () -> Crn.Parser.network_of_string t)
  in
  let e3, o3 = load_text text in
  let e3', o3' = load_text variant in
  Alcotest.(check bool) "text sources are misses (paid synthesis)" true
    (o3 = `Miss && o3' = `Miss);
  Alcotest.(check string) "deduped onto the same compiled entry"
    e3.Service.Model_cache.key e3'.Service.Model_cache.key;
  (* and the index-order-invariant fingerprint survives the reparse *)
  let fingerprint (e : Service.Model_cache.entry) =
    Crn.Equiv.fingerprint e.Service.Model_cache.model.Service.Engines.net
  in
  Alcotest.(check string) "fingerprint round-trips"
    (fingerprint e2) (fingerprint e3);
  (* capacity 2: loading two more designs evicts the LRU *)
  let load name =
    ignore
      (Service.Model_cache.find_or_compile cache ~source_key:(key name) ~env
         ~build:(build name))
  in
  load "counter2";
  load "lfsr3";
  let entries, _, _, evictions = Service.Model_cache.stats cache in
  Alcotest.(check int) "capacity respected" 2 entries;
  Alcotest.(check bool) "evicted at least one" true (evictions >= 1);
  (* different rate environments are distinct cache entries *)
  let env2 = Crn.Rates.env_with_ratio 10. in
  let e4, o4 =
    Service.Model_cache.find_or_compile cache
      ~source_key:(Service.Model_cache.source_key ~spec:"catalog:lfsr3" ~env:env2)
      ~env:env2
      ~build:(build "lfsr3")
  in
  Alcotest.(check bool) "other env misses" true (o4 = `Miss);
  Alcotest.(check bool) "other env distinct key" true
    (e4.Service.Model_cache.key
    <> (let e5, _ =
          Service.Model_cache.find_or_compile cache ~source_key:(key "lfsr3")
            ~env ~build:(build "lfsr3")
        in
        e5.Service.Model_cache.key))

(* ------------------------------------------------- live daemon tests *)

let socket_path =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mrsc-test-%d.sock" (Unix.getpid ()))

(* Run [f client] against a freshly started in-process server. *)
let with_server ?(jobs = 1) ?(queue_bound = 64) f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket_path with _ -> ());
  let address = Service.Addr.Unix_sock socket_path in
  let stop = Atomic.make false in
  let config =
    {
      (Service.Server.default_config address) with
      Service.Server.jobs;
      queue_bound;
    }
  in
  let server =
    Domain.spawn (fun () ->
        Service.Server.run ~stop:(fun () -> Atomic.get stop) config)
  in
  let rec wait_ready tries =
    match Service.Client.connect address with
    | client -> client
    | exception Unix.Unix_error _ ->
        if tries = 0 then Alcotest.fail "server did not come up";
        Unix.sleepf 0.02;
        wait_ready (tries - 1)
  in
  let client = wait_ready 250 in
  Fun.protect
    ~finally:(fun () ->
      Service.Client.close client;
      Atomic.set stop true;
      Domain.join server)
    (fun () -> f client)

let obj fields = J.Obj fields

let field result key =
  match J.member key result with
  | Some v -> v
  | None -> Alcotest.failf "response has no %S field" key

let floats j =
  match J.to_list j with
  | Some xs -> Array.of_list (List.map (fun x -> Option.get (J.to_float x)) xs)
  | None -> Alcotest.fail "expected array of numbers"

let strings j =
  match J.to_list j with
  | Some xs -> Array.of_list (List.map (fun x -> Option.get (J.to_str x)) xs)
  | None -> Alcotest.fail "expected array of strings"

let ok_result name (resp : Service.Client.response) =
  if not resp.ok then
    Alcotest.failf "%s failed: %s" name
      (Option.value ~default:"?" resp.error_message);
  Option.get resp.result

let cache_of (resp : Service.Client.response) =
  Option.value ~default:"?"
    (Option.bind
       (Option.bind resp.metrics (J.member "cache"))
       J.to_str)

let compile_ms_of (resp : Service.Client.response) =
  Option.get
    (Option.bind (Option.bind resp.metrics (J.member "compile_ms")) J.to_float)

(* the acceptance bar: served results byte-identical to direct execution
   for the same network / seed / solver *)
let test_served_matches_direct () =
  with_server (fun client ->
      let net = Designs.Catalog.build "counter2" in
      let env = Crn.Rates.env_with_ratio 1000. in
      let t1 = 30. in
      (* ODE, both integrators *)
      List.iter
        (fun (name, method_) ->
          let resp =
            Service.Client.request client
              (obj
                 [
                   ("op", J.str "ode");
                   ("network", obj [ ("catalog", J.str "counter2") ]);
                   ("t1", J.num t1);
                   ("ratio", J.num 1000.);
                   ("method", J.str name);
                 ])
          in
          let result = ok_result ("ode " ^ name) resp in
          let served = floats (field result "final") in
          let direct =
            Ode.Driver.final_state ~method_ ~env ~t1
              (Designs.Catalog.build "counter2")
          in
          Alcotest.(check int)
            "species count" (Array.length direct) (Array.length served);
          Array.iteri
            (fun i x ->
              check_float
                (Printf.sprintf "ode %s species %d bitwise" name i)
                direct.(i) x)
            served)
        [ ("rosenbrock", Ode.Driver.Rosenbrock); ("dopri5", Ode.Driver.Dopri5) ];
      (* SSA: same seed, same trajectory *)
      let resp =
        Service.Client.request client
          (obj
             [
               ("op", J.str "ssa");
               ("network", obj [ ("catalog", J.str "counter2") ]);
               ("t1", J.num t1);
               ("ratio", J.num 1000.);
               ("seed", J.int 7);
             ])
      in
      let result = ok_result "ssa" resp in
      let served = floats (field result "final") in
      let direct = Ssa.Gillespie.run ~env ~seed:7L ~t1 net in
      Array.iteri
        (fun i x ->
          check_float
            (Printf.sprintf "ssa species %d bitwise" i)
            direct.Ssa.Gillespie.final.(i)
            x)
        served;
      Alcotest.(check int) "event count" direct.Ssa.Gillespie.n_events
        (Option.get (Option.bind (J.member "n_events" result) J.to_int));
      (* species names come back in network order *)
      Alcotest.(check (array string))
        "species names"
        (Crn.Network.species_names net)
        (strings (field result "species")))

(* the hybrid and tau ops reuse the cache entry's compiled halves and
   must serve bitwise the same finals as direct execution; the stats op
   must aggregate their work counters *)
let test_hybrid_and_tau_ops () =
  with_server (fun client ->
      let net = Designs.Catalog.build "counter2" in
      let env = Crn.Rates.env_with_ratio 1000. in
      let t1 = 30. in
      let base op =
        [
          ("op", J.str op);
          ("network", obj [ ("catalog", J.str "counter2") ]);
          ("t1", J.num t1);
          ("ratio", J.num 1000.);
          ("seed", J.int 7);
        ]
      in
      (* hybrid: bitwise vs direct execution (and, at default thresholds
         on this low-copy design, vs Gillespie) *)
      let resp = Service.Client.request client (obj (base "hybrid")) in
      let result = ok_result "hybrid" resp in
      let served = floats (field result "final") in
      let direct = Hybrid.Engine.run ~env ~seed:7L ~t1 net in
      Array.iteri
        (fun i x ->
          check_float
            (Printf.sprintf "hybrid species %d bitwise" i)
            direct.Hybrid.Engine.final.(i) x)
        served;
      let gillespie = Ssa.Gillespie.run ~env ~seed:7L ~t1 net in
      Array.iteri
        (fun i x ->
          check_float
            (Printf.sprintf "hybrid = gillespie species %d" i)
            gillespie.Ssa.Gillespie.final.(i) x)
        served;
      let stats =
        match J.member "stats" result with
        | Some s -> s
        | None -> Alcotest.fail "hybrid result has no stats"
      in
      Alcotest.(check int)
        "served ssa_events"
        direct.Hybrid.Engine.stats.Hybrid.Engine.n_ssa_events
        (Option.get (Option.bind (J.member "ssa_events" stats) J.to_int));
      (* tau: bitwise vs direct execution *)
      let resp = Service.Client.request client (obj (base "tau")) in
      let result = ok_result "tau" resp in
      let served = floats (field result "final") in
      let direct_tau = Ssa.Tau_leap.run ~env ~seed:7L ~t1 net in
      Array.iteri
        (fun i x ->
          check_float
            (Printf.sprintf "tau species %d bitwise" i)
            direct_tau.Ssa.Tau_leap.final.(i) x)
        served;
      (* ensemble with engine=hybrid: well-formed and deterministic *)
      let ens_req extra =
        obj
          (base "ensemble" @ [ ("runs", J.int 4); ("jobs", J.int 1) ] @ extra)
      in
      let r1 =
        ok_result "ensemble hybrid"
          (Service.Client.request client
             (ens_req [ ("engine", J.str "hybrid") ]))
      in
      let r2 =
        ok_result "ensemble hybrid repeat"
          (Service.Client.request client
             (ens_req [ ("engine", J.str "hybrid") ]))
      in
      Alcotest.(check (array (float 0.)))
        "hybrid ensemble deterministic"
        (floats (field r1 "mean"))
        (floats (field r2 "mean"));
      (let bad =
         Service.Client.request client
           (ens_req [ ("engine", J.str "bogus") ])
       in
       Alcotest.(check bool) "bogus engine refused" false
         bad.Service.Client.ok);
      (* the stats op aggregates the engines' work counters *)
      let stats_resp =
        Service.Client.request client (obj [ ("op", J.str "stats") ])
      in
      let stats_result = ok_result "stats" stats_resp in
      let work =
        match J.member "work" stats_result with
        | Some w -> w
        | None -> Alcotest.fail "stats has no work table"
      in
      let counter key =
        Option.value ~default:0. (Option.bind (J.member key work) J.to_float)
      in
      Alcotest.(check bool) "work.events accumulated" true (counter "events" > 0.);
      Alcotest.(check bool)
        "work.repartitions accumulated" true
        (counter "repartitions" > 0.))

(* A hit builds nothing: it reports no compile time, and six identical
   requests leave one miss and one entry in the daemon's stats. Counted
   rather than timed: a miss costs well under a millisecond, so a
   cold/warm latency ratio measures the host more than the cache. *)
let test_cache_hit_skips_build () =
  with_server (fun client ->
      let req =
        obj
          [
            ("op", J.str "ode");
            ("network", obj [ ("catalog", J.str "counter3") ]);
            ("t1", J.num 0.05);
            ("ratio", J.num 1000.);
            ("method", J.str "0.005");
          ]
      in
      let cold = Service.Client.request client req in
      ignore (ok_result "cold" cold);
      Alcotest.(check string) "cold misses" "miss" (cache_of cold);
      for i = 1 to 5 do
        let warm = Service.Client.request client req in
        ignore (ok_result "warm" warm);
        Alcotest.(check string) "warm hits" "hit" (cache_of warm);
        Alcotest.(check (float 0.))
          (Printf.sprintf "hit %d compiles nothing" i)
          0. (compile_ms_of warm)
      done;
      let stats =
        ok_result "stats"
          (Service.Client.request client (obj [ ("op", J.str "stats") ]))
      in
      let count key = Option.bind (J.member key stats) J.to_int in
      Alcotest.(check (option int))
        "one miss in six requests" (Some 1)
        (count "cache_misses_total");
      Alcotest.(check (option int))
        "one cache entry" (Some 1) (count "cache_entries"))

(* Two texts whose rate scales differ past the 12th significant digit
   are two networks: distinct keys, distinct entries, and each served
   from its own compiled model, so the cached final is bitwise the
   uncached in-process one. 1.5 vs 1.5000001 print the same text, so a
   key that hashed the printed network would merge them too. *)
let test_rate_scale_keys () =
  let text scale =
    Printf.sprintf "init X 100\nX ->{slow*%s} Y\nY ->{fast} 0\n" scale
  in
  let pairs =
    [ ("1.0000000000001", "1.0000000000002"); ("1.5", "1.5000001") ]
  in
  let parse = Crn.Parser.network_of_string in
  Alcotest.(check string) "1.5 and 1.5000001 print alike"
    (Crn.Network.to_string (parse (text "1.5")))
    (Crn.Network.to_string (parse (text "1.5000001")));
  let env = Crn.Rates.default_env in
  let cache = Service.Model_cache.create () in
  let load t =
    fst
      (Service.Model_cache.find_or_compile cache
         ~source_key:(Service.Model_cache.source_key ~spec:("text:" ^ t) ~env)
         ~env
         ~build:(fun () -> parse t))
  in
  List.iter
    (fun (a, b) ->
      let ta = text a and tb = text b in
      Alcotest.(check bool)
        (a ^ " vs " ^ b ^ ": distinct cache_key")
        true
        (Crn.Equiv.cache_key (parse ta) <> Crn.Equiv.cache_key (parse tb));
      let ea = load ta and eb = load tb in
      Alcotest.(check bool)
        (a ^ " vs " ^ b ^ ": distinct entries")
        true
        (ea.Service.Model_cache.key <> eb.Service.Model_cache.key
        && ea.Service.Model_cache.model != eb.Service.Model_cache.model))
    pairs;
  let bits xs = Array.map Int64.bits_of_float xs in
  with_server (fun client ->
      List.iter
        (fun (a, b) ->
          List.iter
            (fun t ->
              let req =
                obj
                  [
                    ("op", J.str "ode");
                    ("network", obj [ ("text", J.str t) ]);
                    ("t1", J.num 1.);
                  ]
              in
              let final resp = floats (field (ok_result t resp) "final") in
              let served = final (Service.Client.request client req) in
              let direct =
                final
                  (Service.Client.response_of_json (Service.Server.call req))
              in
              Alcotest.(check (array int64))
                (t ^ ": cached final is the uncached one, bit for bit")
                (bits direct) (bits served))
            [ text a; text b ])
        pairs)

(* A cold miss runs no colour refinement: the key is one pass over the
   network. Only the parse op refines, to answer its fingerprint. *)
let test_miss_runs_no_refinement () =
  let env = Crn.Rates.default_env in
  let rounds f =
    let r0 = Crn.Equiv.refinement_rounds () in
    let x = f () in
    (x, Crn.Equiv.refinement_rounds () - r0)
  in
  let ma4 = Designs.Catalog.build "ma4" in
  let _, r = rounds (fun () -> Crn.Equiv.cache_key ma4) in
  Alcotest.(check int) "cache_key: no rounds" 0 r;
  let cache = Service.Model_cache.create () in
  let miss spec build =
    rounds (fun () ->
        Service.Model_cache.find_or_compile cache
          ~source_key:(Service.Model_cache.source_key ~spec ~env)
          ~env ~build)
  in
  let (entry, o), r =
    miss "catalog:ma4" (fun () -> Designs.Catalog.build "ma4")
  in
  Alcotest.(check bool) "catalog source misses" true (o = `Miss);
  Alcotest.(check int) "catalog miss: no rounds" 0 r;
  let text = Crn.Network.to_string ma4 in
  let (_, o), r =
    miss ("text:" ^ text) (fun () -> Crn.Parser.network_of_string text)
  in
  Alcotest.(check bool) "text source misses" true (o = `Miss);
  Alcotest.(check int) "text miss: no rounds" 0 r;
  with_server (fun client ->
      let resp, r =
        rounds (fun () ->
            Service.Client.request client
              (obj
                 [
                   ("op", J.str "parse");
                   ("network", obj [ ("catalog", J.str "ma4") ]);
                 ]))
      in
      Alcotest.(check bool) "parse refines on demand" true (r >= 1);
      let result = ok_result "parse" resp in
      let str key = Option.get (J.to_str (field result key)) in
      let net = entry.Service.Model_cache.model.Service.Engines.net in
      Alcotest.(check string) "parse answers the fingerprint"
        (Crn.Equiv.fingerprint net) (str "fingerprint");
      Alcotest.(check string) "parse answers the entry's key"
        entry.Service.Model_cache.key (str "cache_key"))

(* A new source that builds an already-cached network reports what it
   paid, not the compile that made the entry: a build that sleeps 30 ms
   puts a lower bound on it. *)
let test_dedupe_reports_own_cost () =
  let env = Crn.Rates.default_env in
  let cache = Service.Model_cache.create () in
  let find spec build =
    Service.Model_cache.find_or_compile cache
      ~source_key:(Service.Model_cache.source_key ~spec ~env)
      ~env ~build
  in
  let build () = Designs.Catalog.build "clock3" in
  let first, _ = find "catalog:clock3" build in
  let twin, o =
    find "slow twin" (fun () ->
        Unix.sleepf 0.03;
        build ())
  in
  Alcotest.(check bool) "twin misses" true (o = `Miss);
  Alcotest.(check string) "twin dedupes" first.Service.Model_cache.key
    twin.Service.Model_cache.key;
  if not (twin.Service.Model_cache.compile_ms >= 30.) then
    Alcotest.failf "deduplicated miss reports %.3f ms, paid at least 30"
      twin.Service.Model_cache.compile_ms;
  let again, o = find "catalog:clock3" build in
  Alcotest.(check bool) "first source hits" true (o = `Hit);
  Alcotest.(check (float 0.)) "entry keeps its own compile cost"
    first.Service.Model_cache.compile_ms again.Service.Model_cache.compile_ms

let test_deadline_and_worker_survival () =
  with_server (fun client ->
      (* impossible horizon, tight deadline: the run must die with the
         structured code, quickly *)
      let resp =
        Service.Client.request client
          (obj
             [
               ("op", J.str "ssa");
               ("network", obj [ ("catalog", J.str "counter2") ]);
               ("t1", J.num 1e9);
               ("seed", J.int 1);
               ("deadline_ms", J.num 150.);
             ])
      in
      Alcotest.(check bool) "request failed" false resp.Service.Client.ok;
      (match resp.Service.Client.error with
      | Some (Service.Error.Deadline_exceeded _) -> ()
      | Some err ->
          Alcotest.failf "expected deadline_exceeded, got %s"
            (Service.Error.code err)
      | None -> Alcotest.fail "no structured error");
      (* the worker survived: the same (only) worker serves this *)
      let after =
        Service.Client.request client
          (obj
             [
               ("op", J.str "ode");
               ("network", obj [ ("catalog", J.str "clock3") ]);
               ("t1", J.num 2.);
             ])
      in
      ignore (ok_result "after deadline" after))

let test_overloaded () =
  with_server ~jobs:1 ~queue_bound:1 (fun _client ->
      let addr = Service.Addr.Unix_sock socket_path in
      let slow =
        J.to_string
          (obj
             [
               ("op", J.str "ssa");
               ("network", obj [ ("catalog", J.str "counter2") ]);
               ("t1", J.num 1e9);
               ("deadline_ms", J.num 600.);
             ])
      in
      let fd1 = Service.Addr.connect addr in
      let fd2 = Service.Addr.connect addr in
      let fd3 = Service.Addr.connect addr in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with _ -> ())
            [ fd1; fd2; fd3 ])
        (fun () ->
          let resp fd =
            match Service.Wire.read_frame fd with
            | Some payload ->
                Service.Client.response_of_json (J.of_string payload)
            | None -> Alcotest.fail "connection closed without a response"
          in
          (* one job occupies the single worker, one fills the
             bound-1 queue, the third must be refused immediately *)
          Service.Wire.write_frame fd1 slow;
          Unix.sleepf 0.2;
          Service.Wire.write_frame fd2 slow;
          Unix.sleepf 0.2;
          Service.Wire.write_frame fd3 slow;
          let r3 = resp fd3 in
          Alcotest.(check bool) "third refused" false r3.Service.Client.ok;
          (match r3.Service.Client.error with
          | Some (Service.Error.Overloaded { queue_bound = 1 }) -> ()
          | Some err ->
              Alcotest.failf "expected overloaded, got %s"
                (Service.Error.code err)
          | None -> Alcotest.fail "no structured error");
          (* the occupied worker and the queued job still answer — with
             the deadline error, not a dropped connection *)
          List.iter
            (fun fd ->
              let r = resp fd in
              match r.Service.Client.error with
              | Some (Service.Error.Deadline_exceeded _) -> ()
              | _ -> Alcotest.fail "expected deadline_exceeded")
            [ fd1; fd2 ]))

(* ---------------------------------------------------------- validate *)

(* the validate op answers inline (no pool worker, no model compile):
   certified networks byte-identically to local certification, broken
   ones with a structured validation_failed carrying per-issue codes —
   and the stats op exposes the validate_ok / validate_reject split *)
let test_validate_op () =
  with_server (fun client ->
      let req network =
        obj [ ("op", J.str "validate"); ("network", network) ]
      in
      (* certified: result carries the same bytes Verify renders locally *)
      let resp =
        Service.Client.request client
          (req (obj [ ("catalog", J.str "counter2") ]))
      in
      Alcotest.(check bool) "counter2 certifies" true resp.Service.Client.ok;
      let result = ok_result "validate" resp in
      let local =
        match Designs.Catalog.find "counter2" with
        | Some e ->
            Exact.Certificate.render
              (Service.Verify.certify ~title:"counter2"
                 (e.Designs.Catalog.build ()))
        | None -> Alcotest.fail "counter2 missing"
      in
      (match J.to_str (field result "certificate") with
      | Some served -> Alcotest.(check string) "served = local" local served
      | None -> Alcotest.fail "no certificate in result");
      (* rejected: structured issue codes, certificate still present *)
      let broken =
        "init X 10\ninit Y 10\nX + Y ->{slow} 0\n0 ->{slow} X\n"
      in
      let resp =
        Service.Client.request client (req (obj [ ("text", J.str broken) ]))
      in
      Alcotest.(check bool) "broken rejected" false resp.Service.Client.ok;
      (match resp.Service.Client.error with
      | Some (Service.Error.Validation_failed { issues }) ->
          Alcotest.(check bool) "slow_annihilation code" true
            (List.exists (fun (c, _) -> c = "slow_annihilation") issues)
      | _ -> Alcotest.fail "expected validation_failed");
      (match
         Option.bind resp.Service.Client.result (fun r ->
             Option.bind (J.member "certificate" r) J.to_str)
       with
      | Some text ->
          Alcotest.(check bool) "rejection carries certificate" true
            (String.length text > 0)
      | None -> Alcotest.fail "rejection lost the certificate");
      (* malformed requests classify without touching the exact tier *)
      let resp =
        Service.Client.request client
          (req (obj [ ("catalog", J.str "no-such-design" ) ]))
      in
      (match resp.Service.Client.error with
      | Some (Service.Error.Unknown_design _) -> ()
      | _ -> Alcotest.fail "expected unknown_design");
      (* the verdict counters are visible in stats *)
      let stats =
        ok_result "stats"
          (Service.Client.request client (obj [ ("op", J.str "stats") ]))
      in
      let counter key =
        Option.value ~default:(-1) (Option.bind (J.member key stats) J.to_int)
      in
      Alcotest.(check int) "validate_ok" 1 (counter "validate_ok");
      Alcotest.(check int) "validate_reject" 1 (counter "validate_reject"))

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed" `Quick test_json_errors;
    Alcotest.test_case "wire incremental decoder" `Quick test_wire_decoder;
    Alcotest.test_case "wire rejects bad length" `Quick test_wire_bad_length;
    Alcotest.test_case "error codes stable" `Quick test_error_codes;
    Alcotest.test_case "model cache" `Quick test_model_cache;
    Alcotest.test_case "served = direct (bitwise)" `Quick
      test_served_matches_direct;
    Alcotest.test_case "hybrid/tau ops + work stats" `Quick
      test_hybrid_and_tau_ops;
    Alcotest.test_case "cache hit skips the build" `Quick
      test_cache_hit_skips_build;
    Alcotest.test_case "rate scales key apart" `Quick test_rate_scale_keys;
    Alcotest.test_case "miss runs no refinement" `Quick
      test_miss_runs_no_refinement;
    Alcotest.test_case "deduped miss reports own cost" `Quick
      test_dedupe_reports_own_cost;
    Alcotest.test_case "deadline, worker survives" `Quick
      test_deadline_and_worker_survival;
    Alcotest.test_case "overloaded on full queue" `Quick test_overloaded;
    Alcotest.test_case "validate op" `Quick test_validate_op;
  ]
