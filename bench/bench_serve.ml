(* Scale-out service benchmark: measured latency and throughput through
   the crnsgate gateway over live crnserved shard fleets.

   Emits machine-readable BENCH_serve.json so the serving layer's perf
   trajectory is tracked PR over PR:

     dune exec bench/bench_serve.exe -- --served PATH       # full suite
     dune exec bench/bench_serve.exe -- --smoke --served PATH
     dune exec bench/bench_serve.exe -- --out path.json ...

   --served points at the crnserved binary the gateway spawns (the
   gateway itself runs in-process on a separate domain). Four
   scenarios:

   scaling — closed-loop clients over a cache-miss-heavy workload (the
     same design at a never-repeating rate ratio, so every request
     compiles), measured against 1 shard and 2 shards with one worker
     domain each: the 2-vs-1 throughput ratio is what horizontal
     scale-out buys when the work cannot be cached. On a 1-core host
     the two shards time-slice and the ratio is ~1; the host block
     records that.

   affinity — a fixed set of sources sized to fit the fleet's caches
     only when consistent-hash routing pins each source to one shard
     (K sources, N shards, per-shard capacity K/N). The ratios are
     chosen, via the same Ring the gateway uses, so each shard owns
     exactly K/N of them — the cross-process determinism the ring
     guarantees. Against --no-affinity (uniform random routing) every
     shard sees all K sources and the LRU thrashes. The fleet's cache
     counts carry the property: under the ring it misses exactly K
     times (each source's first touch), at random more. The p50 ratio
     is reported too; since a miss costs well under a millisecond it is
     small and says little. N = 4 shards keeps the random baseline's
     hit rate at ~1/4.

   open_loop — a fixed arrival rate (scheduled arrivals, latency
     measured from the schedule so queueing delay is not hidden) over a
     mixed op workload: cached-model ODE requests, SSA runs at varying
     seeds, and an occasional never-seen ratio forcing a compile.
     Reports the p50/p95/p99 a client actually experiences.

   validate — a storm of exact-verification requests, half well-formed
     (catalog certify) and half carrying a network the exact tier
     rejects with a structured code. Both halves run inline on the
     shard event loop, so the recorded rejects/sec is what it costs to
     turn away a bad design: no pool worker, no simulation. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------ fleet *)

type fleet = {
  stop : bool Atomic.t;
  domain : unit Domain.t;
  addr : Service.Addr.t;
}

(* one request on a fresh connection *)
let call addr op =
  let c = Service.Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      Service.Client.call c (Service.Json.Obj [ ("op", Service.Json.str op) ]))

let answers_ping addr =
  match call addr "ping" with _ -> true | exception _ -> false

let start_fleet ~served ~dir ~shards ~jobs_per_shard
    ~cache_capacity ~affinity () =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat dir "gw.sock" in
  let cfg =
    {
      (Service.Gateway.default_config
         (Service.Gateway.Spawn
            {
              exe = served;
              count = shards;
              dir;
              jobs = Some jobs_per_shard;
              queue_bound = None;
              cache_capacity = Some cache_capacity;
              state_dir = None;
              extra_args = [];
            }))
      with
      Service.Gateway.wire = Some (Service.Addr.Unix_sock sock);
      affinity;
    }
  in
  let stop = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Service.Gateway.run ~stop:(fun () -> Atomic.get stop) cfg)
  in
  let addr = Service.Addr.Unix_sock sock in
  (* the gateway listens only after its shards accept; wait for ping *)
  let deadline = now () +. 30. in
  let rec wait () =
    if not (answers_ping addr) then begin
      if now () > deadline then failwith "gateway did not come up";
      Unix.sleepf 0.1;
      wait ()
    end
  in
  wait ();
  { stop; domain; addr }

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let stop_fleet f =
  Atomic.set f.stop true;
  Domain.join f.domain

(* the gateway's stats answer at a path of keys *)
let stats_at f path =
  List.fold_left
    (fun acc k -> Option.bind acc (Service.Json.member k))
    (Some (call f.addr "stats"))
    ("result" :: path)

(* read summed fleet counters out of the gateway's stats fan-out *)
let fleet_counts f keys =
  let fleet = stats_at f [ "fleet" ] in
  List.map
    (fun key ->
      Option.value ~default:0.
        (Option.bind
           (Option.bind fleet (Service.Json.member key))
           Service.Json.to_float))
    keys

let fleet_cache_counts f =
  match fleet_counts f [ "cache_hits"; "cache_misses" ] with
  | [ h; m ] -> (h, m)
  | _ -> assert false

(* -------------------------------------------------------- load loops *)

type measured = {
  latencies_ms : float array;  (* sorted *)
  wall_s : float;
  errors : int;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let finish ~wall lats_per_client =
  let lats = Array.concat (List.map fst lats_per_client) in
  Array.sort compare lats;
  {
    latencies_ms = lats;
    wall_s = wall;
    errors = List.fold_left (fun a (_, e) -> a + e) 0 lats_per_client;
  }

(* closed loop: [clients] connections each firing the next request the
   moment the previous response lands *)
let closed_loop ~addr ~clients ~per_client ~make_req =
  let t0 = now () in
  let doms =
    List.init clients (fun ci ->
        Domain.spawn (fun () ->
            let c =
              Service.Client.connect ~retries:4 ~retry_budget_ms:10_000.
                ~retry_seed:(Int64.of_int (ci + 1)) addr
            in
            let errors = ref 0 in
            let lats =
              Array.init per_client (fun ri ->
                  let s = now () in
                  let resp = Service.Client.request c (make_req ci ri) in
                  if not resp.Service.Client.ok then incr errors;
                  (now () -. s) *. 1000.)
            in
            Service.Client.close c;
            (lats, !errors)))
  in
  let per = List.map Domain.join doms in
  finish ~wall:(now () -. t0) per

(* open loop: each client owns a fixed arrival schedule; latency is
   measured from the scheduled arrival, so time spent waiting behind a
   late predecessor counts (no coordinated omission) *)
let open_loop ~addr ~clients ~rate_rps ~duration_s ~make_req =
  let interval = float_of_int clients /. rate_rps in
  let per_client =
    int_of_float (duration_s /. interval)
  in
  let t0 = now () +. 0.05 in
  let doms =
    List.init clients (fun ci ->
        Domain.spawn (fun () ->
            let c =
              Service.Client.connect ~retries:4 ~retry_budget_ms:10_000.
                ~retry_seed:(Int64.of_int (ci + 1)) addr
            in
            let errors = ref 0 in
            let lats =
              Array.init per_client (fun ri ->
                  let scheduled =
                    t0
                    +. (float_of_int ri *. interval)
                    +. (float_of_int ci *. interval /. float_of_int clients)
                  in
                  let pause = scheduled -. now () in
                  if pause > 0. then Unix.sleepf pause;
                  let resp = Service.Client.request c (make_req ci ri) in
                  if not resp.Service.Client.ok then incr errors;
                  (now () -. scheduled) *. 1000.)
            in
            Service.Client.close c;
            (lats, !errors)))
  in
  let per = List.map Domain.join doms in
  finish ~wall:(now () -. t0) per

(* ---------------------------------------------------------- requests *)

module J = Service.Json

let ode_req ~design ~t1 ~ratio =
  J.Obj
    [
      ("op", J.str "ode");
      ("network", J.Obj [ ("catalog", J.str design) ]);
      ("t1", J.num t1);
      ("ratio", J.num ratio);
    ]

let ssa_req ?ratio ~design ~t1 ~seed () =
  J.Obj
    ([
       ("op", J.str "ssa");
       ("network", J.Obj [ ("catalog", J.str design) ]);
       ("t1", J.num t1);
       ("seed", J.int seed);
     ]
    @ match ratio with Some r -> [ ("ratio", J.num r) ] | None -> [])

(* validate ops: the exact-arithmetic certificate tier. Runs inline on
   the shard's event loop — never a pool worker, never a simulation. *)
let validate_certify_req ~design =
  J.Obj
    [
      ("op", J.str "validate");
      ("network", J.Obj [ ("catalog", J.str design) ]);
    ]

(* an inline network the rate-discipline check rejects: a slow
   annihilation (structured code slow_annihilation, wire code
   validation_failed) *)
let validate_reject_req () =
  J.Obj
    [
      ("op", J.str "validate");
      ( "network",
        J.Obj
          [
            ( "text",
              J.str "init X 10\ninit Y 10\nX + Y ->{slow} 0\n0 ->{slow} X\n"
            );
          ] );
    ]

(* ---------------------------------------------------------- scenarios *)

type row = {
  label : string;
  shards : int;
  clients : int;
  requests : int;
  wall_s : float;
  throughput_rps : float;
  p50 : float;
  p95 : float;
  p99 : float;
  errors : int;
}

let row ~label ~shards ~clients m =
  {
    label;
    shards;
    clients;
    requests = Array.length m.latencies_ms;
    wall_s = m.wall_s;
    throughput_rps = float_of_int (Array.length m.latencies_ms) /. m.wall_s;
    p50 = percentile m.latencies_ms 0.50;
    p95 = percentile m.latencies_ms 0.95;
    p99 = percentile m.latencies_ms 0.99;
    errors = m.errors;
  }

let report r =
  Printf.eprintf
    "%-22s %d shard(s), %d client(s): %d reqs in %.2fs = %.1f rps, p50 \
     %.1f ms, p95 %.1f ms, p99 %.1f ms%s\n%!"
    r.label r.shards r.clients r.requests r.wall_s r.throughput_rps r.p50
    r.p95 r.p99
    (if r.errors > 0 then Printf.sprintf " (%d errors)" r.errors else "")

(* never-repeating ratios: every request pays synthesis + compile on
   its shard, the workload horizontal scale-out parallelizes *)
let scenario_scaling ~served ~dirbase ~smoke =
  let design = "clock4" and t1 = 1.0 in
  let per_client = if smoke then 6 else 25 in
  let run shards =
    let dir = Printf.sprintf "%s/scale%d" dirbase shards in
    let fleet =
      start_fleet ~served ~dir ~shards ~jobs_per_shard:1 ~cache_capacity:32
        ~affinity:true ()
    in
    Fun.protect
      ~finally:(fun () -> stop_fleet fleet)
      (fun () ->
        let clients = 2 * shards in
        let m =
          closed_loop ~addr:fleet.addr ~clients ~per_client
            ~make_req:(fun ci ri ->
              (* ratio unique per (shards, client, request): never hits *)
              ode_req ~design ~t1
                ~ratio:
                  (float_of_int
                     (100_000 + (10_000 * shards) + (1_000 * ci) + ri)))
        in
        let r =
          row
            ~label:(Printf.sprintf "scaling/%d-shard" shards)
            ~shards ~clients m
        in
        report r;
        r)
  in
  let r1 = run 1 in
  let r2 = run 2 in
  (r1, r2, r2.throughput_rps /. r1.throughput_rps)

(* K sources over N shards with per-shard capacity K/N: fits only under
   ring routing. Ratios are picked so ownership is exactly balanced,
   using the same Ring + cache_key the gateway routes with. *)
let pick_balanced_ratios ~design ~shards ~per_shard =
  let net = Designs.Catalog.build design in
  let base = Crn.Equiv.cache_key net in
  let ring = Service.Ring.create (List.init shards (fun i -> i)) in
  let counts = Array.make shards 0 in
  let picked = ref [] in
  let r = ref 1_000. in
  while List.length !picked < shards * per_shard do
    let key = base ^ "@" ^ Printf.sprintf "%.17g" !r in
    (match Service.Ring.route ring key with
    | Some sid when counts.(sid) < per_shard ->
        counts.(sid) <- counts.(sid) + 1;
        picked := !r :: !picked
    | _ -> ());
    r := !r +. 1.
  done;
  Array.of_list (List.rev !picked)

let scenario_affinity ~served ~dirbase ~smoke =
  (* ma4 over SSA at a tiny horizon: a hit runs in well under a
     millisecond, and a model-cache miss adds synthesis, the key digest
     and both compilers, a few tenths of a millisecond more *)
  let design = "ma4" and t1 = 0.05 in
  let shards = 4 and per_shard = 2 in
  let ratios = pick_balanced_ratios ~design ~shards ~per_shard in
  let k = Array.length ratios in
  let per_client = if smoke then 3 * k else 10 * k in
  let run ~affinity =
    let dir =
      Printf.sprintf "%s/affinity-%s" dirbase
        (if affinity then "ring" else "random")
    in
    let fleet =
      start_fleet ~served ~dir ~shards ~jobs_per_shard:1
        ~cache_capacity:per_shard ~affinity ()
    in
    Fun.protect
      ~finally:(fun () -> stop_fleet fleet)
      (fun () ->
        (* one client, one request in flight: the p50 ratio measures
           hit-vs-miss latency itself, undiluted by queueing — and so
           holds on any core count *)
        let clients = 1 in
        (* warm every source once so the affinity run measures steady
           state, not first-touch compiles *)
        let warm = Service.Client.connect fleet.addr in
        Array.iter
          (fun ratio ->
            ignore
              (Service.Client.call warm
                 (ssa_req ~ratio ~design ~t1 ~seed:3 ())))
          ratios;
        Service.Client.close warm;
        let m =
          closed_loop ~addr:fleet.addr ~clients ~per_client
            ~make_req:(fun ci ri ->
              ssa_req ~ratio:ratios.((ci + ri) mod k) ~design ~t1 ~seed:3 ())
        in
        let hits, misses = fleet_cache_counts fleet in
        let r =
          row
            ~label:
              (Printf.sprintf "affinity/%s"
                 (if affinity then "ring" else "random"))
            ~shards ~clients m
        in
        report r;
        Printf.eprintf "%-22s fleet cache: %.0f hits, %.0f misses\n%!" ""
          hits misses;
        (r, hits, misses))
  in
  let ring_row, ring_h, ring_m = run ~affinity:true in
  let rand_row, rand_h, rand_m = run ~affinity:false in
  (ring_row, rand_row, (ring_h, ring_m), (rand_h, rand_m), k, per_shard)

let scenario_open_loop ~served ~dirbase ~smoke =
  let rate_rps = if smoke then 20. else 40. in
  let duration_s = if smoke then 2. else 8. in
  let dir = Printf.sprintf "%s/open" dirbase in
  let fleet =
    start_fleet ~served ~dir ~shards:2 ~jobs_per_shard:1 ~cache_capacity:32
      ~affinity:true ()
  in
  Fun.protect
    ~finally:(fun () -> stop_fleet fleet)
    (fun () ->
      let clients = 4 in
      let m =
        open_loop ~addr:fleet.addr ~clients ~rate_rps ~duration_s
          ~make_req:(fun ci ri ->
            let n = (7 * ci) + ri in
            match n mod 10 with
            | 0 ->
                (* a cold model: synthesis + compile on arrival *)
                ode_req ~design:"clock3" ~t1:1.0
                  ~ratio:(float_of_int (200_000 + (1_000 * ci) + ri))
            | 1 | 2 ->
                ssa_req ~design:"counter2" ~t1:5.0 ~seed:(1 + n) ()
            | _ ->
                (* hot models cycling two cached ratios *)
                ode_req ~design:"clock4" ~t1:0.5
                  ~ratio:(if n mod 2 = 0 then 1_000. else 2_000.))
      in
      let r = row ~label:"open-loop/mixed" ~shards:2 ~clients m in
      report r;
      (r, rate_rps, duration_s))

(* validate-storm: a 1:1 mix of well-formed catalog validations and
   inline networks the exact tier rejects. Both halves run inline on
   the shard event loop, so throughput here is pure verification speed;
   a rejection arrives as a structured ok:false envelope, which is why
   the row's error count equals the reject count when the transport is
   healthy — the fleet's validate counters cross-check that. *)
let scenario_validate ~served ~dirbase ~smoke =
  let dir = Printf.sprintf "%s/validate" dirbase in
  let fleet =
    start_fleet ~served ~dir ~shards:2 ~jobs_per_shard:1 ~cache_capacity:8
      ~affinity:true ()
  in
  Fun.protect
    ~finally:(fun () -> stop_fleet fleet)
    (fun () ->
      let clients = 4 in
      let per_client = if smoke then 20 else 200 in
      let m =
        closed_loop ~addr:fleet.addr ~clients ~per_client
          ~make_req:(fun ci ri ->
            if (ci + ri) mod 2 = 0 then validate_certify_req ~design:"counter2"
            else validate_reject_req ())
      in
      let certified, rejected =
        match fleet_counts fleet [ "validate_ok"; "validate_reject" ] with
        | [ ok; rej ] -> (ok, rej)
        | _ -> assert false
      in
      let r = row ~label:"validate/storm" ~shards:2 ~clients m in
      report r;
      Printf.eprintf
        "%-22s fleet validate: %.0f certified, %.0f rejected (%.1f \
         rejects/s)\n%!"
        "" certified rejected
        (rejected /. m.wall_s);
      (r, certified, rejected))

(* ------------------------------------------------------------- output *)

let json_row b r =
  Buffer.add_string b
    (Printf.sprintf
       "{\"label\": %S, \"shards\": %d, \"clients\": %d, \"requests\": %d,\n\
       \       \"wall_s\": %.3f, \"throughput_rps\": %.2f, \"p50_ms\": \
        %.2f, \"p95_ms\": %.2f, \"p99_ms\": %.2f, \"errors\": %d}"
       r.label r.shards r.clients r.requests r.wall_s r.throughput_rps r.p50
       r.p95 r.p99 r.errors)

let write_json ~path ~smoke (r1, r2, scaling)
    (ring_row, rand_row, (ring_h, ring_m), (rand_h, rand_m), k, per_shard)
    (ol_row, rate, duration) (v_row, v_certified, v_rejected) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"mrsc-bench-serve/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"host\": %s,\n  \"smoke\": %b,\n" (Bench_host.json ())
       smoke);
  (* scale-out rows: the fleet's parallelism vs what the host can give *)
  Buffer.add_string b "  \"scaling\": {\n    \"workload\": \"cache-miss ode \
                       (unique ratio per request)\",\n    \"rows\": [\n";
  Buffer.add_string b "      ";
  json_row b r1;
  Buffer.add_string b ",\n      ";
  json_row b r2;
  Buffer.add_string b
    (Printf.sprintf
       "\n    ],\n    \"fleet_1\": %s,\n    \"fleet_2\": %s,\n    \
        \"throughput_scaling_2_over_1\": %.3f\n  },\n"
       (Bench_host.json ~jobs_requested:1 ())
       (Bench_host.json ~jobs_requested:2 ())
       scaling);
  Buffer.add_string b
    (Printf.sprintf
       "  \"affinity\": {\n    \"design\": \"ma4\", \"engine\": \"ssa\", \
        \"sources\": %d, \
        \"shards\": %d, \"cache_capacity_per_shard\": %d,\n    \"ring\": "
       k ring_row.shards per_shard);
  json_row b ring_row;
  Buffer.add_string b ",\n    \"random\": ";
  json_row b rand_row;
  Buffer.add_string b
    (Printf.sprintf
       ",\n    \"ring_cache\": {\"hits\": %.0f, \"misses\": %.0f},\n    \
        \"random_cache\": {\"hits\": %.0f, \"misses\": %.0f},\n    \
        \"p50_win\": %.2f\n  },\n"
       ring_h ring_m rand_h rand_m
       (rand_row.p50 /. ring_row.p50));
  Buffer.add_string b
    (Printf.sprintf
       "  \"open_loop\": {\"rate_rps\": %.1f, \"duration_s\": %.1f, \
        \"row\": "
       rate duration);
  json_row b ol_row;
  Buffer.add_string b "\n  },\n";
  Buffer.add_string b
    "  \"validate\": {\"mix\": \"1:1 certify:reject, inline exact tier\", \
     \"row\": ";
  json_row b v_row;
  Buffer.add_string b
    (Printf.sprintf
       ",\n    \"certified\": %.0f, \"rejected\": %.0f, \
        \"rejects_per_sec\": %.1f\n  }\n}\n"
       v_certified v_rejected
       (v_rejected /. v_row.wall_s));
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.eprintf "wrote %s\n%!" path

(* -------------------------------------------------------------- main *)

let () =
  let smoke =
    Array.exists (fun a -> a = "smoke" || a = "--smoke") Sys.argv
  in
  let out = ref "BENCH_serve.json" in
  let served = ref "crnserved" in
  Array.iteri
    (fun i a ->
      if a = "--out" && i + 1 < Array.length Sys.argv then
        out := Sys.argv.(i + 1)
      else if a = "--served" && i + 1 < Array.length Sys.argv then
        served := Sys.argv.(i + 1))
    Sys.argv;
  if not (Sys.file_exists !served) then begin
    Printf.eprintf
      "bench_serve: crnserved binary not found at %S (pass --served PATH)\n"
      !served;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dirbase =
    Printf.sprintf "%s/mrsc-bench-serve-%d"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  (try Unix.mkdir dirbase 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* every scenario stops its fleet before it returns or raises, so at
     exit nothing is left running in the directory *)
  at_exit (fun () -> rm_rf dirbase);
  let served = !served in
  let scaling = scenario_scaling ~served ~dirbase ~smoke in
  let affinity = scenario_affinity ~served ~dirbase ~smoke in
  let ol = scenario_open_loop ~served ~dirbase ~smoke in
  let v = scenario_validate ~served ~dirbase ~smoke in
  write_json ~path:!out ~smoke scaling affinity ol v
