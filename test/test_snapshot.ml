(* The warm-persistence layer: binary codec round-trips, torn-write
   robustness, warm-loaded LRU behaviour, and bitwise checkpoint/resume
   across all four simulation engines.

   The resume tests use a poll-counting cancel token: the token trips
   after exactly N polls, the engine's [on_cancel] captures its loop-top
   checkpoint, and the continuation (run through the full binary codec,
   not just the in-memory record) must finish with a trace bitwise
   identical to a run that was never interrupted. *)

module S = Service.Snapshot
module B = Service.Binio

let env_1000 = Crn.Rates.env_with_ratio 1000.

let counter_net () = (Option.get (Designs.Catalog.find "counter2")).build ()
let clock_net () = (Option.get (Designs.Catalog.find "clock3")).build ()

(* a token that cancels forever after the Nth poll *)
let cancel_after n =
  let polls = ref 0 in
  Numeric.Cancel.of_fun (fun () ->
      incr polls;
      !polls > n)

let check_traces what a b =
  Alcotest.(check int) (what ^ ": trace length") (Ode.Trace.length a)
    (Ode.Trace.length b);
  Alcotest.(check (array string))
    (what ^ ": trace names") (Ode.Trace.names a) (Ode.Trace.names b);
  (* bit-pattern equality, so NaNs produced by both runs compare equal
     and signed zeros are distinguished *)
  let same x y = Int64.bits_of_float x = Int64.bits_of_float y in
  for i = 0 to Ode.Trace.length a - 1 do
    let ta = (Ode.Trace.times a).(i) and tb = (Ode.Trace.times b).(i) in
    if not (same ta tb) then
      Alcotest.failf "%s: time[%d] differs: %h vs %h" what i ta tb;
    let xa = Ode.Trace.state_at_index a i
    and xb = Ode.Trace.state_at_index b i in
    Array.iteri
      (fun s va ->
        if not (same va xb.(s)) then
          Alcotest.failf "%s: state[%d][%d] differs: %h vs %h" what i s va
            xb.(s))
      xa
  done

(* roundtrip a checkpoint through the full binary codec before resuming:
   what comes back must drive the identical continuation *)
let codec_roundtrip sc = S.decode_sim (S.encode_sim sc)

(* ------------------------------------------------------------ codecs *)

let test_model_roundtrip () =
  List.iter
    (fun build ->
      let net = build () in
      let env = env_1000 in
      let ms =
        {
          S.ms_key = "k";
          ms_sources = [| "s1"; "s2" |];
          ms_compile_ms = 12.5;
          ms_net = net;
          ms_env = env;
          ms_sys = Ode.Deriv.compile env net;
          ms_ssa = Ssa.Gillespie.compile_model env net;
        }
      in
      let data = S.encode_model ms in
      let ms' = S.decode_model data in
      Alcotest.(check string) "key" ms.S.ms_key ms'.S.ms_key;
      Alcotest.(check (array string))
        "sources" ms.S.ms_sources ms'.S.ms_sources;
      Alcotest.(check string)
        "fingerprint"
        (Crn.Equiv.fingerprint ms.S.ms_net)
        (Crn.Equiv.fingerprint ms'.S.ms_net);
      Alcotest.(check string)
        "network text"
        (Crn.Network.to_string ms.S.ms_net)
        (Crn.Network.to_string ms'.S.ms_net);
      (* encode(decode(x)) must be byte-identical: the codec is
         canonical, so nothing is lost or reordered *)
      Alcotest.(check string) "idempotent bytes" data (S.encode_model ms');
      (* the decoded compiled artifacts must behave identically *)
      let x0 = Crn.Network.initial_state net in
      let d a = Ode.Deriv.eval a x0 in
      Alcotest.(check (array (float 0.)))
        "deriv eval" (d ms.S.ms_sys) (d ms'.S.ms_sys);
      let run ssa =
        (Ssa.Gillespie.run ~env ~seed:9L ~model:ssa ~t1:0.5 net)
          .Ssa.Gillespie.final
      in
      Alcotest.(check (array (float 0.)))
        "ssa run" (run ms.S.ms_ssa) (run ms'.S.ms_ssa))
    [ counter_net; clock_net ]

let test_sim_roundtrip_params () =
  let net = counter_net () in
  let sc =
    {
      S.sc_net = net;
      sc_env = env_1000;
      sc_t1 = 42.;
      sc_seed = 123456789L;
      sc_params = [| ("sample_dt", 0.25); ("epsilon", 0.03) |];
      sc_state =
        S.Ode_ck
          {
            Ode.Driver.ck_method =
              Ode.Driver.Ck_fixed { Ode.Fixed.ck_t = 1.5; ck_x = [| 0.5; 2. |] };
            ck_countdown = 3;
            ck_trace = Ode.Trace.create ~names:[| "a"; "b" |];
          };
    }
  in
  let sc' = codec_roundtrip sc in
  Alcotest.(check string) "idempotent bytes" (S.encode_sim sc)
    (S.encode_sim sc');
  Alcotest.(check (float 0.)) "t1" sc.S.sc_t1 sc'.S.sc_t1;
  Alcotest.(check int64) "seed" sc.S.sc_seed sc'.S.sc_seed;
  Alcotest.(check (option (float 0.))) "param" (Some 0.25)
    (S.param sc' "sample_dt");
  Alcotest.(check (option (float 0.))) "missing param" None
    (S.param sc' "nope");
  Alcotest.(check string) "engine" "ode" (S.engine_name sc'.S.sc_state)

(* floats must round-trip bitwise, including the values printf mangles *)
let test_binio_float_bits () =
  let specials =
    [| nan; infinity; neg_infinity; -0.0; 0.0; 1e-308; -1.7976931348623157e308 |]
  in
  let w = B.writer () in
  B.w_f64_array w specials;
  let r = B.reader (B.contents w) in
  let back = B.r_f64_array r in
  B.expect_end r;
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float back.(i) then
        Alcotest.failf "float %d lost bits: %h vs %h" i x back.(i))
    specials

(* ------------------------------------------------- torn-write corpus *)

let corrupt_raises what data =
  match S.decode_model data with
  | _ -> Alcotest.failf "%s: decoded instead of raising" what
  | exception B.Corrupt _ -> ()
  | exception S.Version_mismatch _ ->
      Alcotest.failf "%s: Version_mismatch instead of Corrupt" what

let test_torn_writes () =
  let net = counter_net () in
  let ms =
    {
      S.ms_key = "k";
      ms_sources = [||];
      ms_compile_ms = 0.;
      ms_net = net;
      ms_env = env_1000;
      ms_sys = Ode.Deriv.compile env_1000 net;
      ms_ssa = Ssa.Gillespie.compile_model env_1000 net;
    }
  in
  let data = S.encode_model ms in
  let n = String.length data in
  (* truncations at every interesting boundary *)
  List.iter
    (fun k ->
      if k < n then corrupt_raises (Printf.sprintf "truncated to %d" k)
          (String.sub data 0 k))
    [ 0; 1; 4; 7; 8; 12; 16; 24; n / 4; n / 2; n - 17; n - 1 ];
  (* a flipped byte anywhere must fail the CRC (or a semantic check) *)
  List.iter
    (fun k ->
      let b = Bytes.of_string data in
      Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0x41));
      corrupt_raises (Printf.sprintf "byte %d flipped" k)
        (Bytes.to_string b))
    [ 0; 9; n / 3; n / 2; n - 2 ];
  (* wrong magic *)
  corrupt_raises "wrong magic" ("XXXXXXXX" ^ String.sub data 8 (n - 8));
  (* trailing garbage *)
  corrupt_raises "trailing garbage" (data ^ "\x00");
  (* a well-formed container from the future is a version mismatch, not
     corruption — the loader counts the two separately *)
  let future =
    B.encode_file ~kind:S.model_kind ~version:(S.model_version + 1) "payload"
  in
  (match S.decode_model future with
  | _ -> Alcotest.fail "future version decoded"
  | exception S.Version_mismatch { found; expected; _ } ->
      Alcotest.(check int) "found" (S.model_version + 1) found;
      Alcotest.(check int) "expected" S.model_version expected
  | exception B.Corrupt msg ->
      Alcotest.failf "future version counted as corrupt: %s" msg);
  (* sim checkpoints share the container: a model file fed to the sim
     decoder is corrupt (kind mismatch), not a crash *)
  match S.decode_sim data with
  | _ -> Alcotest.fail "model bytes decoded as sim checkpoint"
  | exception B.Corrupt _ -> ()

(* ------------------------------------------- cache warm load on disk *)

let tmpdir =
  let count = ref 0 in
  fun () ->
    incr count;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mrsc-snap-test-%d-%d" (Unix.getpid ()) !count)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let compile_ratio cache ratio =
  let env = Crn.Rates.env_with_ratio ratio in
  Service.Model_cache.find_or_compile cache
    ~source_key:(Service.Model_cache.source_key ~spec:"counter2" ~env)
    ~env
    ~build:counter_net

let test_save_load_cycle () =
  let dir = tmpdir () in
  let cache = Service.Model_cache.create ~capacity:8 () in
  let ratios = [ 10.; 100.; 1000. ] in
  List.iter (fun r -> ignore (compile_ratio cache r)) ratios;
  Alcotest.(check int) "written" 3 (Service.Model_cache.save_to cache dir);
  let warm = Service.Model_cache.create ~capacity:8 () in
  let report = Service.Model_cache.load_from warm dir in
  Alcotest.(check int) "loaded" 3 report.Service.Model_cache.loaded;
  Alcotest.(check int) "no corrupt" 0
    report.Service.Model_cache.skipped_corrupt;
  (* repeats of the original requests are HITS on the warm cache: the
     snapshots carried their source aliases *)
  List.iter
    (fun r ->
      let entry, outcome = compile_ratio warm r in
      (match outcome with
      | `Hit -> ()
      | `Miss -> Alcotest.failf "ratio %g missed on the warm cache" r);
      (* and the warm compiled model simulates identically to a fresh
         compile *)
      let env = Crn.Rates.env_with_ratio r in
      let net = counter_net () in
      let fresh =
        (Ssa.Gillespie.run ~env ~seed:5L ~t1:0.5 net).Ssa.Gillespie.final
      in
      let warmed =
        (Ssa.Gillespie.run ~env ~seed:5L
           ~model:entry.Service.Model_cache.model.Service.Engines.ssa ~t1:0.5
           net)
          .Ssa.Gillespie.final
      in
      Alcotest.(check (array (float 0.))) "warm model runs identically"
        fresh warmed)
    ratios

let test_warm_load_skips_corrupt () =
  let dir = tmpdir () in
  let cache = Service.Model_cache.create ~capacity:8 () in
  ignore (compile_ratio cache 10.);
  ignore (compile_ratio cache 100.);
  ignore (Service.Model_cache.save_to cache dir);
  (* corrupt one snapshot in place, add one torn file, one future-version
     file, one version-1 file (the previous format revision) and one
     file of garbage *)
  let files = Sys.readdir dir in
  Array.sort compare files;
  let victim = Filename.concat dir files.(0) in
  let data =
    In_channel.with_open_bin victim In_channel.input_all
  in
  let b = Bytes.of_string data in
  Bytes.set b (String.length data / 2)
    (Char.chr (Char.code (Bytes.get b (String.length data / 2)) lxor 0xff));
  Out_channel.with_open_bin victim (fun oc ->
      Out_channel.output_bytes oc b);
  Out_channel.with_open_bin (Filename.concat dir "torn.model") (fun oc ->
      Out_channel.output_string oc (String.sub data 0 40));
  Out_channel.with_open_bin (Filename.concat dir "future.model") (fun oc ->
      Out_channel.output_string oc
        (B.encode_file ~kind:S.model_kind ~version:(S.model_version + 7) "x"));
  Out_channel.with_open_bin (Filename.concat dir "v1.model") (fun oc ->
      Out_channel.output_string oc
        (B.encode_file ~kind:S.model_kind ~version:1
           (B.decode_file data).B.payload));
  Out_channel.with_open_bin (Filename.concat dir "noise.model") (fun oc ->
      Out_channel.output_string oc "not a snapshot at all");
  let warm = Service.Model_cache.create ~capacity:8 () in
  let report = Service.Model_cache.load_from warm dir in
  Alcotest.(check int) "loaded the survivor" 1
    report.Service.Model_cache.loaded;
  Alcotest.(check int) "corrupt counted" 3
    report.Service.Model_cache.skipped_corrupt;
  Alcotest.(check int) "version counted" 2
    report.Service.Model_cache.skipped_version;
  let loaded, corrupt, version, _writes =
    Service.Model_cache.warm_counters warm
  in
  Alcotest.(check int) "counter: loaded" 1 loaded;
  Alcotest.(check int) "counter: corrupt" 3 corrupt;
  Alcotest.(check int) "counter: version" 2 version

(* a snapshot whose stored key disagrees with its decoded network is
   stale (someone else's file, an edited file): recompute-and-compare
   must reject it *)
let test_warm_load_rejects_stale_key () =
  let dir = tmpdir () in
  let cache = Service.Model_cache.create ~capacity:8 () in
  ignore (compile_ratio cache 10.);
  ignore (Service.Model_cache.save_to cache dir);
  let file =
    Filename.concat dir
      (Array.to_list (Sys.readdir dir)
      |> List.find (fun f -> Filename.check_suffix f ".model"))
  in
  let data = In_channel.with_open_bin file In_channel.input_all in
  let ms = S.decode_model data in
  (* re-encode under a lying key with a valid CRC *)
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        (S.encode_model { ms with S.ms_key = "somebody-elses-key" }));
  let warm = Service.Model_cache.create ~capacity:8 () in
  let report = Service.Model_cache.load_from warm dir in
  Alcotest.(check int) "nothing loaded" 0 report.Service.Model_cache.loaded;
  Alcotest.(check int) "counted corrupt" 1
    report.Service.Model_cache.skipped_corrupt

(* satellite 1: warm-loaded entries enter with fresh LRU ticks — a
   cold insert right after restart evicts within the warm set by
   recency, and touching a warm entry protects it *)
let test_warm_lru_order () =
  let dir = tmpdir () in
  let cache = Service.Model_cache.create ~capacity:3 () in
  ignore (compile_ratio cache 10.);
  ignore (compile_ratio cache 100.);
  ignore (compile_ratio cache 1000.);
  ignore (Service.Model_cache.save_to cache dir);
  let warm = Service.Model_cache.create ~capacity:3 () in
  let report = Service.Model_cache.load_from warm dir in
  Alcotest.(check int) "warm set loaded" 3 report.Service.Model_cache.loaded;
  (* touch two of the three warm entries; the untouched one is now LRU *)
  let _, o1 = compile_ratio warm 10. in
  let _, o2 = compile_ratio warm 1000. in
  Alcotest.(check bool) "touch 10 is a hit" true (o1 = `Hit);
  Alcotest.(check bool) "touch 1000 is a hit" true (o2 = `Hit);
  (* a cold insert must evict ratio 100 (least recently used), keeping
     the touched entries *)
  ignore (compile_ratio warm 7.);
  let _, again10 = compile_ratio warm 10. in
  let _, again1000 = compile_ratio warm 1000. in
  let _, again100 = compile_ratio warm 100. in
  Alcotest.(check bool) "10 survived" true (again10 = `Hit);
  Alcotest.(check bool) "1000 survived" true (again1000 = `Hit);
  Alcotest.(check bool) "100 was the eviction victim" true (again100 = `Miss)

(* background persister: entries written on insert, visible to a fresh
   load after flush *)
let test_background_persist () =
  let dir = tmpdir () in
  let cache = Service.Model_cache.create ~capacity:8 () in
  Service.Model_cache.set_state_dir cache dir;
  ignore (compile_ratio cache 10.);
  ignore (compile_ratio cache 100.);
  Service.Model_cache.flush cache;
  let _, _, _, writes = Service.Model_cache.warm_counters cache in
  Alcotest.(check int) "two snapshots written" 2 writes;
  Service.Model_cache.shutdown cache;
  let warm = Service.Model_cache.create ~capacity:8 () in
  let report = Service.Model_cache.load_from warm dir in
  Alcotest.(check int) "persisted entries load" 2
    report.Service.Model_cache.loaded

(* --------------------------------------------- bitwise engine resume *)

(* run an engine to completion; then run it again with a cancel token
   that trips mid-run, round-trip the captured checkpoint through the
   codec, resume, and demand the identical trace *)

let resume_ssa ~seed ~polls () =
  let net = clock_net () in
  let env = env_1000 in
  let t1 = 4. in
  let full = Ssa.Gillespie.run ~env ~seed ~t1 net in
  let captured = ref None in
  (match
     Ssa.Gillespie.run ~env ~seed ~cancel:(cancel_after polls)
       ~on_cancel:(fun ck -> captured := Some ck)
       ~t1 net
   with
  | _ -> true (* finished before the token tripped: nothing to test *)
  | exception Numeric.Cancel.Cancelled ->
      let ck =
        match !captured with
        | Some ck -> ck
        | None -> Alcotest.fail "cancelled without on_cancel"
      in
      let sc =
        codec_roundtrip
          {
            S.sc_net = net;
            sc_env = env;
            sc_t1 = t1;
            sc_seed = seed;
            sc_params = [||];
            sc_state = S.Ssa_ck ck;
          }
      in
      let ck =
        match sc.S.sc_state with S.Ssa_ck c -> c | _ -> assert false
      in
      let resumed =
        Ssa.Gillespie.run ~env:sc.S.sc_env ~seed:sc.S.sc_seed ~resume:ck
          ~t1:sc.S.sc_t1 sc.S.sc_net
      in
      check_traces "ssa" full.Ssa.Gillespie.trace resumed.Ssa.Gillespie.trace;
      Alcotest.(check int) "ssa: n_events" full.Ssa.Gillespie.n_events
        resumed.Ssa.Gillespie.n_events;
      true)

let resume_tau ~seed ~polls () =
  let net = clock_net () in
  let env = env_1000 in
  let t1 = 2. in
  let full = Ssa.Tau_leap.run ~env ~seed ~t1 net in
  let captured = ref None in
  (match
     Ssa.Tau_leap.run ~env ~seed ~cancel:(cancel_after polls)
       ~on_cancel:(fun ck -> captured := Some ck)
       ~t1 net
   with
  | _ -> true
  | exception Numeric.Cancel.Cancelled ->
      let ck = Option.get !captured in
      let sc =
        codec_roundtrip
          {
            S.sc_net = net;
            sc_env = env;
            sc_t1 = t1;
            sc_seed = seed;
            sc_params = [||];
            sc_state = S.Tau_ck ck;
          }
      in
      let ck =
        match sc.S.sc_state with S.Tau_ck c -> c | _ -> assert false
      in
      let resumed =
        Ssa.Tau_leap.run ~env:sc.S.sc_env ~seed:sc.S.sc_seed ~resume:ck
          ~t1:sc.S.sc_t1 sc.S.sc_net
      in
      check_traces "tau" full.Ssa.Tau_leap.trace resumed.Ssa.Tau_leap.trace;
      Alcotest.(check int) "tau: n_leaps" full.Ssa.Tau_leap.n_leaps
        resumed.Ssa.Tau_leap.n_leaps;
      Alcotest.(check int) "tau: n_exact" full.Ssa.Tau_leap.n_exact
        resumed.Ssa.Tau_leap.n_exact;
      true)

let resume_hybrid ~seed ~polls () =
  let net = clock_net () in
  let env = env_1000 in
  let t1 = 2. in
  let full = Hybrid.Engine.run ~env ~seed ~t1 net in
  let captured = ref None in
  (match
     Hybrid.Engine.run ~env ~seed ~cancel:(cancel_after polls)
       ~on_cancel:(fun ck -> captured := Some ck)
       ~t1 net
   with
  | _ -> true
  | exception Numeric.Cancel.Cancelled ->
      let ck = Option.get !captured in
      let sc =
        codec_roundtrip
          {
            S.sc_net = net;
            sc_env = env;
            sc_t1 = t1;
            sc_seed = seed;
            sc_params = [||];
            sc_state = S.Hybrid_ck ck;
          }
      in
      let ck =
        match sc.S.sc_state with S.Hybrid_ck c -> c | _ -> assert false
      in
      let resumed =
        Hybrid.Engine.run ~env:sc.S.sc_env ~seed:sc.S.sc_seed ~resume:ck
          ~t1:sc.S.sc_t1 sc.S.sc_net
      in
      check_traces "hybrid" full.Hybrid.Engine.trace
        resumed.Hybrid.Engine.trace;
      true)

let resume_ode ~method_ ~polls () =
  let net = clock_net () in
  let env = env_1000 in
  let t1 = 6. in
  let thin = 3 in
  (* the checkpointable driver must first agree with the plain one *)
  let plain = Ode.Driver.simulate ~method_ ~env ~thin ~t1 net in
  let full = Ode.Driver.simulate_ck ~method_ ~env ~thin ~t1 net in
  check_traces "ode: simulate_ck vs simulate" plain full;
  let captured = ref None in
  (match
     Ode.Driver.simulate_ck ~method_ ~env ~thin
       ~cancel:(cancel_after polls)
       ~on_cancel:(fun ck -> captured := Some ck)
       ~t1 net
   with
  | _ -> true
  | exception Numeric.Cancel.Cancelled ->
      let ck = Option.get !captured in
      let sc =
        codec_roundtrip
          {
            S.sc_net = net;
            sc_env = env;
            sc_t1 = t1;
            sc_seed = 0L;
            sc_params = [||];
            sc_state = S.Ode_ck ck;
          }
      in
      let ck =
        match sc.S.sc_state with S.Ode_ck c -> c | _ -> assert false
      in
      let resumed =
        Ode.Driver.simulate_ck ~method_ ~env:sc.S.sc_env ~thin ~resume:ck
          ~t1:sc.S.sc_t1 sc.S.sc_net
      in
      check_traces "ode" full resumed;
      true)

let test_resume_fixed_points () =
  (* a deterministic spread of interrupt points for each engine *)
  List.iter
    (fun polls -> ignore (resume_ssa ~seed:7L ~polls ()))
    [ 1; 5; 50; 400 ];
  List.iter
    (fun polls -> ignore (resume_tau ~seed:7L ~polls ()))
    [ 1; 3; 20; 200 ];
  List.iter
    (fun polls -> ignore (resume_hybrid ~seed:7L ~polls ()))
    [ 1; 3; 20; 200 ];
  List.iter
    (fun polls ->
      ignore (resume_ode ~method_:Ode.Driver.Dopri5 ~polls ());
      ignore (resume_ode ~method_:Ode.Driver.Rosenbrock ~polls ());
      ignore (resume_ode ~method_:(Ode.Driver.Rk4 0.0005) ~polls ()))
    [ 1; 10; 100 ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"resume: ssa bitwise at any interrupt point" ~count:15
      (make Gen.(pair (int_range 1 2000) (int_range 1 1000000)))
      (fun (polls, seed) -> resume_ssa ~seed:(Int64.of_int seed) ~polls ());
    Test.make ~name:"resume: tau bitwise at any interrupt point" ~count:10
      (make Gen.(pair (int_range 1 500) (int_range 1 1000000)))
      (fun (polls, seed) -> resume_tau ~seed:(Int64.of_int seed) ~polls ());
    Test.make ~name:"resume: hybrid bitwise at any interrupt point" ~count:10
      (make Gen.(pair (int_range 1 500) (int_range 1 1000000)))
      (fun (polls, seed) ->
        resume_hybrid ~seed:(Int64.of_int seed) ~polls ());
    Test.make ~name:"resume: ode bitwise at any interrupt point" ~count:8
      (make Gen.(pair (int_range 1 300) (int_range 0 2)))
      (fun (polls, m) ->
        let method_ =
          match m with
          | 0 -> Ode.Driver.Dopri5
          | 1 -> Ode.Driver.Rosenbrock
          | _ -> Ode.Driver.Rk4 0.0005
        in
        resume_ode ~method_ ~polls ());
    Test.make ~name:"binio: int64/float/string round-trip" ~count:100
      (make
         Gen.(
           triple (map Int64.of_int int) float
             (string_size ~gen:printable (int_range 0 64))))
      (fun (i, f, s) ->
        let w = B.writer () in
        B.w_i64 w i;
        B.w_f64 w f;
        B.w_string w s;
        B.w_option B.w_f64 w (Some f);
        B.w_option B.w_i64 w None;
        let r = B.reader (B.contents w) in
        let i' = B.r_i64 r in
        let f' = B.r_f64 r in
        let s' = B.r_string r in
        let fo = B.r_option B.r_f64 r in
        let io = B.r_option B.r_i64 r in
        B.expect_end r;
        i = i'
        && Int64.bits_of_float f = Int64.bits_of_float f'
        && s = s'
        && (match fo with
           | Some f'' -> Int64.bits_of_float f = Int64.bits_of_float f''
           | None -> false)
        && io = None);
  ]

let suite =
  [
    ("model snapshot round-trip", `Quick, test_model_roundtrip);
    ("sim checkpoint round-trip", `Quick, test_sim_roundtrip_params);
    ("binio float bit patterns", `Quick, test_binio_float_bits);
    ("torn-write corpus", `Quick, test_torn_writes);
    ("cache save/load cycle", `Quick, test_save_load_cycle);
    ("warm load skips corrupt", `Quick, test_warm_load_skips_corrupt);
    ("warm load rejects stale key", `Quick, test_warm_load_rejects_stale_key);
    ("warm LRU order", `Quick, test_warm_lru_order);
    ("background persister", `Quick, test_background_persist);
    ("resume fixed interrupt points", `Slow, test_resume_fixed_points);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
