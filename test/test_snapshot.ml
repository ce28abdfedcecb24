(* Simulation checkpoints: binary codec round-trips, torn-write
   robustness, the pinned format, and bitwise checkpoint/resume across
   all four simulation engines.

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
  Alcotest.(check string) "engine" "ode" (S.engine_name sc'.S.sc_state);
  Alcotest.(check string)
    "network text"
    (Crn.Network.to_string sc.S.sc_net)
    (Crn.Network.to_string sc'.S.sc_net);
  Alcotest.(check string)
    "fingerprint"
    (Crn.Equiv.fingerprint sc.S.sc_net)
    (Crn.Equiv.fingerprint sc'.S.sc_net)

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

(* a counter2 SSA run cancelled at its fifth poll (2,048 events, five
   trace samples): a checkpoint with every part of the format in use *)
let counter2_checkpoint () =
  let net = counter_net () and env = env_1000 in
  let seed = 7L and t1 = 30. and sample_dt = 0.05 in
  let captured = ref None in
  (match
     Ssa.Gillespie.run ~env ~seed ~sample_dt ~cancel:(cancel_after 4)
       ~on_cancel:(fun ck -> captured := Some ck)
       ~t1 net
   with
  | _ -> Alcotest.fail "counter2 finished before the token tripped"
  | exception Numeric.Cancel.Cancelled -> ());
  {
    S.sc_net = net;
    sc_env = env;
    sc_t1 = t1;
    sc_seed = seed;
    sc_params = [| ("sample_dt", sample_dt) |];
    sc_state = S.Ssa_ck (Option.get !captured);
  }

(* the checkpoint format must not move: every [.sim] file already
   written has to keep resuming. The digest pins the bytes [sim_version]
   1 writes for this checkpoint; it also depends on the SSA stream for
   seed 7, which the seed-pinned engine tests hold still. *)
let test_sim_format_pinned () =
  Alcotest.(check string)
    "encode_sim digest" "2815eb01347a361c772b4c3130f720ea"
    (Digest.to_hex (Digest.string (S.encode_sim (counter2_checkpoint ()))))

let corrupt_raises what data =
  match S.decode_sim data with
  | _ -> Alcotest.failf "%s: decoded instead of raising" what
  | exception B.Corrupt _ -> ()
  | exception S.Version_mismatch _ ->
      Alcotest.failf "%s: Version_mismatch instead of Corrupt" what

(* the container's magic, then a big-endian length prefix and eight
   more bytes *)
let length_prefix n =
  let b = Buffer.create 24 in
  Buffer.add_string b "MRSCSNAP";
  Buffer.add_int64_be b (Int64.of_int n);
  Buffer.add_string b (String.make 8 '\x00');
  Buffer.contents b

let test_torn_writes () =
  let data = S.encode_sim (counter2_checkpoint ()) in
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
  (* a length prefix near max_int must not wrap the bounds check *)
  List.iter
    (fun len ->
      corrupt_raises
        (Printf.sprintf "length prefix %d" len)
        (length_prefix len))
    [ max_int; max_int - 3 ];
  (* a well-formed container from the future is a version mismatch, not
     corruption, so the two can be reported apart *)
  let future =
    B.encode_file ~kind:S.sim_kind ~version:(S.sim_version + 1) "payload"
  in
  (match S.decode_sim future with
  | _ -> Alcotest.fail "future version decoded"
  | exception S.Version_mismatch { found; expected; _ } ->
      Alcotest.(check int) "found" (S.sim_version + 1) found;
      Alcotest.(check int) "expected" S.sim_version expected
  | exception B.Corrupt msg ->
      Alcotest.failf "future version counted as corrupt: %s" msg);
  (* a container of another kind is corrupt (kind mismatch), not a
     crash *)
  corrupt_raises "another kind"
    (B.encode_file ~kind:"mrsc-model" ~version:S.sim_version
       (B.decode_file data).B.payload)

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
    ("sim checkpoint round-trip", `Quick, test_sim_roundtrip_params);
    ("sim checkpoint format pinned", `Quick, test_sim_format_pinned);
    ("binio float bit patterns", `Quick, test_binio_float_bits);
    ("torn-write corpus", `Quick, test_torn_writes);
    ("resume fixed interrupt points", `Slow, test_resume_fixed_points);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
