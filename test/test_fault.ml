(* The fault-injection offensive: the Fault shim itself, property/fuzz
   suites over the wire decoder and JSON codec, the client's retry /
   deadline policy against a scripted misbehaving peer, and a live
   daemon driven through every fault class it claims to degrade
   gracefully under — asserting each time that the daemon stays alive,
   answers with a structured error (or closes cleanly), and increments
   the matching stats counter.

   Every randomized suite derives all its randomness from a generated
   integer seed via Numeric.Rng, so the counterexample qcheck prints IS
   the replay seed. *)

module J = Service.Json
module W = Service.Wire
module F = Fault
module C = Service.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ----------------------------------------------------- the Fault shim *)

(* Each unit test runs the shim over a Unix pipe: real descriptors, real
   partial-transfer semantics, no daemon in the way. *)
let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with _ -> ());
      try Unix.close w with _ -> ())
    (fun () -> f r w)

let rec read_fully t buf off len =
  if len = 0 then true
  else
    let n = t.W.read buf off len in
    if n = 0 then false else read_fully t buf (off + n) (len - n)

let test_fault_short () =
  with_pipe (fun r w ->
      let t = F.wrap ~on_write:[ F.Short { at = 0; cap = 3 } ] (W.of_fd w) in
      let buf = Bytes.of_string "0123456789" in
      let n1 = t.W.write buf 0 10 in
      check_int "first write torn to the cap" 3 n1;
      (* the Short retires with the call that hit it *)
      let n2 = t.W.write buf n1 (10 - n1) in
      check_int "second write unclipped" 7 n2;
      let got = Bytes.create 10 in
      check_bool "bytes intact" true
        (read_fully (W.of_fd r) got 0 10 && Bytes.to_string got = "0123456789"))

let test_fault_chop () =
  with_pipe (fun r w ->
      let payload = String.init 500 (fun i -> Char.chr (i mod 256)) in
      (* every write capped at 7 bytes, every read capped at 3: the
         framing layer must reassemble regardless (the whole frame fits
         in the pipe buffer, so writing first cannot block) *)
      W.write_frame_t (F.chop 7 (W.of_fd w)) payload;
      let got = W.read_frame_t (F.chop 3 (W.of_fd r)) in
      check_bool "frame reassembled from 3-byte reads" true (got = Some payload);
      check_bool "chop rejects cap < 1" true
        (match F.chop 0 (W.of_fd r) with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_fault_corrupt () =
  with_pipe (fun r w ->
      let t = F.wrap ~on_write:[ F.Corrupt { at = 2; xor = 0x20 } ] (W.of_fd w) in
      let buf = Bytes.of_string "abcde" in
      let n = t.W.write buf 0 5 in
      check_int "whole span transferred" 5 n;
      check_string "caller's buffer untouched" "abcde" (Bytes.to_string buf);
      let got = Bytes.create 5 in
      ignore (read_fully (W.of_fd r) got 0 5);
      check_string "exactly byte 2 flipped" "abCde" (Bytes.to_string got));
  with_pipe (fun r w ->
      ignore (Unix.write_substring w "abcde" 0 5);
      let t = F.wrap ~on_read:[ F.Corrupt { at = 0; xor = 0x01 } ] (W.of_fd r) in
      let got = Bytes.create 5 in
      ignore (read_fully t got 0 5);
      check_string "read-side corruption" "`bcde" (Bytes.to_string got))

let test_fault_reset () =
  with_pipe (fun r w ->
      ignore (Unix.write_substring w "abcdef" 0 6);
      let t = F.wrap ~on_read:[ F.Reset { at = 4 } ] (W.of_fd r) in
      let got = Bytes.create 16 in
      let n = t.W.read got 0 16 in
      check_int "read clipped at the reset offset" 4 n;
      check_bool "next read raises ECONNRESET" true
        (match t.W.read got 0 16 with
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
        | _ -> false))

let test_fault_stall () =
  with_pipe (fun _r w ->
      let t = F.wrap ~on_write:[ F.Stall { at = 0; ms = 40. } ] (W.of_fd w) in
      let t0 = Unix.gettimeofday () in
      ignore (t.W.write (Bytes.of_string "x") 0 1);
      let elapsed = Unix.gettimeofday () -. t0 in
      check_bool
        (Printf.sprintf "stalled >= 30ms (got %.1fms)" (elapsed *. 1000.))
        true (elapsed >= 0.030))

let test_fault_schedule_tools () =
  check_string "empty schedule" "(no faults)" (F.describe []);
  check_string "describe sorts by offset"
    "corrupt@5(xor 0x40), reset@120"
    (F.describe [ F.Reset { at = 120 }; F.Corrupt { at = 5; xor = 0x40 } ]);
  check_bool "short+stall is lossless" true
    (F.lossless [ F.Short { at = 1; cap = 2 }; F.Stall { at = 3; ms = 1. } ]);
  check_bool "reset is not lossless" false
    (F.lossless [ F.Short { at = 1; cap = 2 }; F.Reset { at = 9 } ]);
  check_bool "corrupt is not lossless" false
    (F.lossless [ F.Corrupt { at = 0; xor = 1 } ]);
  (* same seed, same schedule — the replay contract *)
  let sched seed =
    F.describe
      (F.random_schedule ~rng:(Numeric.Rng.create seed) ~len:200 5)
  in
  check_string "same seed replays the schedule" (sched 42L) (sched 42L);
  check_bool "different seeds differ" true (sched 42L <> sched 43L)

let test_fault_lossless_frame_intact () =
  (* a schedule that only tears and delays must deliver the frame
     bit-exactly through the framing layer's own retry loops *)
  with_pipe (fun r w ->
      let payload = String.init 300 (fun i -> Char.chr ((i * 7) mod 256)) in
      let sched =
        [
          F.Short { at = 1; cap = 2 };
          F.Stall { at = 3; ms = 2. };
          F.Short { at = 100; cap = 5 };
          F.Stall { at = 200; ms = 1. };
        ]
      in
      check_bool "schedule is lossless" true (F.lossless sched);
      W.write_frame_t (F.wrap ~on_write:sched (W.of_fd w)) payload;
      check_bool "payload intact through the schedule" true
        (W.read_frame r = Some payload))

(* ------------------------------------- wire decoder / codec properties *)

let bytes_string rng n =
  String.init n (fun _ -> Char.chr (Numeric.Rng.int rng 256))

let frame_of payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

(* arbitrary payloads through the incremental decoder in arbitrary chunk
   splits: the frames must come out bit-exact and in order *)
let decoder_split_prop seed =
  let rng = Numeric.Rng.create (Int64.of_int seed) in
  let payloads =
    List.init
      (1 + Numeric.Rng.int rng 4)
      (fun _ -> bytes_string rng (Numeric.Rng.int rng 400))
  in
  let stream = String.concat "" (List.map frame_of payloads) in
  let d = W.decoder () in
  let collected = ref [] in
  let pos = ref 0 in
  let n = String.length stream in
  while !pos < n do
    let chunk = min (1 + Numeric.Rng.int rng 97) (n - !pos) in
    W.feed d (Bytes.of_string (String.sub stream !pos chunk)) chunk;
    pos := !pos + chunk;
    let rec drain () =
      match W.next_frame d with
      | Some f ->
          collected := f :: !collected;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  List.rev !collected = payloads && W.buffered d = 0

(* a random single-byte flip anywhere in a valid stream must produce
   frames, Framing_error or Oversized_frame — never any other exception,
   never a crash, never a huge allocation *)
let decoder_mutation_prop seed =
  let rng = Numeric.Rng.create (Int64.of_int seed) in
  let payloads =
    List.init
      (1 + Numeric.Rng.int rng 2)
      (fun _ -> bytes_string rng (Numeric.Rng.int rng 200))
  in
  let stream = Bytes.of_string (String.concat "" (List.map frame_of payloads)) in
  let at = Numeric.Rng.int rng (Bytes.length stream) in
  let xor = 1 + Numeric.Rng.int rng 255 in
  Bytes.set stream at (Char.chr (Char.code (Bytes.get stream at) lxor xor));
  let d = W.decoder ~max_frame:(1 lsl 20) () in
  match
    W.feed d stream (Bytes.length stream);
    let rec drain n =
      match W.next_frame d with Some _ -> drain (n + 1) | None -> n
    in
    drain 0
  with
  | n -> n <= List.length payloads + 2 (* a shrunk prefix can split a frame *)
  | exception W.Framing_error _ -> true
  | exception W.Oversized_frame _ -> true
  | exception _ -> false

let test_decoder_oversized_before_buffering () =
  (* the limit triggers on the 4 prefix bytes alone — no payload needs to
     arrive, so a hostile prefix never makes the decoder buffer or
     allocate the claimed length *)
  let d = W.decoder ~max_frame:4096 () in
  let prefix = Bytes.create 4 in
  Bytes.set_int32_be prefix 0 4097l;
  W.feed d prefix 4;
  (match W.next_frame d with
  | exception W.Oversized_frame { len = 4097; limit = 4096 } -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "oversized prefix accepted");
  (* a frame exactly at the limit is fine *)
  let d = W.decoder ~max_frame:8 () in
  let payload = "12345678" in
  let f = frame_of payload in
  W.feed d (Bytes.of_string f) (String.length f);
  check_bool "limit is inclusive" true (W.next_frame d = Some payload);
  (* blocking reader enforces the same limit pre-allocation *)
  with_pipe (fun r w ->
      ignore (Unix.write w prefix 0 4);
      Unix.close w;
      match W.read_frame ~max_frame:4096 r with
      | exception W.Oversized_frame { len = 4097; limit = 4096 } -> ()
      | _ -> Alcotest.fail "blocking reader accepted oversized prefix")

(* ------------------------------------------------- JSON codec offensive *)

let gen_float rng =
  match Numeric.Rng.int rng 12 with
  | 0 -> Float.nan
  | 1 -> infinity
  | 2 -> neg_infinity
  | 3 -> -0.
  | 4 -> 0.
  | 5 | 6 ->
      (* arbitrary bit pattern: subnormals, huge exponents, nan payloads *)
      Int64.float_of_bits (Numeric.Rng.uint64 rng)
  | 7 -> float_of_int (Numeric.Rng.int rng 2_000_000 - 1_000_000)
  | _ ->
      (Numeric.Rng.float rng -. 0.5)
      *. (10. ** float_of_int (Numeric.Rng.int rng 40 - 20))

let gen_string rng =
  let long = Numeric.Rng.int rng 20 = 0 in
  let n = if long then 500 + Numeric.Rng.int rng 1500 else Numeric.Rng.int rng 40 in
  bytes_string rng n

let rec gen_json depth rng =
  let leaf () =
    match Numeric.Rng.int rng 6 with
    | 0 -> J.Null
    | 1 -> J.Bool (Numeric.Rng.int rng 2 = 0)
    | 2 | 3 -> J.Num (gen_float rng)
    | _ -> J.Str (gen_string rng)
  in
  if depth = 0 then leaf ()
  else
    match Numeric.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 -> leaf ()
    | 5 | 6 ->
        J.List
          (List.init (Numeric.Rng.int rng 5) (fun _ -> gen_json (depth - 1) rng))
    | 7 ->
        (* a deep skinny spine: the recursive parser must take it *)
        let rec nest k = if k = 0 then leaf () else J.List [ nest (k - 1) ] in
        nest (20 + Numeric.Rng.int rng 120)
    | _ ->
        J.Obj
          (List.init (Numeric.Rng.int rng 5) (fun i ->
               (Printf.sprintf "k%d_%s" i (gen_string rng), gen_json (depth - 1) rng)))

(* bit-exact structural equality: floats compare by bit pattern (so -0.0
   and 0.0 are distinct) with all NaNs equal (the wire has one NaN token) *)
let rec json_equal a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Num x, J.Num y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || (Float.is_nan x && Float.is_nan y)
  | J.Str x, J.Str y -> String.equal x y
  | J.List xs, J.List ys -> (
      try List.for_all2 json_equal xs ys with Invalid_argument _ -> false)
  | J.Obj xs, J.Obj ys -> (
      try
        List.for_all2
          (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
          xs ys
      with Invalid_argument _ -> false)
  | _ -> false

let json_roundtrip_prop seed =
  let rng = Numeric.Rng.create (Int64.of_int seed) in
  let v = gen_json 5 rng in
  let once = J.of_string (J.to_string v) in
  (* bit-exact, and printing is a fixed point after one decode *)
  json_equal v once && String.equal (J.to_string v) (J.to_string once)

(* every proper prefix of a bracketed value is malformed, and so is any
   non-whitespace trailing garbage after a complete value *)
let json_reject_prop seed =
  let rng = Numeric.Rng.create (Int64.of_int seed) in
  let v =
    if Numeric.Rng.int rng 2 = 0 then J.List [ gen_json 3 rng ]
    else J.Obj [ ("k", gen_json 3 rng) ]
  in
  let s = J.to_string v in
  let rejects str =
    match J.of_string str with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  let cut = 1 + Numeric.Rng.int rng (String.length s - 1) in
  rejects (String.sub s 0 cut)
  && List.for_all
       (fun suffix -> rejects (s ^ suffix))
       [ "x"; "]"; "}"; " 1"; "{}"; "null" ]

(* ---------------------------- client policy against a scripted peer *)

let tmp_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mrsc-fault-%s-%d.sock" tag (Unix.getpid ()))

(* A scripted listener: [script fd] owns one freshly accepted
   connection; it is called [conns] times, then the listener closes. *)
let with_fake_peer tag ~conns script f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = tmp_sock tag in
  (try Unix.unlink path with _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let accepted = Atomic.make 0 in
  let stop = Atomic.make false in
  (* a non-blocking accept loop: closing a listener another domain is
     blocked on does not reliably wake it, so the acceptor polls and a
     stop flag ends it even when fewer than [conns] connections arrive
     (which is itself an assertion in the no-retry tests) *)
  Unix.set_nonblock lfd;
  let server =
    Domain.spawn (fun () ->
        let i = ref 1 in
        while !i <= conns && not (Atomic.get stop) do
          match Unix.accept lfd with
          | fd, _ ->
              Unix.clear_nonblock fd;
              Atomic.incr accepted;
              (try script !i fd with _ -> ());
              (try Unix.close fd with _ -> ());
              incr i
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              Unix.sleepf 0.005
          | exception Unix.Unix_error _ -> i := conns + 1
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server;
      (try Unix.close lfd with _ -> ());
      try Unix.unlink path with _ -> ())
    (fun () -> f (Service.Addr.Unix_sock path) accepted)

let ping = J.Obj [ ("op", J.str "ping") ]

let ok_ping_response =
  J.to_string
    (J.Obj
       [ ("ok", J.Bool true); ("op", J.str "ping"); ("result", J.Obj []) ])

let test_client_retries_reset_before_response () =
  (* first connection: the peer hangs up with zero response bytes (the
     retryable case); second connection: a proper answer. A client with
     retries must succeed; the peer must have seen exactly 2 conns. *)
  with_fake_peer "retry" ~conns:2
    (fun i fd ->
      match W.read_frame fd with
      | Some _ when i = 1 -> () (* close without responding *)
      | Some _ -> W.write_frame fd ok_ping_response
      | None -> ())
    (fun addr accepted ->
      let c = C.connect ~retries:3 ~retry_budget_ms:2000. ~retry_seed:7L addr in
      let resp = C.request c ping in
      C.close c;
      check_bool "retried to success" true resp.C.ok;
      check_int "exactly one retry" 2 (Atomic.get accepted))

let test_client_no_retry_mid_response () =
  (* the peer dies after sending a partial response: re-sending could
     execute the request twice, so the client must NOT retry *)
  with_fake_peer "midframe" ~conns:2
    (fun _ fd ->
      ignore (W.read_frame fd);
      let torn = Bytes.make 14 'x' in
      Bytes.set_int32_be torn 0 100l (* claims 100 bytes, sends 10 *);
      ignore (Unix.write fd torn 0 14))
    (fun addr accepted ->
      let c = C.connect ~retries:5 ~retry_budget_ms:2000. addr in
      (match C.call c ping with
      | exception W.Framing_error _ -> ()
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "torn response accepted");
      C.close c;
      check_int "no second attempt" 1 (Atomic.get accepted))

let test_client_read_deadline () =
  (* the peer accepts, reads the request, and never answers: the read
     deadline must fire instead of hanging forever, and must not retry *)
  with_fake_peer "deadline" ~conns:1
    (fun _ fd ->
      ignore (W.read_frame fd);
      Unix.sleepf 1.5)
    (fun addr accepted ->
      let c = C.connect ~retries:3 ~read_deadline_ms:200. addr in
      let t0 = Unix.gettimeofday () in
      (match C.call c ping with
      | exception C.Timeout 200. -> ()
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "silent peer produced a response");
      let elapsed = Unix.gettimeofday () -. t0 in
      C.close c;
      check_bool
        (Printf.sprintf "timed out promptly (%.0fms)" (elapsed *. 1000.))
        true
        (elapsed >= 0.15 && elapsed < 1.2);
      check_int "timeout is not retried" 1 (Atomic.get accepted))

let test_client_retries_exhausted () =
  let path = tmp_sock "nobody" in
  (try Unix.unlink path with _ -> ());
  let addr = Service.Addr.Unix_sock path in
  (* retries > 0: the bounded policy wraps the last failure *)
  (match C.connect ~retries:2 ~retry_budget_ms:400. addr with
  | exception C.Retries_exhausted { attempts = 3; last = Unix.Unix_error _ } ->
      ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "connect to nobody succeeded");
  (* retries = 0 (the default): the raw error propagates unchanged *)
  match C.connect addr with
  | exception Unix.Unix_error _ -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "connect to nobody succeeded"

(* --------------------------------------------------- live daemon tests *)

(* A live in-process daemon with deliberately tight limits, plus one
   well-behaved control client used to prove the daemon outlives every
   attack. *)
let with_server ?(tag = "live") ?(max_frame = 64 * 1024)
    ?(read_deadline_ms = 400.) ?(idle_timeout_ms = 60_000.) ?(max_conns = 256)
    f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = tmp_sock tag in
  (try Unix.unlink path with _ -> ());
  let address = Service.Addr.Unix_sock path in
  let stop = Atomic.make false in
  let config =
    {
      (Service.Server.default_config address) with
      Service.Server.jobs = 1;
      max_frame;
      read_deadline_ms;
      idle_timeout_ms;
      max_conns;
    }
  in
  let server =
    Domain.spawn (fun () ->
        Service.Server.run ~stop:(fun () -> Atomic.get stop) config)
  in
  let rec wait_ready tries =
    match C.connect address with
    | client -> client
    | exception Unix.Unix_error _ ->
        if tries = 0 then Alcotest.fail "server did not come up";
        Unix.sleepf 0.02;
        wait_ready (tries - 1)
  in
  let control = wait_ready 250 in
  Fun.protect
    ~finally:(fun () ->
      C.close control;
      Atomic.set stop true;
      Domain.join server)
    (fun () -> f ~address ~control)

let with_raw address f =
  let fd = Service.Addr.connect address in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () -> f fd)

let raw_response fd =
  match W.read_frame fd with
  | Some payload -> C.response_of_json (J.of_string payload)
  | None -> Alcotest.fail "connection closed without a response"

let raw_request fd req =
  W.write_frame fd (J.to_string req);
  raw_response fd

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let error_code (resp : C.response) =
  match resp.C.error with
  | Some err -> Service.Error.code err
  | None -> Alcotest.fail "expected a structured error"

let assert_alive what client =
  let resp = C.request client ping in
  if not resp.C.ok then Alcotest.failf "daemon dead after %s" what

(* read a counter out of the stats op over a throwaway connection, so the
   control client's own traffic pattern stays irrelevant *)
let counter address key =
  with_raw address (fun fd ->
      let resp = raw_request fd (J.Obj [ ("op", J.str "stats") ]) in
      match Option.bind resp.C.result (J.member key) with
      | Some v -> Option.value ~default:(-1) (J.to_int v)
      | None -> Alcotest.failf "stats has no %S" key)

let await what pred =
  let rec go tries =
    if pred () then ()
    else if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.05;
      go (tries - 1)
    end
  in
  go 100

let test_live_short_write () =
  with_server ~tag:"shortw" (fun ~address ~control ->
      let before = counter address "frames_in" in
      with_raw address (fun fd ->
          (* the request dribbles in through torn 3-byte writes plus a
             scheduled tear and stall: the daemon must reassemble it *)
          let t =
            F.wrap
              ~on_write:
                [ F.Short { at = 1; cap = 2 }; F.Stall { at = 6; ms = 3. } ]
              (F.chop 3 (W.of_fd fd))
          in
          W.write_frame_t t (J.to_string ping);
          let resp = raw_response fd in
          check_bool "torn request answered ok" true resp.C.ok);
      check_bool "frames_in incremented" true
        (counter address "frames_in" > before);
      assert_alive "short writes" control)

let test_live_short_read () =
  with_server ~tag:"shortr" (fun ~address ~control ->
      with_raw address (fun fd ->
          W.write_frame fd (J.to_string ping);
          (* the response arrives 2 bytes at a time on our side *)
          match W.read_frame_t (F.chop 2 (W.of_fd fd)) with
          | Some payload ->
              check_bool "response reassembled from short reads" true
                (C.response_of_json (J.of_string payload)).C.ok
          | None -> Alcotest.fail "no response");
      assert_alive "short reads" control)

let test_live_corrupt_frame () =
  with_server ~tag:"corrupt" (fun ~address ~control ->
      with_raw address (fun fd ->
          (* flip the first payload byte ('{' -> 'z'): the frame decodes,
             the JSON does not — a structured bad_request, and the
             connection survives for the next (clean) request *)
          let t =
            F.wrap ~on_write:[ F.Corrupt { at = 4; xor = 0x01 } ] (W.of_fd fd)
          in
          W.write_frame_t t (J.to_string ping);
          let resp = raw_response fd in
          check_bool "corrupt frame rejected" false resp.C.ok;
          check_string "structured bad_request" "bad_request" (error_code resp);
          let again = raw_request fd ping in
          check_bool "same connection still serves" true again.C.ok);
      assert_alive "a corrupt frame" control)

let test_live_oversized_prefix () =
  with_server ~tag:"oversz" ~max_frame:(64 * 1024)
    (fun ~address ~control ->
      let before = counter address "oversized_frames" in
      with_raw address (fun fd ->
          let prefix = Bytes.create 4 in
          Bytes.set_int32_be prefix 0 (Int32.of_int ((64 * 1024) + 1));
          ignore (Unix.write fd prefix 0 4);
          let resp = raw_response fd in
          check_bool "rejected" false resp.C.ok;
          check_string "structured bad_request" "bad_request" (error_code resp);
          check_bool "message names the limit" true
            (match resp.C.error_message with
            | Some m -> contains m "exceeds"
            | None -> false);
          check_bool "connection closed after rejection" true
            (W.read_frame fd = None));
      check_int "oversized_frames incremented" (before + 1)
        (counter address "oversized_frames");
      assert_alive "an oversized prefix" control)

let test_live_negative_prefix () =
  with_server ~tag:"negpfx" (fun ~address ~control ->
      let before = counter address "framing_errors" in
      with_raw address (fun fd ->
          ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4);
          let resp = raw_response fd in
          check_bool "rejected" false resp.C.ok;
          check_string "structured bad_request" "bad_request" (error_code resp);
          check_bool "connection closed after rejection" true
            (W.read_frame fd = None));
      check_int "framing_errors incremented" (before + 1)
        (counter address "framing_errors");
      assert_alive "a negative prefix" control)

let test_live_dirty_close () =
  with_server ~tag:"dirty" (fun ~address ~control ->
      let before = counter address "dirty_closes" in
      with_raw address (fun fd ->
          (* half a frame, then vanish mid-stream *)
          let torn = Bytes.make 9 'x' in
          Bytes.set_int32_be torn 0 100l;
          ignore (Unix.write fd torn 0 9));
      await "dirty_closes counter" (fun () ->
          counter address "dirty_closes" > before);
      assert_alive "a dirty close" control)

let test_live_stalled_partial_frame () =
  with_server ~tag:"stall" ~read_deadline_ms:300. (fun ~address ~control ->
      let before = counter address "read_timeouts" in
      with_raw address (fun fd ->
          let torn = Bytes.make 9 'x' in
          Bytes.set_int32_be torn 0 50l;
          ignore (Unix.write fd torn 0 9);
          (* ...and now stall: the daemon must kill only this connection,
             with a structured explanation, after its read deadline *)
          let t0 = Unix.gettimeofday () in
          let resp = raw_response fd in
          let elapsed = Unix.gettimeofday () -. t0 in
          check_bool "rejected" false resp.C.ok;
          check_string "structured bad_request" "bad_request" (error_code resp);
          check_bool
            (Printf.sprintf "killed near the deadline (%.0fms)"
               (elapsed *. 1000.))
            true
            (elapsed >= 0.2 && elapsed < 2.);
          check_bool "connection closed" true (W.read_frame fd = None));
      check_int "read_timeouts incremented" (before + 1)
        (counter address "read_timeouts");
      assert_alive "a stalled peer" control)

let test_live_idle_reap () =
  with_server ~tag:"idle" ~idle_timeout_ms:300. (fun ~address ~control:_ ->
      with_raw address (fun fd ->
          let resp = raw_request fd ping in
          check_bool "served before idling" true resp.C.ok;
          (* go quiet; the daemon reaps us (clean close, no error frame) *)
          let t0 = Unix.gettimeofday () in
          check_bool "idle connection closed cleanly" true
            (W.read_frame fd = None);
          let elapsed = Unix.gettimeofday () -. t0 in
          check_bool
            (Printf.sprintf "reaped near the timeout (%.0fms)"
               (elapsed *. 1000.))
            true
            (elapsed >= 0.2 && elapsed < 3.));
      (* the control client may have been reaped too (it idled as long);
         prove liveness and the counter over a fresh connection *)
      check_bool "idle_reaped incremented" true
        (counter address "idle_reaped" >= 1);
      with_raw address (fun fd ->
          check_bool "daemon alive after idle reaping" true
            (raw_request fd ping).C.ok))

let test_live_connection_limit () =
  with_server ~tag:"cap" ~max_conns:3 (fun ~address ~control ->
      let before = counter address "conns_rejected" in
      (* the control client plus two raw connections fill the cap; a ping
         on each proves the daemon has accepted them *)
      with_raw address (fun fd1 ->
          with_raw address (fun fd2 ->
              check_bool "conn 2 served" true (raw_request fd1 ping).C.ok;
              check_bool "conn 3 served" true (raw_request fd2 ping).C.ok;
              (* the 4th gets a structured connection_limit, then close *)
              with_raw address (fun fd3 ->
                  let resp = raw_response fd3 in
                  check_bool "over-cap conn rejected" false resp.C.ok;
                  (match resp.C.error with
                  | Some (Service.Error.Connection_limit { max_conns = 3 }) ->
                      ()
                  | Some err ->
                      Alcotest.failf "expected connection_limit, got %s"
                        (Service.Error.code err)
                  | None -> Alcotest.fail "no structured error");
                  check_bool "rejected conn closed" true
                    (W.read_frame fd3 = None));
              (* the survivors keep working *)
              check_bool "existing conns unaffected" true
                (raw_request fd1 ping).C.ok;
              assert_alive "the connection cap" control));
      (* fd1..fd3 are closed now, but the reaper frees the slots on its
         own tick — tolerate transient rejections of the stats conn *)
      await "conns_rejected counter" (fun () ->
          match counter address "conns_rejected" with
          | n -> n > before
          | exception _ -> false))

(* randomized live schedules: any schedule may tear, corrupt, reset or
   stall the request — the daemon must survive every one of them, and a
   lossless schedule must still be served. Seed and schedule are printed
   on failure. *)
let string_of_outcome = function
  | `Ok -> "ok"
  | `Structured_error -> "structured error"
  | `Clean_close -> "clean close"
  | `Write_died -> "write died"
  | `Still_pending -> "still pending after 3 s"
  | `Reset -> "read reset"
  | `Torn_response -> "torn response"

let live_schedule_prop ~address ~control seed =
  let rng = Numeric.Rng.create (Int64.of_int seed) in
  let req = J.to_string ping in
  let len = 4 + String.length req in
  let sched = F.random_schedule ~rng ~len (Numeric.Rng.int rng 3) in
  let run_once () =
    with_raw address (fun fd ->
        (* never hang, whatever the schedule did to the stream *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.0;
        let t = F.wrap ~on_write:sched (W.of_fd fd) in
        match W.write_frame_t t req with
        | exception Unix.Unix_error _ -> `Write_died
        | () -> (
            match W.read_frame fd with
            | Some payload ->
                if (C.response_of_json (J.of_string payload)).C.ok then `Ok
                else `Structured_error
            | None -> `Clean_close
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                `Still_pending
            | exception Unix.Unix_error _ -> `Reset
            | exception W.Framing_error _ -> `Torn_response))
  in
  let outcome = run_once () in
  (match C.request control ping with
  | resp when resp.C.ok -> ()
  | _ ->
      QCheck.Test.fail_reportf "daemon dead after seed %d: %s" seed
        (F.describe sched)
  | exception e ->
      QCheck.Test.fail_reportf "daemon dead after seed %d: %s (%s)" seed
        (F.describe sched) (Printexc.to_string e));
  (if F.lossless sched && outcome <> `Ok then
     (* a lossless schedule must be served. One retry (same schedule,
        fresh connection) absorbs OS scheduling hiccups that stall the
        client past the daemon's partial-frame deadline — a genuine
        protocol bug is deterministic and fails both attempts. *)
     let again = run_once () in
     if again <> `Ok then
       QCheck.Test.fail_reportf
         "lossless schedule not served (seed %d: %s -> %s, retry -> %s)" seed
         (F.describe sched) (string_of_outcome outcome)
         (string_of_outcome again));
  true

let test_live_random_schedules () =
  with_server ~tag:"rand" ~max_frame:4096 ~read_deadline_ms:400.
    (fun ~address ~control ->
      let frames0 = counter address "frames_in" in
      (match Sys.getenv_opt "FAULT_REPLAY_SEED" with
      | Some s ->
          (* replay one printed counterexample, many times, against a
             fresh daemon: the schedule is a pure function of the seed *)
          let seed = int_of_string s in
          for _ = 1 to 100 do
            ignore (live_schedule_prop ~address ~control seed)
          done
      | None ->
          QCheck.Test.check_exn
            (QCheck.Test.make ~count:1000
               ~name:
                 "live random fault schedules (the printed int is the seed)"
               QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
               (live_schedule_prop ~address ~control)));
      (* the offensive actually reached the daemon *)
      check_bool "daemon decoded frames during the offensive" true
        (counter address "frames_in" > frames0);
      assert_alive "the randomized offensive" control)

(* ------------------------------------------------------------- suite *)

let qcheck ~count name prop =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count ~name
       QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
       prop)

let suite =
  [
    Alcotest.test_case "fault: short write" `Quick test_fault_short;
    Alcotest.test_case "fault: chop reassembly" `Quick test_fault_chop;
    Alcotest.test_case "fault: corrupt one byte" `Quick test_fault_corrupt;
    Alcotest.test_case "fault: reset at offset" `Quick test_fault_reset;
    Alcotest.test_case "fault: stall delays" `Quick test_fault_stall;
    Alcotest.test_case "fault: describe/lossless/replay" `Quick
      test_fault_schedule_tools;
    Alcotest.test_case "fault: lossless schedule keeps frames intact" `Quick
      test_fault_lossless_frame_intact;
    Alcotest.test_case "wire: oversized prefix pre-allocation" `Quick
      test_decoder_oversized_before_buffering;
    qcheck ~count:1000 "wire: decoder invariant under arbitrary splits"
      decoder_split_prop;
    qcheck ~count:1000 "wire: single-byte mutation never crashes the decoder"
      decoder_mutation_prop;
    qcheck ~count:1000 "json: bit-exact roundtrip (nan/inf/-0/deep/long)"
      json_roundtrip_prop;
    qcheck ~count:1000 "json: rejects truncation and trailing garbage"
      json_reject_prop;
    Alcotest.test_case "client: retries reset-before-response" `Quick
      test_client_retries_reset_before_response;
    Alcotest.test_case "client: never retries mid-response" `Quick
      test_client_no_retry_mid_response;
    Alcotest.test_case "client: read deadline fires" `Quick
      test_client_read_deadline;
    Alcotest.test_case "client: bounded retries exhaust" `Quick
      test_client_retries_exhausted;
    Alcotest.test_case "daemon: short writes reassemble" `Quick
      test_live_short_write;
    Alcotest.test_case "daemon: short reads reassemble" `Quick
      test_live_short_read;
    Alcotest.test_case "daemon: corrupt frame -> structured error" `Quick
      test_live_corrupt_frame;
    Alcotest.test_case "daemon: oversized prefix -> error + close" `Quick
      test_live_oversized_prefix;
    Alcotest.test_case "daemon: negative prefix -> error + close" `Quick
      test_live_negative_prefix;
    Alcotest.test_case "daemon: dirty close counted, daemon survives" `Quick
      test_live_dirty_close;
    Alcotest.test_case "daemon: stalled partial frame killed on deadline"
      `Quick test_live_stalled_partial_frame;
    Alcotest.test_case "daemon: idle connection reaped" `Quick
      test_live_idle_reap;
    Alcotest.test_case "daemon: connection cap -> structured rejection" `Quick
      test_live_connection_limit;
    Alcotest.test_case "daemon: 1000 random fault schedules" `Slow
      test_live_random_schedules;
  ]
