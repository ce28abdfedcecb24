(* serve-mixed: open-loop served traffic through the built crnsgate
   wire front door to one crnserved shard with two workers, both
   started fresh each run without a state directory. Two client
   connections share one arrival schedule fixed in advance from the
   seed: an even grid (seeded phase), request i on connection i mod 2,
   so each connection sends on its own even grid, offset by half a gap
   from the other -- the staggered schedule of bench_serve's open-loop
   scenario. Latency is timed from the scheduled send, so a request
   waiting behind a slow predecessor on its connection counts that
   wait. Classes:

   - hot: ode on clock4 at one of two cached ratios, or ssa on counter2,
     models warmed in set-up;
   - cold: first touch of ma4, either a never-used ratio or a
     never-seen inline .crn text (one initial amount changed), which the
     gateway also canonicalizes for routing on its event loop;
   - stream: the trace op of clock4;
   - validate: inline validate requests, a certify and a network the
     exact tier rejects, answered on the shard event loop.

   This is the only workload that runs the model cache,
   canonicalization on the request path, the exact tier, JSON/wire
   encoding and the gateway; its hot/cold split separates a cache or
   canonicalization change from an engine change. *)

open Common

type cls = Hot | Cold | Stream | Validate

let cls_name = function
  | Hot -> "hot"
  | Cold -> "cold"
  | Stream -> "stream"
  | Validate -> "validate"

(* The in-process replay each request is checked against. *)
type source = Catalog of string | Text of { design : string; text : string }

type work =
  | Ode of { source : source; ratio : float option; t1 : float }
  | Ssa of { source : source; ratio : float option; t1 : float; seed : int }
  | Trace of { design : string; t1 : float }
  | Certify of string
  | Reject

type req = { id : int; cls : cls; at : float; work : work }

(* ---------------------------------------------------------- traffic *)

(* The class mix follows the repository's documented mixed open-loop
   profile (docs/PERFORMANCE-SLO.md, "Mixed open-loop load";
   bench_serve's open_loop scenario): 70% hot cached ode on clock4 to
   t = 0.5 cycling two cached ratios, 20% ssa runs of counter2 to t = 5,
   10% cold ode compiles to t = 1 at a never-used ratio. Departures:
   that profile has no stream or validate class, so they take 10% and
   5% out of the hot ode share (the 21 stream requests of 5% in a 35 s run
   give no steady median); the cold design is ma4, whose miss is bound by
   canonicalization (clock3's, about 2 ms, would show neither a
   canonicalization change nor the cache-mutex stall); one cold request
   in four is a never-seen text of the network instead of a new ratio,
   the second first-touch kind, which adds the gateway's
   canonicalization; and the rate is 12 requests/s, not the profile's
   40. At 40 a connection's 50 ms gap is shorter than a cold ma4
   request on a slow stretch of the shared host (80-220 ms), so the
   requests behind it queue: over eight 20 s runs at 40 requests/s the
   hot median ranged from 4.9 to 70 ms. At 12 a connection sends every
   167 ms, and over six runs the hot median ranged from 4.4 to 5.3 ms. *)
let rate = 12.
let hot_ssa_share = 0.2
let cold_share = 0.1
let stream_share = 0.1
let validate_share = 0.05
let hot_ratios = [ 1000.; 2000. ]
let hot_ode_design = "clock4"
let hot_ssa_design = "counter2"
let cold_design = "ma4"
let certify_designs = [ "counter2"; "lfsr3"; "rx-modseq4" ]
let stream_design = "clock4"
let stream_t1 = 2.
(* every fourth accepted step: about a hundred samples in one chunk,
   so a stream exercises encode and relay without flooding the CPUs *)
let stream_thin = 4

let reject_text = "init X 10\ninit Y 10\nX + Y ->{slow} 0\n0 ->{slow} X\n"

let spec_json = function
  | Catalog name -> J.Obj [ ("catalog", J.str name) ]
  | Text { text; _ } -> J.Obj [ ("text", J.str text) ]

let ratio_field = function None -> [] | Some r -> [ ("ratio", J.num r) ]

let body = function
  | Ode { source; ratio; t1 } ->
      J.Obj
        ([ ("op", J.str "ode"); ("network", spec_json source); ("t1", J.num t1) ]
        @ ratio_field ratio)
  | Ssa { source; ratio; t1; seed } ->
      J.Obj
        ([
           ("op", J.str "ssa");
           ("network", spec_json source);
           ("t1", J.num t1);
           ("seed", J.int seed);
         ]
        @ ratio_field ratio)
  | Trace { design; t1 } ->
      J.Obj
        [
          ("op", J.str "trace");
          ("network", spec_json (Catalog design));
          ("t1", J.num t1);
          ("thin", J.int stream_thin);
        ]
  | Certify name ->
      J.Obj [ ("op", J.str "validate"); ("network", spec_json (Catalog name)) ]
  | Reject ->
      J.Obj
        [
          ("op", J.str "validate");
          ("network", J.Obj [ ("text", J.str reject_text) ]);
        ]

(* A never-seen text: the design's network with one species' initial
   amount raised by a whole number, distinct for each k. *)
let perturbed_text design k =
  let net = Designs.Catalog.build design in
  let n = Crn.Network.n_species net in
  let sp = k mod n and delta = 1 + (k / n) in
  Crn.Network.set_init net sp (Crn.Network.init_of net sp +. float_of_int delta);
  Crn.Network.to_string net

(* A fixed number of requests (rate x seconds) in fixed class
   proportions, shuffled, so the mix does not vary from seed to seed,
   only the order, the seeds and the phase of the grid. Returns the
   requests of connection 0 and of connection 1. *)
let schedule ~seed ~seconds =
  let rng = Numeric.Rng.create (Int64.of_int seed) in
  let n = max 20 (int_of_float (Float.round (rate *. seconds))) in
  let share q = int_of_float (Float.round (q *. float_of_int n)) in
  let n_ssa = share hot_ssa_share and n_cold = share cold_share in
  let n_stream = share stream_share and n_val = share validate_share in
  let ratio_base = 200_000. +. Numeric.Rng.float rng in
  let classes =
    Array.init n (fun i ->
        let seed = 1 + Numeric.Rng.int rng 1_000_000 in
        if i < n_val then
          ( Validate,
            if i mod 2 = 0 then Reject
            else
              Certify
                (List.nth certify_designs (i / 2 mod List.length certify_designs)) )
        else
          let i = i - n_val in
          if i < n_stream then
            (Stream, Trace { design = stream_design; t1 = stream_t1 })
          else
            let i = i - n_stream in
            if i < n_cold then
              let source =
                if i mod 4 <> 3 then Catalog cold_design
                else Text { design = cold_design; text = perturbed_text cold_design i }
              in
              let ratio =
                match source with
                | Catalog _ -> Some (ratio_base +. (1.5 *. float_of_int i))
                | Text _ -> None
              in
              (Cold, Ode { source; ratio; t1 = 1. })
            else
              let i = i - n_cold in
              if i < n_ssa then
                ( Hot,
                  Ssa { source = Catalog hot_ssa_design; ratio = None; t1 = 5.; seed } )
              else
                ( Hot,
                  Ode
                    {
                      source = Catalog hot_ode_design;
                      ratio = Some (List.nth hot_ratios (i mod 2));
                      t1 = 0.5;
                    } ))
  in
  for i = n - 1 downto 1 do
    let j = Numeric.Rng.int rng (i + 1) in
    let t = classes.(i) in
    classes.(i) <- classes.(j);
    classes.(j) <- t
  done;
  let gap = 1. /. rate in
  let phase = Numeric.Rng.float rng *. gap in
  let reqs =
    Array.to_list
      (Array.mapi
         (fun i (cls, work) ->
           { id = i + 1; cls; at = phase +. (float_of_int i *. gap); work })
         classes)
  in
  List.partition (fun r -> r.id mod 2 = 1) reqs

(* ------------------------------------------------------------ fleet *)

type fleet = { pid : int; addr : Service.Addr.t }

let rec wait_exit pid ~until =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if now () > until then false
      else begin
        Unix.sleepf 0.02;
        wait_exit pid ~until
      end
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~until
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM lets the gateway stop and reap its shard; SIGKILL only if it
   does not exit within ten seconds. Either way the pid is waited for. *)
let stop f =
  (try Unix.kill f.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (wait_exit f.pid ~until:(now () +. 10.)) then begin
    (try Unix.kill f.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit f.pid ~until:(now () +. 10.) : bool)
  end

let running : fleet list ref = ref []

let () = at_exit (fun () -> List.iter stop !running)

let ping addr =
  let c = Service.Client.connect ~read_deadline_ms:5000. addr in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () -> Service.Client.call c (J.Obj [ ("op", J.str "ping") ]))

let start ~gate ~served ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat dir "gw.sock" in
  let log =
    Unix.openfile (Filename.concat dir "gateway.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process gate
      [|
        gate; "--listen"; sock; "--shards"; "1"; "--jobs"; "2"; "--served";
        served; "--dir"; dir;
      |]
      devnull log log
  in
  Unix.close devnull;
  Unix.close log;
  let f = { pid; addr = Service.Addr.Unix_sock sock } in
  running := f :: !running;
  let until = now () +. 30. in
  let rec ready () =
    match ping f.addr with
    | _ -> ()
    | exception _ ->
        if now () > until then failwith "gateway did not come up";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "gateway exited during start-up");
        Unix.sleepf 0.01;
        ready ()
  in
  ready ();
  f

let stop_fleet f =
  stop f;
  running := List.filter (fun g -> g != f) !running

let stats f =
  let c = Service.Client.connect ~read_deadline_ms:10000. f.addr in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () -> Service.Client.call c (J.Obj [ ("op", J.str "stats") ]))

let path j keys =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys

let num j keys = Option.bind (path j keys) J.to_float

let shard_pids st =
  match path st [ "result"; "gateway"; "shards" ] with
  | Some (J.List shards) ->
      List.filter_map
        (fun s -> Option.bind (J.member "pid" s) J.to_int)
        shards
  | _ -> []

(* ---------------------------------------------------------- clients *)

type outcome_ = {
  req : req;
  sent : float;  (** absolute send time *)
  finished : float;
  response : (J.t, string) result;
  frames : J.t list;  (** stream frames before the final one, in order *)
}

let drive ?calib addr ~t0 reqs =
  let c = Service.Client.connect ~read_deadline_ms:60000. addr in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      List.map
        (fun r ->
          let due = t0 +. r.at in
          (* a reference sample in the slack before every second send
             of the first connection (it carries the odd ids), never
             delaying a send *)
          (match calib with
          | Some k when r.id mod 4 = 1 && due -. now () > 0.04 -> Calib.sample k
          | _ -> ());
          let pause = due -. now () in
          if pause > 0. then Unix.sleepf pause;
          let sent = now () in
          let frames = ref [] in
          let response =
            match
              match r.work with
              | Trace _ ->
                  Service.Client.call_stream c (body r.work) ~on_frame:(fun f ->
                      frames := f :: !frames)
              | _ -> Service.Client.call c (body r.work)
            with
            | j -> Ok j
            | exception e -> Error (Printexc.to_string e)
          in
          let finished = now () in
          Tr.set_op r.id;
          Tr.record ("request." ^ cls_name r.cls) ~t0:sent ~t1:finished;
          { req = r; sent; finished; response; frames = List.rev !frames })
        reqs)

(* ------------------------------------------------------ replay checks *)

let build_source = function
  | Catalog name -> Designs.Catalog.build name
  | Text { text; _ } -> Crn.Parser.network_of_string text

let env_of = function
  | None -> Crn.Rates.default_env
  | Some r -> Crn.Rates.env_with_ratio r

let g17 x = Printf.sprintf "%.17g" x

let served_final resp =
  match path resp [ "result"; "final" ] with
  | Some (J.List xs) ->
      Some (List.map (fun x -> Option.value ~default:nan (J.to_float x)) xs)
  | _ -> None

let same_floats a b =
  List.length a = List.length b && List.for_all2 (fun x y -> g17 x = g17 y) a b

(* Recompute a served ode/ssa request in-process with the same source,
   ratio, seed and defaults; the finals must agree byte for byte. *)
let replay_final work =
  match work with
  | Ode { source; ratio; t1 } ->
      let net = build_source source in
      let sys = Ode.Deriv.compile (env_of ratio) net in
      let xf, _ =
        Ode.Rosenbrock.integrate ~t0:0. ~t1 ~on_sample:(fun _ _ -> ()) sys
          (Crn.Network.initial_state net)
      in
      Some (Array.to_list xf)
  | Ssa { source; ratio; t1; seed } ->
      let net = build_source source in
      let r =
        Ssa.Gillespie.run ~env:(env_of ratio) ~seed:(Int64.of_int seed) ~t1 net
      in
      Some (Array.to_list r.Ssa.Gillespie.final)
  | _ -> None

let last_streamed frames =
  List.fold_left
    (fun acc f ->
      match (J.member "t" f, J.member "x" f) with
      | Some (J.List ts), Some (J.List xs) when ts <> [] ->
          let t = List.nth ts (List.length ts - 1)
          and x = List.nth xs (List.length xs - 1) in
          Some
            ( Option.value ~default:nan (J.to_float t),
              match x with
              | J.List v -> List.map (fun y -> Option.value ~default:nan (J.to_float y)) v
              | _ -> [] )
      | _ -> acc)
    None frames

(* ---------------------------------------------------------------- run *)

let run ~gate ~served ~seed ~seconds ~traced =
  let base = Printf.sprintf ".mrscbench/serve-%d" (Unix.getpid ()) in
  let short, long = schedule ~seed ~seconds in
  (* Set-up: start gateway and shard, wait until they answer, warm the
     hot and stream models. Done five times; the last fleet serves. *)
  let warm f =
    let c = Service.Client.connect ~read_deadline_ms:30000. f.addr in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () ->
        List.iter
          (fun (d, ratio) ->
            List.iter
              (fun w -> ignore (Service.Client.call c (body w) : J.t))
              [
                Ode { source = Catalog d; ratio; t1 = 0.1 };
                Ssa { source = Catalog d; ratio; t1 = 0.1; seed = 1 };
              ])
          ((stream_design, None) :: (hot_ssa_design, None)
          :: List.map (fun r -> (hot_ode_design, Some r)) hot_ratios))
  in
  let setups =
    List.init 5 (fun i ->
        let f, dt =
          timed (fun () ->
              let f = start ~gate ~served ~dir:(Printf.sprintf "%s-%d" base i) in
              warm f;
              f)
        in
        if i < 4 then stop_fleet f;
        (f, dt))
  in
  let fleet, _ = List.nth setups 4 in
  let setup_s = median (List.map snd setups) in
  let t0 = now () +. 0.05 in
  let other = Domain.spawn (fun () -> drive fleet.addr ~t0 long) in
  let calib = Calib.create () in
  let mine = drive ~calib fleet.addr ~t0 short in
  let theirs = Domain.join other in
  let elapsed = now () -. t0 in
  let st = stats fleet in
  let pids = fleet.pid :: shard_pids st in
  let rss =
    List.fold_left
      (fun acc pid ->
        acc +. Option.value ~default:nan (peak_rss_mb (string_of_int pid)))
      0. pids
  in
  stop_fleet fleet;
  List.iteri
    (fun i _ ->
      let d = Printf.sprintf "%s-%d" base i in
      (try Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
       with Sys_error _ -> ());
      try Unix.rmdir d with Unix.Unix_error _ -> ())
    setups;
  let all = List.sort (fun a b -> compare a.req.id b.req.id) (mine @ theirs) in
  (* ---------------------------------------------- classify responses *)
  let fs = failures () in
  let ok_of o =
    match o.response with
    | Error e ->
        fail fs "%s #%d: %s" (cls_name o.req.cls) o.req.id e;
        None
    | Ok j -> (
        let ok = Option.bind (J.member "ok" j) J.to_bool = Some true in
        let code = Option.bind (path j [ "error"; "code" ]) J.to_str in
        match (o.req.work, ok) with
        | Reject, false ->
            let text = J.to_string j in
            let mentions s sub =
              let n = String.length sub in
              let rec at i =
                i + n <= String.length s
                && (String.sub s i n = sub || at (i + 1))
              in
              at 0
            in
            if mentions text "slow_annihilation" then Some j
            else begin
              fail fs "reject #%d lacks slow_annihilation: %s" o.req.id text;
              None
            end
        | Reject, true ->
            fail fs "reject #%d was certified" o.req.id;
            None
        | _, true -> Some j
        | _, false ->
            fail fs "%s #%d: %s" (cls_name o.req.cls) o.req.id
              (Option.value ~default:(J.to_string j) code);
            None)
  in
  let answered = List.filter_map (fun o -> Option.map (fun j -> (o, j)) (ok_of o)) all in
  let lat o = (o.finished -. (t0 +. o.req.at)) *. 1000. in
  let lats_of p c =
    sorted
      (List.filter_map
         (fun (o, _) -> if o.req.cls = c && p o.req.work then Some (lat o) else None)
         answered)
  in
  let lats = lats_of (fun _ -> true) in
  let hot = lats Hot and cold = lats Cold and stream = lats Stream in
  let p99, beyond = percentile hot 0.99 in
  (* the highest percentile with ten hot samples beyond it *)
  let tail_q = 1. -. (10. /. float_of_int (max 10 (Array.length hot))) in
  let hot_tail = fst (percentile hot tail_q) in
  List.iter
    (fun (o, j) ->
      if o.req.cls = Hot then
        match Option.bind (path j [ "metrics"; "cache" ]) J.to_str with
        | Some "hit" -> ()
        | other ->
            fail fs "hot #%d: cache %s" o.req.id
              (Option.value ~default:"?" other))
    answered;
  (* ----------------- served results equal in-process results (untimed) *)
  (* an evenly spaced sample of up to [k] answered requests of a class,
     starting at a seeded offset *)
  let rng = Numeric.Rng.create (Int64.of_int (seed + 7919)) in
  let sample c k =
    let pool =
      Array.of_list (List.filter (fun (o, _) -> o.req.cls = c) answered)
    in
    let n = Array.length pool in
    if n = 0 then []
    else
      let k = min k n in
      let off = Numeric.Rng.int rng n in
      List.init k (fun i -> pool.((off + (i * n / k)) mod n))
  in
  let replayed = ref 0 in
  List.iter
    (fun (o, j) ->
      match (replay_final o.req.work, served_final j) with
      | Some want, Some got ->
          incr replayed;
          if not (same_floats want got) then
            fail fs "%s #%d: served final differs from in-process"
              (cls_name o.req.cls) o.req.id
      | _ -> ())
    (sample Hot 8 @ sample Cold 8);
  List.iter
    (fun (o, j) ->
      match o.req.work with
      | Certify name ->
          let want =
            Exact.Certificate.render
              (Service.Verify.certify ~title:name (Designs.Catalog.build name))
          in
          if Option.bind (path j [ "result"; "certificate" ]) J.to_str <> Some want then
            fail fs "certify #%d (%s): certificate differs from in-process" o.req.id name
      | _ -> ())
    (sample Validate 6);
  List.iter
    (fun (o, _) ->
      match o.req.work with
      | Trace { design; t1 } -> (
          let tr =
            Ode.Driver.simulate ~method_:Ode.Driver.Rosenbrock ~thin:stream_thin ~t1
              (Designs.Catalog.build design)
          in
          let want_t = Ode.Trace.last_time tr
          and want_x = Array.to_list (Ode.Trace.last_state tr) in
          match last_streamed o.frames with
          | Some (t, x) when g17 t = g17 want_t && same_floats x want_x -> ()
          | _ -> fail fs "stream #%d: last sample differs from Driver.simulate" o.req.id)
      | _ -> ())
    (sample Stream 2);
  (* -------------------------------------------------------- metrics *)
  (* Latencies at the reference host speed (Calib). The set-up, mostly
     process start-up and connection set-up, is reported as measured:
     scaled, its spread over runs grew. *)
  let k = Calib.factor calib in
  let hot_ode = lats_of (function Ode _ -> true | _ -> false) Hot
  and hot_ssa = lats_of (function Ssa _ -> true | _ -> false) Hot in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" rss;
      m "class_a_ms" "ms" (quantile hot_ode 0.5 *. k);
      m "class_b_ms" "ms" (quantile cold 0.5 *. k);
      m "class_c_ms" "ms" (quantile stream 0.5 *. k);
      m "class_d_ms" "ms" (quantile hot_ssa 0.5 *. k);
    ]
  in
  let lag =
    sorted (List.map (fun o -> (o.sent -. (t0 +. o.req.at)) *. 1000.) all)
  in
  let metric_of j k = Option.value ~default:0. (num j [ "metrics"; k ]) in
  (* means over the requests that ran on a worker (not validate) *)
  let served_mean f =
    mean
      (List.filter_map
         (fun (o, j) ->
           match o.req.cls with Validate -> None | _ -> Some (f o j))
         answered)
  in
  let cache_count v =
    let is_v (_, j) = Option.bind (path j [ "metrics"; "cache" ]) J.to_str = Some v in
    float_of_int (List.length (List.filter is_v answered))
  in
  let extra k =
    List.fold_left (fun a (_, j) -> a +. metric_of j k) 0. answered
  in
  (* codec replay: parse and print every recorded response payload *)
  let payloads =
    List.concat_map
      (fun (o, j) -> List.map J.to_string (o.frames @ [ j ]))
      answered
  in
  let encode_ms =
    if payloads = [] then 0.
    else
      let roundtrip s = ignore (J.to_string (J.of_string s) : string) in
      let (), dt = timed (fun () -> List.iter roundtrip payloads) in
      dt *. 1000. /. float_of_int (List.length payloads)
  in
  let bytes_out =
    let size (o, j) =
      List.fold_left
        (fun a f -> a + String.length (J.to_string f))
        0 (o.frames @ [ j ])
    in
    mean (List.map (fun r -> float_of_int (size r)) answered)
  in
  (* Cold-miss attribution (traced run): replay each cold source's miss
     path in-process stage by stage -- synthesis or parse, cache_key,
     fingerprint, ODE and SSA compile, and for a new text the gateway's
     own parse + cache_key -- and set it against the shard's compile_ms. *)
  let stage name f =
    let x, dt = timed (fun () -> Tr.span name f) in
    (x, dt *. 1000.)
  in
  let cold_rows =
    List.filter_map
      (fun (o, j) ->
        match o.req.work with
        | (Ode { source; ratio; _ } | Ssa { source; ratio; _ })
          when traced && o.req.cls = Cold ->
            let env = env_of ratio in
            let label, build_name =
              match source with
              | Catalog d -> (d ^ " new ratio", "designs.synth")
              | Text { design; _ } -> (design ^ " new text", "crn.parse")
            in
            let net, build = stage build_name (fun () -> build_source source) in
            let _, key = stage "crn.canon" (fun () -> Crn.Equiv.cache_key net) in
            let _, fp = stage "crn.canon" (fun () -> Crn.Equiv.fingerprint net) in
            let _, ode =
              stage "ode.compile" (fun () -> Ode.Deriv.compile env net)
            in
            let _, ssa =
              stage "ssa.compile" (fun () -> Ssa.Gillespie.compile_model env net)
            in
            let gw =
              match source with
              | Text { text; _ } ->
                  snd
                    (stage "gateway.route_key" (fun () ->
                         Crn.Equiv.cache_key (Crn.Parser.network_of_string text)))
              | Catalog _ -> 0.
            in
            let shard = metric_of j "compile_ms" in
            Some
              ( label,
                [
                  ("synth_or_parse", build);
                  ("cache_key", key);
                  ("fingerprint", fp);
                  ("ode_compile", ode);
                  ("ssa_compile", ssa);
                  ("gateway_cache_key", gw);
                  ("shard_compile_ms", shard);
                  ("unexplained", shard -. build -. key -. fp -. ode -. ssa);
                ] )
        | _ -> None)
      answered
  in
  let cold_miss =
    let labels = List.sort_uniq compare (List.map fst cold_rows) in
    J.Obj
      (List.map
         (fun l ->
           let rows =
             List.filter_map
               (fun (l', r) -> if l = l' then Some r else None)
               cold_rows
           in
           let avg k = jnum (mean (List.map (List.assoc k) rows)) in
           ( l,
             J.Obj
               (("samples", jint (List.length rows))
               :: List.map (fun (k, _) -> (k, avg k)) (List.hd rows)) ))
         labels)
  in
  if traced then
    List.iter
      (fun (o, _) ->
        let cert title net =
          ignore
            (Tr.span "exact.certify" (fun () -> Service.Verify.certify ~title net)
              : Exact.Certificate.t)
        in
        match o.req.work with
        | Certify name -> cert name (Designs.Catalog.build name)
        | Reject -> cert "network" (Crn.Parser.network_of_string reject_text)
        | _ -> ())
      answered;
  let per_layer =
    [
      m "designs.synth_ms" "ms" (Tr.mean_ms "designs.synth");
      m "crn.parse_ms" "ms" (Tr.mean_ms "crn.parse");
      m "crn.canon_ms" "ms" (Tr.mean_ms "crn.canon" *. 2.);
      m "ode.compile_ms" "ms" (Tr.mean_ms "ode.compile");
      m "ssa.compile_ms" "ms" (Tr.mean_ms "ssa.compile");
      m "exact.certify_ms" "ms" (Tr.mean_ms "exact.certify");
      m "ode.steps" "count" (extra "steps");
      m "ode.factorizations" "count" (extra "factorizations");
      m "ssa.events" "count" (extra "events");
      m "service.queue_wait_ms" "ms"
        (served_mean (fun _ j -> metric_of j "queue_wait_ms"));
      m "service.compile_ms" "ms" (served_mean (fun _ j -> metric_of j "compile_ms"));
      m "service.run_ms" "ms" (served_mean (fun _ j -> metric_of j "run_ms"));
      m "service.total_ms" "ms" (served_mean (fun _ j -> metric_of j "total_ms"));
      m "service.dispatch_ms" "ms"
        (served_mean (fun _ j ->
             metric_of j "total_ms" -. metric_of j "queue_wait_ms"
             -. metric_of j "compile_ms" -. metric_of j "run_ms"));
      m "service.cache_hits" "count" (cache_count "hit");
      m "service.cache_misses" "count" (cache_count "miss");
      m "service.encode_ms" "ms" encode_ms;
      m "service.bytes_out" "bytes" bytes_out;
      m "service.relay_ms" "ms"
        (served_mean (fun o j ->
             ((o.finished -. o.sent) *. 1000.) -. metric_of j "total_ms"));
      m "gateway.route_memo_misses" "count"
        (Option.value ~default:0. (num st [ "result"; "gateway"; "route_memo_misses" ]));
      m "loadgen.lag_ms" "ms" (quantile lag 0.5);
    ]
  in
  let n_cls c = jint (List.length (List.filter (fun o -> o.req.cls = c) all)) in
  {
    attempted = List.length all;
    failed = fs.n;
    problems = List.rev fs.msgs;
    checks_ok = fs.n = 0;
    end_to_end = e2e;
    per_layer;
    named =
      [
        m "hot_p50_ms" "ms" (quantile hot 0.5);
        m "hot_p99_ms" "ms" p99;
        m "hot_tail_ms" "ms" hot_tail;
        m "cold_p50_ms" "ms" (quantile cold 0.5);
        m "stream_p50_ms" "ms" (quantile stream 0.5);
        m "hot_ode_p50_ms" "ms" (quantile hot_ode 0.5);
        m "hot_ssa_p50_ms" "ms" (quantile hot_ssa 0.5);
        m "validate_p50_ms" "ms" (quantile (lats Validate) 0.5);
        m "calib_factor" "ratio" k;
        m "calib_samples" "count" (float_of_int (Calib.count calib));
      ];
    info =
      [
        ( "config",
          J.Obj
            [
              ("connections", jint 2);
              ("client_domains", jint 2);
              ("shards", jint 1);
              ("shard_workers", jint 2);
              ("rate_rps", jnum rate);
              ("elapsed_s", jnum elapsed);
              ( "requests",
                J.Obj
                  (List.map
                     (fun c -> (cls_name c, n_cls c))
                     [ Hot; Cold; Stream; Validate ]) );
              ("hot_samples", jint (Array.length hot));
              ("hot_samples_beyond_p99", jint beyond);
              ("hot_tail_quantile", jnum tail_q);
              ( "hot_quantiles_ms",
                J.Obj
                  (List.map
                     (fun q -> (Printf.sprintf "p%g" (q *. 100.), jnum (quantile hot q)))
                     [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ]) );
              ( "worker_busy_share",
                jnum
                  (List.fold_left
                     (fun a (o, j) ->
                       match o.req.cls with
                       | Validate -> a
                       | _ ->
                           a +. metric_of j "total_ms"
                           -. metric_of j "queue_wait_ms")
                     0. answered
                  /. (2000. *. elapsed)) );
              ( "lag_ms",
                J.Obj
                  [
                    ("p50", jnum (quantile lag 0.5));
                    ("p99", jnum (fst (percentile lag 0.99)));
                    ("max", jnum (quantile lag 1.));
                  ] );
              ("replayed_in_process", jint !replayed);
              ("setup_runs_s", J.List (List.map (fun (_, s) -> jnum s) setups));
            ] );
        ("cold_miss_ms", cold_miss);
      ];
  }
