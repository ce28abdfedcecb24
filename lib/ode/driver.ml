type method_ = Dopri5 | Rosenbrock | Rk4 of float
type injection = { at : float; species : string; amount : float }

(* Per-worker integrator scratch for repeated driver calls (sweep
   points, service requests). The method-specific workspaces are built
   lazily on first use, so a sweep that only ever runs Dopri5 never pays
   for the Rosenbrock matrices. *)
type workspace = {
  w_n : int;
  mutable w_ros : Rosenbrock.workspace option;
  mutable w_dp : Dopri5.workspace option;
}

let workspace ~n =
  if n < 1 then invalid_arg "Driver.workspace: n must be >= 1";
  { w_n = n; w_ros = None; w_dp = None }

let dopri5_ws = function
  | None -> None
  | Some w -> (
      match w.w_dp with
      | Some _ as ws -> ws
      | None ->
          let ws = Dopri5.workspace w.w_n in
          w.w_dp <- Some ws;
          Some ws)

let rosenbrock_ws = function
  | None -> None
  | Some w -> (
      match w.w_ros with
      | Some _ as ws -> ws
      | None ->
          let ws = Rosenbrock.workspace w.w_n in
          w.w_ros <- Some ws;
          Some ws)

type method_state =
  | Ck_dopri5 of Dopri5.checkpoint
  | Ck_rosenbrock of Rosenbrock.checkpoint
  | Ck_fixed of Fixed.checkpoint

type work =
  | Dopri5_work of Dopri5.stats
  | Rosenbrock_work of Rosenbrock.stats
  | Fixed_work of { steps : int }

(* The one method dispatch. Tolerance defaults are per method: the
   semi-implicit integrator's first-order error estimate is conservative,
   so it gets looser targets. *)
let integrate method_ ?rtol ?atol ~cancel ~ws ?resume ?on_cancel ~t0 ~t1
    ~on_sample sys x =
  let mismatch () = invalid_arg "Driver: checkpoint method mismatch" in
  let wrap f = Option.map (fun g ck -> g (f ck)) on_cancel in
  match method_ with
  | Dopri5 ->
      let rtol = Option.value ~default:1e-6 rtol
      and atol = Option.value ~default:1e-9 atol in
      let resume =
        Option.map (function Ck_dopri5 c -> c | _ -> mismatch ()) resume
      in
      let x', stats =
        Dopri5.integrate ?ws:(dopri5_ws ws) ~rtol ~atol ~cancel ?resume
          ?on_cancel:(wrap (fun c -> Ck_dopri5 c))
          ~t0 ~t1 ~on_sample sys x
      in
      (x', Dopri5_work stats)
  | Rosenbrock ->
      let rtol = Option.value ~default:1e-4 rtol
      and atol = Option.value ~default:1e-7 atol in
      let resume =
        Option.map (function Ck_rosenbrock c -> c | _ -> mismatch ()) resume
      in
      let x', stats =
        Rosenbrock.integrate ?ws:(rosenbrock_ws ws) ~rtol ~atol ~cancel
          ?resume
          ?on_cancel:(wrap (fun c -> Ck_rosenbrock c))
          ~t0 ~t1 ~on_sample sys x
      in
      (x', Rosenbrock_work stats)
  | Rk4 h ->
      let resume =
        Option.map (function Ck_fixed c -> c | _ -> mismatch ()) resume
      in
      (* a fresh run's first sample is the t0 echo, not a step *)
      let steps = ref (if Option.is_none resume then -1 else 0) in
      let x' =
        Fixed.integrate ~cancel ?resume
          ?on_cancel:(wrap (fun c -> Ck_fixed c))
          ~step:Fixed.rk4_step ~h ~t0 ~t1
          ~on_sample:(fun t x ->
            incr steps;
            on_sample t x)
          sys x
      in
      (x', Fixed_work { steps = max 0 !steps })

let run_segment method_ ~rtol ~atol ~cancel ~ws ~t0 ~t1 ~on_sample sys x =
  if t1 <= t0 then Array.copy x
  else
    fst
      (integrate method_ ?rtol ?atol ~cancel ~ws ~t0 ~t1 ~on_sample sys x)

(* The trace recording rule every entry point shares: a boundary is
   always recorded and restarts the countdown, and only every [thin]-th
   accepted step after it is kept. *)
let thinning ~thin ~countdown record =
  let record_boundary t x =
    record t x;
    countdown := thin - 1
  in
  let record_step t x =
    if !countdown <= 0 then record_boundary t x else decr countdown
  in
  (record_boundary, record_step)

let prepare net injections =
  let resolve { at; species; amount } =
    if at < 0. then invalid_arg "Driver: negative injection time";
    match Crn.Network.find_species net species with
    | Some i -> (at, i, amount)
    | None ->
        invalid_arg
          (Printf.sprintf "Driver: unknown injection species %S" species)
  in
  List.map resolve injections
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let simulate_gen ~record_step ~record_boundary ?(method_ = Dopri5) ?rtol
    ?atol ?(env = Crn.Rates.default_env) ?(injections = []) ?sys ?ws
    ?(cancel = Numeric.Cancel.never) ~t1 net =
  (* [sys] lets a caller (the simulation service) reuse a cached compiled
     model; it must have been compiled from this [net] under [env] *)
  let sys = match sys with Some s -> s | None -> Deriv.compile env net in
  (match ws with
  | Some w when w.w_n <> Deriv.dim sys ->
      invalid_arg "Driver: workspace dimension mismatch"
  | _ -> ());
  let events =
    List.filter (fun (at, _, _) -> at < t1) (prepare net injections)
  in
  let x = ref (Crn.Network.initial_state net) in
  let t = ref 0. in
  (* segments between consecutive injection times, then the tail; the
     integrator's sample at a segment's start is skipped because the
     previous segment (or the manual initial record) already emitted it *)
  let run_to t_end =
    let first = ref true in
    let on_sample ts xs =
      if !first then first := false else record_step ts xs
    in
    x :=
      run_segment method_ ~rtol ~atol ~cancel ~ws ~t0:!t ~t1:t_end ~on_sample
        sys !x;
    t := t_end
  in
  record_boundary 0. !x;
  List.iter
    (fun (at, sp, amount) ->
      run_to at;
      !x.(sp) <- !x.(sp) +. amount;
      record_boundary !t !x)
    events;
  run_to t1;
  !x

let simulate ?method_ ?rtol ?atol ?env ?injections ?sys ?ws ?cancel
    ?(thin = 1) ~t1 net =
  if thin < 1 then invalid_arg "Driver.simulate: thin must be >= 1";
  let trace = Trace.create ~names:(Crn.Network.species_names net) in
  let record_boundary, record_step =
    thinning ~thin ~countdown:(ref 0) (Trace.record trace)
  in
  let final =
    simulate_gen ~record_step ~record_boundary ?method_ ?rtol ?atol ?env
      ?injections ?sys ?ws ?cancel ~t1 net
  in
  (* always include the final state even when thinning dropped it *)
  if Trace.length trace = 0 || Trace.last_time trace < t1 then
    Trace.record trace t1 final;
  trace

let final_state ?method_ ?rtol ?atol ?env ?injections ?sys ?ws ?cancel ~t1 net
    =
  let drop _ _ = () in
  simulate_gen ~record_step:drop ~record_boundary:drop ?method_ ?rtol ?atol
    ?env ?injections ?sys ?ws ?cancel ~t1 net

type checkpoint = {
  ck_method : method_state;
  ck_countdown : int;
  ck_trace : Trace.t;
}

let run ?(method_ = Dopri5) ?rtol ?atol ?(env = Crn.Rates.default_env) ?sys
    ?ws ?(cancel = Numeric.Cancel.never) ?(thin = 1) ?resume ?on_cancel ?trace
    ?on_sample ~t1 net =
  if thin < 1 then invalid_arg "Driver.run: thin must be >= 1";
  let sys = match sys with Some s -> s | None -> Deriv.compile env net in
  (match ws with
  | Some w when w.w_n <> Deriv.dim sys ->
      invalid_arg "Driver: workspace dimension mismatch"
  | _ -> ());
  (match (resume, method_) with
  | Some { ck_method = Ck_dopri5 _; _ }, Dopri5
  | Some { ck_method = Ck_rosenbrock _; _ }, Rosenbrock
  | Some { ck_method = Ck_fixed _; _ }, Rk4 _
  | None, _ ->
      ()
  | Some _, _ -> invalid_arg "Driver.run: checkpoint method mismatch");
  let last = ref neg_infinity in
  let record t x =
    (match trace with Some tr -> Trace.record tr t x | None -> ());
    (match on_sample with Some f -> f t x | None -> ());
    last := t
  in
  (* a resumed run first replays what its checkpoint had recorded, so
     its sample stream is the uninterrupted run's *)
  Option.iter
    (fun ck ->
      Array.iteri
        (fun i t -> record t (Trace.state_at_index ck.ck_trace i))
        (Trace.times ck.ck_trace))
    resume;
  let countdown =
    ref (match resume with Some ck -> ck.ck_countdown | None -> 0)
  in
  let record_boundary, record_step = thinning ~thin ~countdown record in
  (* only a fresh run skips the integrator's t0 echo (the manual initial
     record covers it); a resumed integrator emits no echo, so its first
     sample is a real accepted step that must be recorded *)
  let first = ref (Option.is_none resume) in
  let on_sample ts xs = if !first then first := false else record_step ts xs in
  let x0 = Crn.Network.initial_state net in
  if Option.is_none resume then record_boundary 0. x0;
  let on_cancel =
    Option.map
      (fun f ck_method ->
        f
          {
            ck_method;
            ck_countdown = !countdown;
            ck_trace =
              (match trace with
              | Some tr -> tr
              | None -> Trace.create ~names:(Crn.Network.species_names net));
          })
      on_cancel
  in
  let final, work =
    integrate method_ ?rtol ?atol ~cancel ~ws
      ?resume:(Option.map (fun ck -> ck.ck_method) resume)
      ?on_cancel ~t0:0. ~t1 ~on_sample sys x0
  in
  (* always include the final state even when thinning dropped it *)
  if !last < t1 then record t1 final;
  (final, work)

let simulate_ck ?method_ ?rtol ?atol ?env ?sys ?ws ?cancel ?thin ?resume
    ?on_cancel ~t1 net =
  let trace = Trace.create ~names:(Crn.Network.species_names net) in
  ignore
    (run ?method_ ?rtol ?atol ?env ?sys ?ws ?cancel ?thin ?resume ?on_cancel
       ~trace ~t1 net);
  trace
