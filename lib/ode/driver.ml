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

(* Counters of a run that integrated nothing, and of two segments
   together. *)
let no_work = function
  | Dopri5 -> Dopri5_work { steps = 0; rejected = 0; evals = 0 }
  | Rosenbrock ->
      Rosenbrock_work
        {
          steps = 0;
          rejected = 0;
          factorizations = 0;
          jac_evals = 0;
          jac_reused = 0;
        }
  | Rk4 _ -> Fixed_work { steps = 0 }

let add_work a b =
  match (a, b) with
  | Dopri5_work a, Dopri5_work b ->
      Dopri5_work
        {
          steps = a.steps + b.steps;
          rejected = a.rejected + b.rejected;
          evals = a.evals + b.evals;
        }
  | Rosenbrock_work a, Rosenbrock_work b ->
      Rosenbrock_work
        {
          steps = a.steps + b.steps;
          rejected = a.rejected + b.rejected;
          factorizations = a.factorizations + b.factorizations;
          jac_evals = a.jac_evals + b.jac_evals;
          jac_reused = a.jac_reused + b.jac_reused;
        }
  | Fixed_work a, Fixed_work b -> Fixed_work { steps = a.steps + b.steps }
  | _ -> invalid_arg "Driver: work of two methods"

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

type checkpoint = {
  ck_method : method_state;
  ck_countdown : int;
  ck_trace : Trace.t;
}

let run ?(method_ = Dopri5) ?rtol ?atol ?(env = Crn.Rates.default_env)
    ?(injections = []) ?sys ?ws ?(cancel = Numeric.Cancel.never) ?(thin = 1)
    ?resume ?on_cancel ?trace ?on_sample ~t1 net =
  if thin < 1 then invalid_arg "Driver.run: thin must be >= 1";
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
  (* a checkpoint resumes one segment, so a run with injections takes
     none and restores none *)
  if events <> [] && (Option.is_some resume || Option.is_some on_cancel) then
    invalid_arg "Driver.run: injections cannot be checkpointed";
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
  (* the recording rule: a boundary (the start, an injection) is always
     recorded and restarts the countdown, and only every [thin]-th
     accepted step after it is kept *)
  let countdown =
    ref (match resume with Some ck -> ck.ck_countdown | None -> 0)
  in
  let record_boundary t x =
    record t x;
    countdown := thin - 1
  in
  let record_step t x =
    if !countdown <= 0 then record_boundary t x else decr countdown
  in
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
  (* one segment from [t0] to [t_end]; a fresh integrator echoes its
     start, which the boundary record before it already emitted, while a
     resumed one emits no echo, so its first sample is a real step *)
  let segment ?resume t0 t_end (x, work) =
    if t_end <= t0 then (Array.copy x, work)
    else
      let first = ref (Option.is_none resume) in
      let on_sample ts xs =
        if !first then first := false else record_step ts xs
      in
      let x, w =
        integrate method_ ?rtol ?atol ~cancel ~ws ?resume ?on_cancel ~t0
          ~t1:t_end ~on_sample sys x
      in
      (x, add_work work w)
  in
  let x0 = Crn.Network.initial_state net in
  if Option.is_none resume then record_boundary 0. x0;
  let t, x, work =
    List.fold_left
      (fun (t, x, work) (at, sp, amount) ->
        let x, work = segment t at (x, work) in
        x.(sp) <- x.(sp) +. amount;
        record_boundary at x;
        (at, x, work))
      (0., x0, no_work method_)
      events
  in
  let final, work =
    segment
      ?resume:(Option.map (fun ck -> ck.ck_method) resume)
      t t1 (x, work)
  in
  (* always include the final state even when thinning dropped it *)
  if !last < t1 then record t1 final;
  (final, work)

let simulate ?method_ ?rtol ?atol ?env ?injections ?sys ?ws ?cancel
    ?(thin = 1) ~t1 net =
  if thin < 1 then invalid_arg "Driver.simulate: thin must be >= 1";
  let trace = Trace.create ~names:(Crn.Network.species_names net) in
  ignore
    (run ?method_ ?rtol ?atol ?env ?injections ?sys ?ws ?cancel ~thin ~trace
       ~t1 net);
  trace

let final_state ?method_ ?rtol ?atol ?env ?injections ?sys ?ws ?cancel ~t1 net
    =
  fst (run ?method_ ?rtol ?atol ?env ?injections ?sys ?ws ?cancel ~t1 net)
