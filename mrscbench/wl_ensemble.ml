(* stochastic-ensemble: trajectory ensembles fanned over nproc domains
   with Ssa.Ensemble.map_with, one arena per worker, the seed as the
   ensemble root. One operation is one trajectory. Three parts run in
   rounds until the time is up:

   - exact SSA of the EXT-1 counter (2 bits, signal mass 30) on the
     absence chassis to t = 120, and on the relaxation chassis to
     t = 150 (its stochastic period is longer);
   - hybrid runs of the 2-bit counter at clock mass 1000 with thresholds
     (100, 200), where mixed mode engages (RK4 slices, tau leaps and
     exact events all fire) to t = 40.

   Time goes to ssa (Prop_engine), the hybrid gears and numeric
   (Domain_pool); no LU and no canonicalization, so this workload is the
   no-change control for solver and serving work. *)

open Common

type part = {
  label : string;
  net : Crn.Network.t;
  ctr : Core.Counter.t;
  t1 : float;
  batch : int;  (** trajectories per ensemble call *)
  hybrid : bool;
  laws : Exact.Invariant.law list;
  mutable ssa : Ssa.Gillespie.model option;
  mutable hyb : Hybrid.Engine.model option;
}

let ssa_sample_dt = 0.05
let pop_threshold = 100.
let prop_threshold = 200.

let counter_part ~label ~chassis ~clock_mass ~signal_mass ~t1 ~batch ~hybrid =
  let net = Crn.Network.create () in
  let d = Core.Sync_design.make ~chassis ~clock_mass ~signal_mass net in
  let ctr = Core.Counter.free_running d ~bits:2 in
  let laws =
    Exact.Invariant.conservation_basis (Crn.Exact_view.of_network net)
  in
  { label; net; ctr; t1; batch; hybrid; laws; ssa = None; hyb = None }

let make_parts () =
  Tr.span "designs.synth" (fun () ->
      [
        counter_part ~label:"ssa-absence"
          ~chassis:Molclock.Clock_chassis.absence ~clock_mass:100.
          ~signal_mass:30. ~t1:120. ~batch:4 ~hybrid:false;
        counter_part ~label:"ssa-relaxation"
          ~chassis:Molclock.Clock_chassis.relaxation ~clock_mass:100.
          ~signal_mass:30. ~t1:150. ~batch:2 ~hybrid:false;
        counter_part ~label:"hybrid" ~chassis:Molclock.Clock_chassis.absence
          ~clock_mass:1000. ~signal_mass:100. ~t1:40. ~batch:4 ~hybrid:true;
      ])

let compile p =
  let env = Crn.Rates.default_env in
  if p.hybrid then
    p.hyb <-
      Some
        (Tr.span "hybrid.compile" (fun () ->
             Hybrid.Engine.compile_model env p.net))
  else
    p.ssa <-
      Some
        (Tr.span "ssa.compile" (fun () -> Ssa.Gillespie.compile_model env p.net))

(* ----------------------------------------------------------- checks *)

(* Conservation check of one final state. Each law's deviation
   |w . x - total| is computed exactly (rationals) and held to an
   allowance of [slack] times max(1, |total|) plus [per_unit] molecules
   per unit of the law's weight sum: SSA counts must conserve every law
   integer-exactly (both 0). Returns whether every law holds, and the
   largest deviation (molecules) with its share of the law's total. *)
let check_laws p final ~slack ~per_unit =
  List.fold_left
    (fun (ok, worst, worst_rel) (l : Exact.Invariant.law) ->
      let sum = ref Exact.Q.zero and weight = ref 0. in
      Array.iteri
        (fun i w ->
          weight := !weight +. Exact.Z.to_float (Exact.Z.abs w);
          sum :=
            Exact.Q.add !sum
              (Exact.Q.mul (Exact.Q.of_z w) (Exact.Q.of_float final.(i))))
        l.weights;
      let dev = Exact.Q.abs (Exact.Q.sub !sum l.total) in
      if Exact.Q.is_zero dev then (ok, worst, worst_rel)
      else
        let d = Exact.Q.to_float dev in
        let scale = Float.max 1. (Float.abs (Exact.Q.to_float l.total)) in
        let allowed = (slack *. scale) +. (per_unit *. !weight) in
        (ok && d <= allowed, Float.max worst d, Float.max worst_rel (d /. scale)))
    (true, 0., 0.) p.laws

(* Hybrid finals are held to the 1e-3 relative tolerance the hybrid
   tests use, plus the rounding the engine is allowed: each demotion
   from mixed mode rounds every continuous species to the nearest whole
   count (Hybrid.Engine's to_discrete), which moves a law by at most half
   a molecule per unit of its weight sum. Demotions and promotions
   alternate, so a run with s mode switches demoted at most (s + 1) / 2
   times. A law that drifts beyond that fails the trajectory; the share
   of runs within the plain 1e-3 tolerance is reported alongside. *)
let hybrid_rtol = 1e-3

(* ------------------------------------------------------- trajectories *)

type traj = {
  final : float array;
  busy : float;  (** wall time of the job on its domain, s *)
  events : int;
  stats : Hybrid.Engine.stats option;
  decoded : bool;  (** the SSA counter decoded as counting by one *)
}

type worker = Ssa of Ssa.Gillespie.arena | Hyb of Hybrid.Engine.arena

let init_worker p () =
  match (p.ssa, p.hyb) with
  | Some m, _ -> Ssa (Ssa.Gillespie.make_arena m)
  | _, Some m -> Hyb (Hybrid.Engine.make_arena m)
  | None, None -> invalid_arg "part not compiled"

(* Each job is timed on its own domain, so a trajectory's time is its
   own, not that of the slowest job of its batch. *)
let trajectory p w _i seed =
  Tr.span "ensemble.job" @@ fun () ->
  let t0 = now () in
  match w with
  | Ssa arena -> (
      match
        Tr.span "ssa.run" (fun () ->
            Ssa.Gillespie.run_result ~seed ~sample_dt:ssa_sample_dt ~arena
              ~t1:p.t1 p.net)
      with
      | Error e -> Error (Ssa.Gillespie.error_to_string e)
      | Ok r ->
          let decoded =
            Tr.span "analysis.decode" (fun () ->
                let states =
                  Core.Stochastic.counter_states r.Ssa.Gillespie.trace p.ctr
                in
                List.length states >= 4
                && Core.Stochastic.increments_by_one states ~modulo:4)
          in
          Ok
            {
              final = r.Ssa.Gillespie.final;
              busy = now () -. t0;
              events = r.Ssa.Gillespie.n_events;
              stats = None;
              decoded;
            })
  | Hyb arena -> (
      match
        Tr.span "hybrid.run" (fun () ->
            Hybrid.Engine.run_result ~seed ~pop_threshold ~prop_threshold
              ~arena ~t1:p.t1 p.net)
      with
      | Error e -> Error (Hybrid.Engine.error_to_string e)
      | Ok r ->
          Ok
            {
              final = r.Hybrid.Engine.final;
              busy = now () -. t0;
              events = r.Hybrid.Engine.n_events;
              stats = Some r.Hybrid.Engine.stats;
              decoded = true;
            })

let ensemble ?pool ~jobs p ~root ~runs =
  Ssa.Ensemble.map_with ?pool ~jobs ~seed:root ~init_worker:(init_worker p)
    ~runs (trajectory p)

(* ---------------------------------------------------------------- run *)

let run ~seed ~seconds =
  let jobs = Numeric.Domain_pool.default_jobs () in
  (* Each set-up synthesizes and compiles every part, derives its
     conservation laws and spins up a fresh worker pool; only the last
     one is kept. *)
  let setup () =
    let pool = Numeric.Domain_pool.Bounded.create ~jobs:(max 1 (jobs - 1)) () in
    let parts = make_parts () in
    List.iter compile parts;
    (pool, parts)
  in
  let setups = ref [] in
  let time_setup () =
    let fresh, dt = timed setup in
    setups := dt :: !setups;
    fresh
  in
  let discard (pool, _) = Numeric.Domain_pool.Bounded.shutdown pool in
  (* 41 set-ups before the run (the last one is kept) and 10 more after
     every round, so the median samples the host across the run rather
     than in one stretch; its speed drifts in phases of seconds. *)
  for _ = 1 to 40 do
    discard (time_setup ())
  done;
  let pool, parts = time_setup () in
  let setup_s = median !setups in
  let roots = Numeric.Rng.create (Int64.of_int seed) in
  let fs = failures () in
  let attempted = ref 0 in
  (* per part: trajectories done, summed job time, summed batch wall,
     decode successes, events, and the first batch for the jobs probe *)
  let n_traj = Hashtbl.create 4 and busy = Hashtbl.create 4 in
  let wall = Hashtbl.create 4 in
  let decoded = Hashtbl.create 4 and events = Hashtbl.create 4 in
  let first_batch = Hashtbl.create 4 in
  let max_dev = ref 0. and within_rtol = ref 0 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let calib = Calib.create ~domains:jobs () in
  let deadline = ref (now () +. seconds) in
  let rounds = ref 0 in
  (try
     while true do
       List.iter
         (fun p ->
           if !rounds > 0 && now () >= !deadline then raise Exit;
           let root = Numeric.Rng.split_seed roots in
           attempted := !attempted + p.batch;
           let results, dt =
             timed (fun () ->
                 Tr.span ("ensemble." ^ p.label) (fun () ->
                     ensemble ~pool ~jobs p ~root ~runs:p.batch))
           in
           add wall p.label dt;
           (* the reference samples are not taken from the measurement *)
           let (), ds = timed (fun () -> Calib.sample_after calib ~op_s:dt) in
           deadline := !deadline +. ds;
           if not (Hashtbl.mem first_batch p.label) then
             Hashtbl.replace first_batch p.label (root, results);
           Array.iteri
             (fun i r ->
               match r with
               | Error e -> fail fs "%s root %Ld #%d: %s" p.label root i e
               | Ok t ->
                   let ok, dev, rel =
                     match t.stats with
                     | None -> check_laws p t.final ~slack:0. ~per_unit:0.
                     | Some s ->
                         check_laws p t.final ~slack:hybrid_rtol
                           ~per_unit:
                             (0.5 *. float_of_int ((s.n_mode_switches + 1) / 2))
                   in
                   if p.hybrid then begin
                     max_dev := Float.max !max_dev dev;
                     if rel <= hybrid_rtol then incr within_rtol
                   end;
                   if not ok then
                     fail fs "%s root %Ld #%d: a conservation law is off by %.17g"
                       p.label root i dev
                   else begin
                     add n_traj p.label 1.;
                     add busy p.label t.busy;
                     add events p.label (float_of_int t.events);
                     if t.decoded then add decoded p.label 1.
                   end)
             results)
         parts;
       incr rounds;
       for _ = 1 to 10 do
         discard (time_setup ())
       done
     done
   with Exit -> ());
  (* Outside the timed window: the first two trajectories of the first
     SSA and hybrid batches again at jobs = 1; finals must be
     byte-identical to the ones computed on nproc domains. *)
  let probe_runs = 2 in
  let traced = !Tr.enabled in
  Tr.enabled := false;
  List.iter
    (fun p ->
      match Hashtbl.find_opt first_batch p.label with
      | Some (root, results) when p.label <> "ssa-relaxation" ->
          let again = ensemble ~jobs:1 p ~root ~runs:probe_runs in
          Array.iteri
            (fun i r ->
              let same =
                match (r, results.(i)) with
                | Ok a, Ok b ->
                    Array.length a.final = Array.length b.final
                    && Array.for_all2
                         (fun x y ->
                           Int64.equal (Int64.bits_of_float x)
                             (Int64.bits_of_float y))
                         a.final b.final
                | Error a, Error b -> a = b
                | _ -> false
              in
              if not same then
                fail fs "%s root %Ld #%d: jobs 1 and %d disagree" p.label root
                  i jobs)
            again
      | _ -> ())
    parts;
  Tr.enabled := traced;
  Numeric.Domain_pool.Bounded.shutdown pool;
  (* mean job time per trajectory, ms *)
  let per_traj labels =
    let w = List.fold_left (fun a l -> a +. get busy l) 0. labels
    and n = List.fold_left (fun a l -> a +. get n_traj l) 0. labels in
    w *. 1000. /. n
  in
  (* Job times at the reference host speed (Calib). The set-up, a few
     milliseconds that a domain spawn dominates, is reported as
     measured: scaled, its spread over runs grew. *)
  let k = Calib.factor calib in
  let all_parts = [ "ssa-absence"; "ssa-relaxation"; "hybrid" ] in
  let end_to_end =
    [
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (self_peak_rss_mb ());
      m "class_a_ms" "ms" (per_traj [ "ssa-absence" ] *. k);
      m "class_b_ms" "ms" (per_traj [ "hybrid" ] *. k);
      m "class_c_ms" "ms" (per_traj [ "ssa-relaxation" ] *. k);
      m "class_d_ms" "ms" (per_traj all_parts *. k);
    ]
  in
  let ssa_labels = [ "ssa-absence"; "ssa-relaxation" ] in
  let ssa_events = List.fold_left (fun a l -> a +. get events l) 0. ssa_labels in
  let ssa_n = List.fold_left (fun a l -> a +. get n_traj l) 0. ssa_labels in
  let ssa_ok = List.fold_left (fun a l -> a +. get decoded l) 0. ssa_labels in
  (* Counts are those of the first round (one batch of each part), whose
     roots depend on the seed alone, so they repeat exactly; rates and
     shares use every trajectory. *)
  let first label =
    match Hashtbl.find_opt first_batch label with
    | Some (_, results) ->
        Array.to_list results |> List.filter_map Result.to_option
    | None -> []
  in
  let first_ssa_events =
    List.fold_left
      (fun a l -> List.fold_left (fun a t -> a + t.events) a (first l))
      0 ssa_labels
  in
  let hs f =
    float_of_int
      (List.fold_left
         (fun a t ->
           match t.stats with Some (s : Hybrid.Engine.stats) -> a + f s | None -> a)
         0 (first "hybrid"))
  in
  let job_time = Tr.total "ensemble.job" in
  let ens_wall =
    List.fold_left (fun a p -> a +. Tr.total ("ensemble." ^ p.label)) 0. parts
  in
  let per_layer =
    [
      m "designs.synth_ms" "ms" (Tr.mean_ms "designs.synth");
      m "ssa.compile_ms" "ms" (Tr.mean_ms "ssa.compile");
      m "hybrid.compile_ms" "ms" (Tr.mean_ms "hybrid.compile");
      m "ssa.events" "count" (float_of_int first_ssa_events);
      m "ssa.events_per_s" "1/s"
        (let t = Tr.total "ssa.run" in
         if t > 0. then ssa_events /. t else 0.);
      m "hybrid.ssa_events" "count" (hs (fun s -> s.n_ssa_events));
      m "hybrid.tau_leaps" "count" (hs (fun s -> s.n_tau_leaps));
      m "hybrid.ode_steps" "count" (hs (fun s -> s.n_ode_steps));
      m "hybrid.repartitions" "count" (hs (fun s -> s.n_repartitions));
      m "hybrid.mode_switches" "count" (hs (fun s -> s.n_mode_switches));
      m "hybrid.rejected" "count" (hs (fun s -> s.n_rejected));
      m "hybrid.busy_s" "s" (Tr.total "hybrid.run");
      m "hybrid.conservation_ok_share" "ratio"
        (let n = get n_traj "hybrid" in
         if n > 0. then float_of_int !within_rtol /. n else 0.);
      m "hybrid.law_max_dev" "count" !max_dev;
      m "numeric.pool_busy_share" "ratio"
        (if ens_wall > 0. then job_time /. (float_of_int jobs *. ens_wall) else 0.);
      m "analysis.decode_ms" "ms" (Tr.mean_ms "analysis.decode");
      m "analysis.decode_ok_share" "ratio"
        (if ssa_n > 0. then ssa_ok /. ssa_n else 0.);
    ]
  in
  (* trajectories completed per second of ensemble wall time *)
  let rate labels =
    let w = List.fold_left (fun a l -> a +. get wall l) 0. labels
    and n = List.fold_left (fun a l -> a +. get n_traj l) 0. labels in
    n /. w
  in
  {
    attempted = !attempted;
    failed = fs.n;
    problems = List.rev fs.msgs;
    checks_ok = fs.n = 0;
    end_to_end;
    per_layer;
    named =
      [
        m "ssa_traj_per_s" "1/s" (rate ssa_labels);
        m "hybrid_traj_per_s" "1/s" (rate [ "hybrid" ]);
        m "ssa_absence_job_ms" "ms" (per_traj [ "ssa-absence" ]);
        m "hybrid_job_ms" "ms" (per_traj [ "hybrid" ]);
        m "ssa_relaxation_job_ms" "ms" (per_traj [ "ssa-relaxation" ]);
        m "all_job_ms" "ms" (per_traj all_parts);
        m "calib_factor" "ratio" k;
        m "calib_samples" "count" (float_of_int (Calib.count calib));
      ];
    info =
      [
        ( "config",
          J.Obj
            [
              ("domains", jint jobs);
              ("rounds", jint !rounds);
              ( "parts",
                J.List
                  (List.map
                     (fun p ->
                       J.Obj
                         [
                           ("label", jstr p.label);
                           ("t1", jnum p.t1);
                           ("batch", jint p.batch);
                           ("trajectories", jnum (get n_traj p.label));
                           ("job_s", jnum (get busy p.label));
                           ("wall_s", jnum (get wall p.label));
                           ("events", jnum (get events p.label));
                           ("decoded", jnum (get decoded p.label));
                         ])
                     parts) );
              ("probe_runs_jobs1", jint probe_runs);
              ("setup_runs_s", J.List (List.rev_map jnum !setups));
              ("hybrid_rtol", jnum hybrid_rtol);
              ("hybrid_within_rtol", jint !within_rtol);
              ("hybrid_law_max_dev", jnum !max_dev);
            ] );
      ];
  }
