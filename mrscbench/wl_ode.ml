(* ode-clocked: the paper's own validation job. Each operation
   synthesizes one clocked design with seeded stimuli, compiles it with
   Ode.Deriv.compile, integrates it with Rosenbrock for the cycles its
   decoder needs (as Core.Sync_design.simulate does), and decodes the
   trace against the design's golden model.

   Time goes almost entirely to the ode and numeric (LU) layers; none to
   canonicalization, the service or SSA. The design list is fixed and
   split by species count, so a stiff-solver change shows in the small
   and large group times separately, and by chassis, since the
   relaxation oscillator takes about twice the absence clock's steps. *)

open Common

let gamma = 1. +. (1. /. sqrt 2.)

(* Sync_design's default signal mass: a logical 1, and the full scale
   of every filter sample. *)
let full_scale = 10.

(* The filters' documented error floor is 1-2% of full scale, the
   clock trickle (EXPERIMENTS.md FIG-4/FIG-5: 1.8% and 1.5%); feedback
   compounds it over a few cycles (test_sfg allows 3% on the biquad).
   Twice the floor's upper end bounds it on every seed without letting
   a wrong sample (an error of at least one unit, 10%) through. *)
let filter_tol = 0.04 *. full_scale

type built = {
  net : Crn.Network.t;
  t1 : float;
  injections : Ode.Driver.injection list;
  check : Ode.Trace.t -> string option;  (** [Some why] on a mismatch *)
}

type design = {
  name : string;
  large : bool;  (** 31 or more species *)
  relaxation : bool;
  synth : Numeric.Rng.t -> built;
}

let on_chassis chassis f rng =
  let net = Crn.Network.create () in
  let d = Core.Sync_design.make ~chassis net in
  Tr.span "designs.synth" (fun () -> f net d rng)

let horizon d cycles = float_of_int cycles *. Core.Sync_design.period d

let sample rng = float_of_int (Numeric.Rng.int rng 10)

let compare_list ~what show want got =
  if want = got then None
  else
    Some
      (Printf.sprintf "%s: want [%s] got [%s]" what
         (String.concat "; " (List.map show want))
         (String.concat "; " (List.map show got)))

(* largest filter error seen in this run, for the run record *)
let worst_filter_error = ref 0.

let compare_floats ~what want got =
  List.iter2
    (fun w g -> worst_filter_error := Float.max !worst_filter_error (Float.abs (w -. g)))
    want got;
  let bad =
    List.exists2 (fun w g -> Float.abs (w -. g) > filter_tol) want got
  in
  if not bad then None
  else
    Some
      (Printf.sprintf "%s: want [%s] got [%s] (tolerance %g)" what
         (String.concat "; " (List.map (Printf.sprintf "%g") want))
         (String.concat "; " (List.map (Printf.sprintf "%.4g") got))
         filter_tol)

let show_opt = function None -> "-" | Some v -> string_of_int v

(* Bare four-phase clock: decoded output is the order in which phases
   go high, which must walk the ring 0,1,2,3,0,... *)
let clock4 chassis =
  on_chassis chassis (fun net d _ ->
      let cycles = 3 in
      let t1 = horizon d cycles in
      let check tr =
        let clk = d.Core.Sync_design.clock in
        let grid = 400 in
        let seen = ref [] in
        for i = 0 to grid do
          let t = t1 *. float_of_int i /. float_of_int grid in
          match Molclock.Clock_analysis.phase_high_at tr clk t with
          | Some k -> (
              match !seen with
              | k' :: _ when k' = k -> ()
              | _ -> seen := k :: !seen)
          | None -> ()
        done;
        let order = List.rev !seen in
        let rec ring = function
          | a :: (b :: _ as rest) -> b = (a + 1) mod 4 && ring rest
          | _ -> true
        in
        if ring order && List.length order >= 4 * (cycles - 1) then None
        else
          Some
            (Printf.sprintf "clock4 phase order [%s]"
               (String.concat "; " (List.map string_of_int order)))
      in
      { net; t1; injections = []; check })

let counter ~bits ~cycles chassis =
  on_chassis chassis (fun net d _ ->
      let ctr = Core.Counter.free_running d ~bits in
      let modulo = 1 lsl bits in
      let want = List.init cycles (fun c -> Some ((c + 1) mod modulo)) in
      let check tr =
        Tr.span "analysis.decode" (fun () ->
            compare_list ~what:"counter" show_opt want
              (List.init cycles (fun c -> Core.Counter.value_at ctr tr ~cycle:c)))
      in
      { net; t1 = horizon d cycles; injections = []; check })

let gated_counter chassis =
  on_chassis chassis (fun net d rng ->
      let ctr = Core.Counter.gated d ~bits:2 in
      let symbols = List.init 3 (fun _ -> Numeric.Rng.int rng 2) in
      let injections =
        List.mapi
          (fun cycle symbol ->
            Core.Fsm.inject_symbol ctr.Core.Counter.fsm ~cycle ~symbol)
          symbols
      in
      let want =
        List.rev
          (snd
             (List.fold_left
                (fun (acc, out) s ->
                  let v = (acc + s) mod 4 in
                  (v, Some v :: out))
                (0, []) symbols))
      in
      let n = List.length symbols in
      let check tr =
        Tr.span "analysis.decode" (fun () ->
            compare_list ~what:"gated counter" show_opt want
              (List.init n (fun c ->
                   Core.Fsm.state_at ctr.Core.Counter.fsm tr ~cycle:c)))
      in
      { net; t1 = horizon d n; injections; check })

let lfsr4 chassis =
  on_chassis chassis (fun net d rng ->
      let bits = 4 and taps = [ 2; 3 ] and n = 3 in
      let seed = 1 + Numeric.Rng.int rng 15 in
      let l = Core.Lfsr.make d ~bits ~taps ~seed in
      let want = Core.Lfsr.reference ~bits ~taps ~seed ~n in
      let check tr =
        Tr.span "analysis.decode" (fun () ->
            compare_list
              ~what:(Printf.sprintf "lfsr4 seed %d" seed)
              string_of_int want
              (List.init n (fun c -> Core.Lfsr.state_at l tr ~cycle:c)))
      in
      { net; t1 = horizon d n; injections = []; check })

let iir chassis =
  on_chassis chassis (fun net d rng ->
      let f = Core.Filter.iir_smoother d in
      let samples = List.init 3 (fun _ -> sample rng) in
      let injections =
        List.mapi (fun cycle v -> Core.Filter.inject_sample f ~cycle v) samples
      in
      let n = List.length samples in
      let want = Core.Filter.reference_iir samples in
      let check tr =
        Tr.span "analysis.decode" (fun () ->
            compare_floats ~what:"iir" want
              (List.init n (fun c -> Core.Filter.output_at f tr ~cycle:c)))
      in
      {
        net;
        t1 = horizon d (n + f.Core.Filter.pipeline_delay);
        injections;
        check;
      })

let biquad chassis =
  on_chassis chassis (fun net d rng ->
      let g =
        Core.Sfg.biquad d ~b0:(1, 2) ~b1:(1, 4) ~b2:(1, 8) ~a1:(1, 4)
          ~a2:(1, 8)
      in
      let c = Core.Sfg.compile g in
      let stream = List.init 2 (fun _ -> sample rng) in
      let injections =
        List.mapi (fun cycle v -> Core.Sfg.inject c ~input:0 ~cycle v) stream
      in
      let n = List.length stream in
      let want = List.hd (Core.Sfg.reference g [ stream ]) in
      let out = List.hd c.Core.Sfg.output_names in
      let check tr =
        Tr.span "analysis.decode" (fun () ->
            let s = Ode.Trace.species_index tr out in
            compare_floats ~what:"biquad" want
              (List.init n (fun cycle ->
                   Ode.Trace.value_at tr ~species:s
                     (Core.Sync_design.sample_time d ~cycle))))
      in
      { net; t1 = horizon d n; injections; check })

let modseq4 chassis =
  on_chassis chassis (fun net d _ ->
      let m = Designs.Module_seq.make d in
      let check tr =
        Tr.span "analysis.decode" (fun () ->
            compare_list ~what:"modseq4 completion order" string_of_int
              [ 0; 1; 2; 3 ]
              (Designs.Module_seq.completion_order tr m))
      in
      { net; t1 = horizon d 2; injections = []; check })

let absence = Molclock.Clock_chassis.absence
let relaxation = Molclock.Clock_chassis.relaxation

let design ?(large = false) name chassis synth =
  {
    name;
    large;
    relaxation = chassis == relaxation;
    synth = synth chassis;
  }

(* Small group: up to 28 species; large group: 31 or more. *)
let designs =
  [
    design "clock4" absence clock4;
    design "iir" absence iir;
    design "rx-counter2" relaxation (counter ~bits:2 ~cycles:4);
    design "modseq4" absence modseq4;
    design "gated-counter2" absence gated_counter;
    design ~large:true "lfsr4" absence lfsr4;
    design ~large:true "rx-counter3" relaxation (counter ~bits:3 ~cycles:3);
    design ~large:true "biquad" absence biquad;
  ]

(* ------------------------------------------------------------ integrate *)

(* Per-call cost of the four kernels a Rosenbrock step is made of,
   timed from outside the integrator in the traced run. Every 64th
   accepted step, the state just reached is replayed through one step's
   calls in the integrator's order -- Jacobian, W = I - gamma h J,
   factor, f, solve -- with h the step that reached it. Sampling along
   the run keeps the timings under the same host conditions as the
   integration itself; the time spent probing is taken out of the
   measured integrate time. *)
type probe = {
  p_jac : Numeric.Mat.t;
  p_w : Numeric.Mat.t;
  p_lu : Numeric.Lu.t;
  p_dx : float array;
  p_k : float array;
  mutable samples : int;
  mutable t_f : float;
  mutable t_jac : float;
  mutable t_factor : float;
  mutable t_solve : float;
  mutable spent : float;
}

let probe_state n =
  {
    p_jac = Numeric.Mat.create n n 0.;
    p_w = Numeric.Mat.create n n 0.;
    p_lu = Numeric.Lu.workspace n;
    p_dx = Array.make n 0.;
    p_k = Array.make n 0.;
    samples = 0;
    t_f = 0.;
    t_jac = 0.;
    t_factor = 0.;
    t_solve = 0.;
    spent = 0.;
  }

let probe_at p sys x h =
  let start = now () in
  let n = Array.length x in
  for _ = 1 to 4 do
    let a = now () in
    Ode.Deriv.jacobian_into sys x p.p_jac;
    let b = now () in
    for i = 0 to n - 1 do
      let wi = p.p_w.(i) and ji = p.p_jac.(i) in
      for j = 0 to n - 1 do
        wi.(j) <- (if i = j then 1. else 0.) -. (gamma *. h *. ji.(j))
      done
    done;
    let c = now () in
    match Numeric.Lu.refactor p.p_lu p.p_w with
    | exception Numeric.Lu.Singular -> ()
    | () ->
        let d = now () in
        Ode.Deriv.f sys 0. x p.p_dx;
        let e = now () in
        Numeric.Lu.solve_into p.p_lu p.p_dx p.p_k;
        let g = now () in
        p.samples <- p.samples + 1;
        p.t_jac <- p.t_jac +. (b -. a);
        p.t_factor <- p.t_factor +. (d -. c);
        p.t_f <- p.t_f +. (e -. d);
        p.t_solve <- p.t_solve +. (g -. e)
  done;
  p.spent <- p.spent +. (now () -. start)

(* Mirrors Ode.Driver.simulate (Rosenbrock, thin 10, injections between
   segments) but calls the integrator directly, so its exact step,
   factorization and Jacobian counts are visible. *)
let thin = 10

type integration = {
  steps : int;
  rejected : int;
  factorizations : int;
  jac_evals : int;
  integrate_s : float;
  probe : probe option;
}

let integrate ~traced sys (b : built) =
  let net = b.net in
  let trace = Ode.Trace.create ~names:(Crn.Network.species_names net) in
  let countdown = ref 0 in
  let record_boundary t x =
    Ode.Trace.record trace t x;
    countdown := thin - 1
  in
  let record_step t x =
    if !countdown <= 0 then record_boundary t x else decr countdown
  in
  let events =
    List.filter_map
      (fun { Ode.Driver.at; species; amount } ->
        if at >= b.t1 then None
        else Some (at, Crn.Network.species net species, amount))
      b.injections
    |> List.sort (fun (a, _, _) (c, _, _) -> compare a c)
  in
  let n = Ode.Deriv.dim sys in
  let ws = Ode.Rosenbrock.workspace n in
  let probe = if traced then Some (probe_state n) else None in
  let x = ref (Crn.Network.initial_state net) and t = ref 0. in
  let steps = ref 0 and rejected = ref 0 and facts = ref 0 and jacs = ref 0 in
  let busy = ref 0. and accepted = ref 0 in
  let run_to t_end =
    if t_end > !t then begin
      let first = ref true and last_t = ref !t in
      let on_sample ts xs =
        if !first then first := false
        else begin
          record_step ts xs;
          match probe with
          | Some p ->
              incr accepted;
              if !accepted mod 64 = 0 then probe_at p sys xs (ts -. !last_t)
          | None -> ()
        end;
        last_t := ts
      in
      let (x', st), dt =
        timed (fun () ->
            Ode.Rosenbrock.integrate ~ws ~t0:!t ~t1:t_end ~on_sample sys !x)
      in
      busy := !busy +. dt;
      steps := !steps + st.Ode.Rosenbrock.steps;
      rejected := !rejected + st.rejected;
      facts := !facts + st.factorizations;
      jacs := !jacs + st.jac_evals;
      x := x'
    end;
    t := t_end
  in
  record_boundary 0. !x;
  List.iter
    (fun (at, sp, amount) ->
      run_to at;
      !x.(sp) <- !x.(sp) +. amount;
      record_boundary !t !x)
    events;
  run_to b.t1;
  let spent = match probe with Some p -> p.spent | None -> 0. in
  ( trace,
    {
      steps = !steps;
      rejected = !rejected;
      factorizations = !facts;
      jac_evals = !jacs;
      integrate_s = !busy -. spent;
      probe;
    } )

(* The ODE split of one integration, in seconds: each kernel's mean
   per-call cost times the exact call count the stats imply (per
   factorization one factor, two f and two solves; one Jacobian per
   evaluation), and what the four kernels leave of the integrate time. *)
type split = {
  rhs : float;
  jac : float;
  factor : float;
  solve : float;
  other : float;
  total : float;
}

let split_of i =
  match i.probe with
  | Some p when p.samples > 0 ->
      let per t = t /. float_of_int p.samples in
      let fact = float_of_int i.factorizations in
      let rhs = 2. *. fact *. per p.t_f
      and jac = float_of_int i.jac_evals *. per p.t_jac
      and factor = fact *. per p.t_factor
      and solve = 2. *. fact *. per p.t_solve in
      Some
        {
          rhs;
          jac;
          factor;
          solve;
          other = i.integrate_s -. rhs -. jac -. factor -. solve;
          total = i.integrate_s;
        }
  | _ -> None

(* ---------------------------------------------------------------- setup *)

(* One set-up through the library as a fresh process pays it:
   Sync_design.period for both chassis (one stiff simulation each,
   cached for the rest of the process), then synthesis and compilation
   of every design. *)
let setup rng =
  List.iter
    (fun chassis ->
      let d = Core.Sync_design.make ~chassis (Crn.Network.create ()) in
      ignore (Core.Sync_design.period d : float))
    [ absence; relaxation ];
  List.iter
    (fun d ->
      let b = d.synth rng in
      ignore (Ode.Deriv.compile Crn.Rates.default_env b.net : Ode.Deriv.t))
    designs

let setup_time ~seed =
  snd (timed (fun () -> setup (Numeric.Rng.create (Int64.of_int seed))))

(* The set-up of a fresh process of this executable (--setup-only),
   timed inside it: the period cache would make a second set-up in this
   process cheaper than the first. *)
let setup_in_child ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; "ode-clocked"; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string (String.trim out)
  | _ -> failwith "set-up process failed"

(* ------------------------------------------------------------------ run *)

type sample = {
  design : design;
  pass : int;
  wall_s : float;
  species : int;
  nnz : int;
  integ : integration option;  (** traced runs only *)
}

let validate ~traced ~pass rng d =
  let t0 = now () in
  let b = d.synth rng in
  let sys =
    Tr.span "ode.compile" (fun () ->
        Ode.Deriv.compile Crn.Rates.default_env b.net)
  in
  (* Timed runs integrate through the library, as
     Core.Sync_design.simulate does; the traced run uses the mirror
     above for its exact counts and kernel timings. *)
  let trace, integ =
    Tr.span "ode.integrate" (fun () ->
        if traced then
          let tr, i = integrate ~traced sys b in
          (tr, Some i)
        else
          ( Ode.Driver.simulate ~method_:Ode.Driver.Rosenbrock
              ~injections:b.injections ~sys ~thin ~t1:b.t1 b.net,
            None ))
  in
  let verdict = b.check trace in
  let sample =
    {
      design = d;
      pass;
      wall_s = now () -. t0;
      species = Crn.Network.n_species b.net;
      nnz = Ode.Deriv.jac_nnz sys;
      integ;
    }
  in
  (sample, verdict)

(* Five set-ups: this process's own, then one fresh process after each
   complete pass over the design list (and any still missing after the
   last pass), so they sample the host across the run rather than in
   one stretch of seconds; its speed drifts in phases of that length. *)
let n_setups = 5

let run ~seed ~seconds ~traced =
  let setups = ref [ setup_time ~seed ] in
  let more_setups () =
    if List.length !setups < n_setups then
      setups := setup_in_child ~seed :: !setups
  in
  let rng = Numeric.Rng.create (Int64.of_int seed) in
  let fs = failures () in
  let calib = Calib.create () in
  let samples = ref [] and attempted = ref 0 and passes = ref 0 in
  let deadline = ref (now () +. seconds) in
  (try
     while true do
       List.iter
         (fun d ->
           (* the first pass always completes, so every group has a time *)
           if !passes > 0 && now () >= !deadline then raise Exit;
           incr attempted;
           Tr.set_op !attempted;
           let t0 = now () in
           (match validate ~traced ~pass:!passes (Numeric.Rng.split rng) d with
           | exception e ->
               fail fs "%s pass %d: %s" d.name !passes (Printexc.to_string e)
           | _, Some why -> fail fs "%s pass %d: %s" d.name !passes why
           | s, None -> samples := s :: !samples);
           (* the reference samples are not taken from the measurement *)
           let (), dt = timed (fun () -> Calib.sample_after calib ~op_s:(now () -. t0)) in
           deadline := !deadline +. dt)
         designs;
       incr passes;
       (* the set-up's time is not taken from the measurement *)
       let (), dt = timed more_setups in
       deadline := !deadline +. dt
     done
   with Exit -> ());
  while List.length !setups < n_setups do
    more_setups ()
  done;
  let setups = List.rev !setups in
  let samples = List.rev !samples in
  let of_design d = List.filter (fun s -> s.design == d) samples in
  (* A group's time is the sum over its designs of each design's mean
     validation time in this run, so a partial last pass still counts.
     The host alternates between faster and slower phases lasting
     seconds; a mean over a design's few validations follows the mix of
     phases smoothly, where a median of three or four jumps between
     them. *)
  let group p =
    List.fold_left
      (fun acc d ->
        if not (p d) then acc
        else
          match of_design d with
          | [] -> nan
          | ss -> acc +. mean (List.map (fun s -> s.wall_s) ss))
      0. designs
  in
  let small = group (fun d -> not d.large)
  and large = group (fun d -> d.large)
  and rx = group (fun d -> d.relaxation)
  and ab = group (fun d -> not d.relaxation) in
  (* end-to-end times at the reference host speed (Calib) *)
  let k = Calib.factor calib in
  let end_to_end =
    [
      m "setup_s" "s" (median setups *. k);
      m "peak_rss_mb" "MB" (self_peak_rss_mb ());
      m "class_a_ms" "ms" (small *. 1000. *. k);
      m "class_b_ms" "ms" (large *. 1000. *. k);
      m "class_c_ms" "ms" (rx *. 1000. *. k);
      m "class_d_ms" "ms" (ab *. 1000. *. k);
    ]
  in
  (* Per-layer figures are per pass over the design list: counts from
     the first pass, which always completes and whose stimuli depend on
     the seed alone, so they repeat exactly; times as the sum over
     designs of each design's mean over its validations. *)
  let count f =
    float_of_int
      (List.fold_left
         (fun a s ->
           match s.integ with Some i when s.pass = 0 -> a + f i | _ -> a)
         0 samples)
  in
  let part f =
    List.fold_left
      (fun acc d ->
        match
          List.filter_map (fun s -> Option.bind s.integ split_of) (of_design d)
        with
        | [] -> acc
        | sp -> acc +. mean (List.map f sp))
      0. designs
  in
  let density =
    mean
      (List.filter_map
         (fun d ->
           match of_design d with
           | s :: _ ->
               Some (float_of_int s.nnz /. float_of_int (s.species * s.species))
           | [] -> None)
         designs)
  in
  let per_layer =
    [
      m "ode.steps" "count" (count (fun i -> i.steps));
      m "ode.rejected" "count" (count (fun i -> i.rejected));
      m "ode.factorizations" "count" (count (fun i -> i.factorizations));
      m "ode.jac_evals" "count" (count (fun i -> i.jac_evals));
      m "ode.rhs_s" "s" (part (fun sp -> sp.rhs));
      m "ode.jac_s" "s" (part (fun sp -> sp.jac));
      m "numeric.lu_factor_s" "s" (part (fun sp -> sp.factor));
      m "numeric.lu_solve_s" "s" (part (fun sp -> sp.solve));
      m "ode.step_other_s" "s" (part (fun sp -> sp.other));
      m "ode.integrate_s" "s" (part (fun sp -> sp.total));
      m "ode.jac_density" "ratio" density;
      m "ode.compile_ms" "ms" (Tr.mean_ms "ode.compile");
      m "designs.synth_ms" "ms" (Tr.mean_ms "designs.synth");
      m "analysis.decode_ms" "ms" (Tr.mean_ms "analysis.decode");
      m "analysis.decode_ok_share" "ratio"
        (float_of_int (List.length samples) /. float_of_int (max 1 !attempted));
    ]
  in
  (* per-design ODE split; its five parts sum to the integrate time *)
  let split_json d =
    match of_design d with
    | [] -> None
    | s0 :: _ as ss ->
        let sp = List.filter_map (fun s -> Option.bind s.integ split_of) ss in
        let sum f = jnum (List.fold_left (fun a x -> a +. f x) 0. sp) in
        let traced_fields =
          match s0.integ with
          | None -> []
          | Some i ->
              [
                ("steps", jint i.steps);
                ("factorizations", jint i.factorizations);
                ("integrate_s", sum (fun x -> x.total));
                ("ode.rhs_s", sum (fun x -> x.rhs));
                ("ode.jac_s", sum (fun x -> x.jac));
                ("numeric.lu_factor_s", sum (fun x -> x.factor));
                ("numeric.lu_solve_s", sum (fun x -> x.solve));
                ("ode.step_other_s", sum (fun x -> x.other));
              ]
        in
        Some
          ( d.name,
            J.Obj
              ([
                 ("species", jint s0.species);
                 ("jac_nnz", jint s0.nnz);
                 ("validations", jint (List.length ss));
                 ("wall_s", J.List (List.map (fun s -> jnum s.wall_s) ss));
               ]
              @ traced_fields) )
  in
  let names p =
    J.List (List.filter_map (fun d -> if p d then Some (jstr d.name) else None) designs)
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
        m "ode_small_s" "s" small;
        m "ode_large_s" "s" large;
        m "ode_relaxation_s" "s" rx;
        m "ode_absence_s" "s" ab;
        m "setup_wall_s" "s" (median setups);
        m "calib_factor" "ratio" k;
        m "calib_samples" "count" (float_of_int (Calib.count calib));
      ];
    info =
      [
        ( "config",
          J.Obj
            [
              ("domains", jint 1);
              ("complete_passes", jint !passes);
              ("small", names (fun d -> not d.large));
              ("large", names (fun d -> d.large));
              ("relaxation", names (fun d -> d.relaxation));
              ("setup_runs_s", J.List (List.map jnum setups));
              ("filter_tolerance", jnum filter_tol);
              ("filter_max_abs_error", jnum !worst_filter_error);
            ] );
        ("designs", J.Obj (List.filter_map split_json designs));
      ];
  }
