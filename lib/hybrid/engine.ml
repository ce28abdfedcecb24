(* Hybrid adaptive stochastic/deterministic simulation (Haseltine–Rawlings
   style, with tau-leaping as the middle gear).

   The engine runs in one of two modes and switches between them at
   repartition checkpoints:

   - Discrete mode (no fast reactions): the Gillespie direct method — each
     event is Ssa.Prop_engine.event, the one Ssa.Gillespie runs, on the
     same sample clock — so while every reaction stays slow the trajectory
     is bitwise identical to pure Gillespie at the same seed. Checkpoints
     only read counts and propensities (no RNG, no float mutation), so
     they cannot perturb the trajectory.

   - Mixed mode (some reactions fast): state becomes a float vector; the
     fast partition advances by in-place RK4 (Ode.Fixed.rk4_slice, the
     stages of Ode.Fixed.rk4_step) on the CSR vector field
     restricted to it (Ode.Deriv.with_k with the slow rate constants
     zeroed and the fast ones divided by the reactant-permutation factor,
     so the deterministic flux agrees with the combinatorial propensity
     to O(1/population)); the slow partition fires exactly by the
     integrated-propensity method (accumulate ∫a_slow dt toward an Exp(1)
     target across ODE slices), except that when a substep expects more
     than [tau_switch] slow events the whole substep fires them in bulk
     from Poisson draws (tau-leaping) with halving retries on a negative
     excursion. Substep size comes from a Cao-style bound on the fast
     fluxes: small enough that no continuous species changes by more than
     [epsilon] relatively and that explicit RK4 stays stable against the
     fastest per-capita drain.

   The partition itself (Partition.classify) keys on per-reaction
   propensity magnitude and per-species population thresholds, so a clock
   phase species that empties between checkpoints demotes its reactions
   back to the exact subset; between checkpoints the tau gear absorbs
   misclassified high-propensity slow reactions. *)

module Rng = Numeric.Rng

type stats = {
  n_ssa_events : int;  (** exact single-reaction firings (both modes) *)
  n_tau_leaps : int;  (** accepted bulk substeps *)
  n_tau_events : int;  (** reaction firings inside accepted bulk substeps *)
  n_ode_steps : int;  (** RK4 slices on the fast partition *)
  n_repartitions : int;  (** checkpoint evaluations *)
  n_mode_switches : int;  (** discrete <-> mixed transitions *)
  n_rejected : int;  (** tau retries + skipped infeasible slow firings *)
  final_n_fast : int;  (** fast reactions at the end of the run *)
  final_n_slow : int;
  peak_n_fast : int;  (** largest fast partition seen at any checkpoint *)
}

type result = {
  trace : Ode.Trace.t;  (** states sampled every [sample_dt] *)
  final : float array;  (** state at [t1] *)
  n_events : int;  (** discrete reaction firings (exact + tau) *)
  stats : stats;
}

type error = Max_events_exceeded of { max_events : int; t : float }

exception Error of error

let error_to_string = function
  | Max_events_exceeded { max_events; t } ->
      Printf.sprintf "Hybrid: work budget %d exceeded at t = %g" max_events t

(* ------------------------------------------------------------- models *)

type model = {
  reactions : Ssa.Compiled.reaction array;
  deps : Ssa.Dep_graph.t;
  sys : Ode.Deriv.t;
  det_k : float array;
      (* per-reaction deterministic rate constant: the stochastic k divided
         by the product of reactant-coefficient factorials, so the
         mass-action flux k' * prod x^c matches the combinatorial
         propensity k * prod C(n,c) at large populations *)
  n_species : int;
  n_reactions : int;
}

let det_rate (rx : Ssa.Compiled.reaction) =
  let d = ref rx.Ssa.Compiled.k in
  Array.iter
    (fun c ->
      let rec fact acc j = if j <= 1 then acc else fact (acc * j) (j - 1) in
      d := !d /. float_of_int (fact 1 c))
    rx.Ssa.Compiled.reactant_coeff;
  !d

let model_of ~ssa ~sys =
  let reactions, deps = Ssa.Gillespie.model_parts ssa in
  let n_reactions = Array.length reactions in
  if Ode.Deriv.n_reactions sys <> n_reactions then
    invalid_arg "Hybrid.Engine.model_of: SSA and ODE models disagree";
  {
    reactions;
    deps;
    sys;
    det_k = Array.map det_rate reactions;
    n_species = Ode.Deriv.dim sys;
    n_reactions;
  }

let compile_model env net =
  model_of
    ~ssa:(Ssa.Gillespie.compile_model env net)
    ~sys:(Ode.Deriv.compile env net)

(* ------------------------------------------------------------- arenas *)

type arena = {
  a_model : model;
  a_counts : int array;  (* integer state, discrete mode *)
  a_x : float array;  (* float state, mixed mode *)
  a_pe : Ssa.Prop_engine.t;
  a_props : float array;  (* per-reaction propensities, mixed mode *)
  a_masked : float array;  (* rate vector with the slow partition zeroed *)
  a_rk4 : Ode.Fixed.rk4_scratch;
  a_drain : float array;  (* per-species consumption rate, for the h bound *)
  a_mu : float array;  (* per-species net drift, for the h bound *)
  a_mu_slow : float array;  (* per-species slow-channel turnover, tau bound *)
  a_save : float array;  (* tau-leap rollback snapshot *)
  a_fires : int array;  (* per-reaction Poisson draws of one tau substep *)
  a_part : Partition.t;
}

let make_arena m =
  let n = m.n_species and nr = m.n_reactions in
  {
    a_model = m;
    a_counts = Array.make n 0;
    a_x = Array.make n 0.;
    a_pe = Ssa.Prop_engine.make m.reactions m.deps;
    a_props = Array.make nr 0.;
    a_masked = Array.make nr 0.;
    a_rk4 = Ode.Fixed.rk4_scratch n;
    a_drain = Array.make n 0.;
    a_mu = Array.make n 0.;
    a_mu_slow = Array.make n 0.;
    a_save = Array.make n 0.;
    a_fires = Array.make nr 0;
    a_part = Partition.make ~n_reactions:nr ~n_species:n;
  }

(* --------------------------------------------------------------- runs *)

exception Stop
exception Switch_mode

(* Full mid-run state at a cancellation point. Both mode loops guard at
   their top, before the iteration mutates anything or draws the RNG, so
   loop-top state is a state an uninterrupted run passes through; the
   masked fast-partition vector field is not captured because it is a
   pure function of the partition ([rebuild_fsys]) and is rebuilt on
   resume. *)
type checkpoint = {
  ck_mixed : bool;
  ck_counts : int array;  (* discrete-mode integer state *)
  ck_x : float array;  (* mixed-mode float state *)
  ck_t : float;
  ck_next_sample : float;
  ck_g_int : float;  (* accumulated ∫ a_slow dt *)
  ck_target : float;  (* Exp(1) target of the integrated-propensity draw *)
  ck_rng : int64;
  ck_engine : Ssa.Prop_engine.state;
  ck_fast : bool array;  (* partition: fast reactions *)
  ck_continuous : bool array;  (* partition: continuous species *)
  ck_n_fast : int;
  ck_slow : int array;
  ck_n_ssa : int;
  ck_n_tau_leaps : int;
  ck_n_tau_events : int;
  ck_n_ode : int;
  ck_n_repart : int;
  ck_n_switch : int;
  ck_n_rejected : int;
  ck_peak_fast : int;
  ck_loop_count : int;
      (* events into the current discrete stretch, or substeps into the
         current mixed stretch — drives the 512-event cancel poll and the
         repartition cadence *)
  ck_first : bool;  (* discrete mode: inside the run's first stretch *)
  ck_trace : Ode.Trace.t;
}

let run_result ?(env = Crn.Rates.default_env) ?(seed = 1L) ?sample_dt
    ?(pop_threshold = 1000.) ?(prop_threshold = 1000.)
    ?(repartition_every = 256) ?(epsilon = 0.05) ?(tau_switch = 8.)
    ?(max_events = 50_000_000) ?(refresh_every = 4096) ?model ?arena
    ?(cancel = Numeric.Cancel.never) ?resume ?on_cancel ~t1 net =
  if t1 <= 0. then invalid_arg "Hybrid.run: t1 must be positive";
  if pop_threshold <= 0. then
    invalid_arg "Hybrid.run: pop_threshold must be positive";
  if prop_threshold <= 0. then
    invalid_arg "Hybrid.run: prop_threshold must be positive";
  if repartition_every < 1 then
    invalid_arg "Hybrid.run: repartition_every must be >= 1";
  if epsilon <= 0. || epsilon >= 1. then
    invalid_arg "Hybrid.run: epsilon must be in (0, 1)";
  if tau_switch < 1. then invalid_arg "Hybrid.run: tau_switch must be >= 1";
  if refresh_every < 1 then
    invalid_arg "Hybrid.run: refresh_every must be >= 1";
  let clk = Ode.Trace.clock ~who:"Hybrid.run" ?sample_dt t1 in
  let rng = Rng.create seed in
  let model =
    match (arena, model) with
    | Some a, _ -> a.a_model
    | None, Some m -> m
    | None, None -> compile_model env net
  in
  let init = Crn.Network.initial_state net in
  if Array.length init <> model.n_species then
    invalid_arg "Hybrid.run: network does not match the compiled model";
  let ar = match arena with Some a -> a | None -> make_arena model in
  let reactions = model.reactions in
  let m = model.n_reactions and n = model.n_species in
  let counts = ar.a_counts and x = ar.a_x in
  Array.iteri (fun i v -> counts.(i) <- int_of_float (Float.round v)) init;
  let pe = ar.a_pe and part = ar.a_part and props = ar.a_props in
  Partition.reset part;
  let trace =
    match resume with
    | Some ck -> Ode.Trace.copy ck.ck_trace
    | None -> Ode.Trace.create ~names:(Crn.Network.species_names net)
  in
  let failure = ref None in
  (* counters *)
  let n_ssa = ref 0
  and n_tau_leaps = ref 0
  and n_tau_events = ref 0
  and n_ode = ref 0
  and n_repart = ref 0
  and n_switch = ref 0
  and n_rejected = ref 0
  and peak_fast = ref 0 in
  (* discrete checkpoints left before promotion is allowed again after a
     stability demotion (not checkpointed: it is a transient heuristic,
     and it is only ever nonzero while a spike is actively breaking the
     explicit gear — a regime the bitwise-resume guarantees do not
     cover) *)
  let promote_hold = ref 0 in
  let work () = !n_ssa + !n_tau_events + !n_ode in
  (* mixed-mode state *)
  let fsys = ref model.sys in
  let g_int = ref 0. (* accumulated ∫ a_slow dt toward [target] *)
  and target = ref infinity in
  let mixed = ref false in
  let snapshot () =
    if !mixed then Array.copy x else Array.map float_of_int counts
  in
  let record_due_samples () = Ode.Trace.record_due trace clk snapshot in
  let budget_check () =
    if work () >= max_events then begin
      failure := Some (Max_events_exceeded { max_events; t = clk.now });
      raise Stop
    end
  in
  let note_partition () =
    incr n_repart;
    if part.Partition.n_fast > !peak_fast then peak_fast := part.Partition.n_fast
  in
  let classify_discrete () =
    let changed =
      Partition.classify part ~reactions ~props:pe.Ssa.Prop_engine.props
        ~pop:(fun s -> float_of_int counts.(s))
        ~pop_threshold ~prop_threshold
    in
    note_partition ();
    changed
  in
  let compute_all_props () =
    for r = 0 to m - 1 do
      props.(r) <- Ssa.Compiled.propensity_f reactions.(r) x
    done
  in
  let classify_mixed () =
    compute_all_props ();
    let changed =
      Partition.classify part ~reactions ~props
        ~pop:(fun s -> x.(s))
        ~pop_threshold ~prop_threshold
    in
    note_partition ();
    changed
  in
  let rebuild_fsys () =
    for r = 0 to m - 1 do
      ar.a_masked.(r) <-
        (if part.Partition.fast.(r) then model.det_k.(r) else 0.)
    done;
    fsys := Ode.Deriv.with_k model.sys ar.a_masked
  in
  let to_mixed () =
    incr n_switch;
    for i = 0 to n - 1 do
      x.(i) <- float_of_int counts.(i)
    done;
    rebuild_fsys ();
    g_int := 0.;
    target := Rng.exponential rng 1.;
    mixed := true
  in
  let to_discrete () =
    incr n_switch;
    for i = 0 to n - 1 do
      counts.(i) <- max 0 (int_of_float (Float.round x.(i)))
    done;
    Ssa.Prop_engine.refresh pe counts;
    mixed := false
  in
  (* in-place classic RK4 slice of length [h] on the masked vector field;
     continuous species are clamped against tiny negative overshoot *)
  let rk4_slice h =
    Ode.Fixed.rk4_slice ar.a_rk4 !fsys x h;
    incr n_ode
  in
  (* [choose_h]'s stability bound is computed from the propensities at the
     slice's start; strongly autocatalytic fast kinetics (the relaxation
     clock's rail spikes, with their quadratic and cubic terms) can grow
     the local Lipschitz constant mid-slice and push explicit RK4 outside
     its stability region, leaving non-finite state that would poison the
     rest of the trajectory ([t] itself goes NaN through the propensity
     sum).  A slice that goes non-finite is rolled back and retried as a
     few finer sub-slices; if that fails too the fast partition is frozen
     for this slice and [demote_fast] is raised so the mixed loop can
     demote to the discrete gear, which resolves spikes natively instead
     of grinding them through subdivided explicit slices.  The
     single-slice path is numerically identical to a plain RK4 step,
     preserving the engine's bitwise guarantees. *)
  let rk4_save = Array.make n 0. in
  let demote_fast = ref false in
  let rk4 h =
    Array.blit x 0 rk4_save 0 n;
    (* a slice is rejected when it leaves the stability envelope: state
       that goes non-finite, but also state that merely {e overshoots} —
       [choose_h]'s bound holds per-species change near [epsilon], so a
       10x growth within one slice is necessarily the integrator blowing
       up, not kinetics.  Catching the finite overshoot matters as much
       as the NaN: an autocatalytic rail pumped to 1e12 by one bad slice
       stays finite, and once demoted those counts give astronomically
       large propensities — the discrete gear then burns the entire work
       budget shaving single molecules off a population that the real
       dynamics (cubic cap) would never have produced. *)
    let sane () =
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          (not (Float.is_finite x.(i)))
          || x.(i) > 10. *. (rk4_save.(i) +. 1.)
        then ok := false
      done;
      !ok
    in
    let rec attempt slices =
      let hs = h /. float_of_int slices in
      let i = ref 0 and ok = ref true in
      while !ok && !i < slices do
        rk4_slice hs;
        if slices > 1 then
          for s = 0 to n - 1 do
            if x.(s) < 0. then x.(s) <- 0.
          done;
        if not (sane ()) then ok := false;
        incr i
      done;
      if not !ok then begin
        incr n_rejected;
        demote_fast := true;
        Array.blit rk4_save 0 x 0 n;
        if slices < 8 then attempt (slices * 2)
      end
    in
    attempt 1
  in
  let clamp () =
    for s = 0 to n - 1 do
      if x.(s) < 0. then x.(s) <- 0.
    done
  in
  (* substep size: no continuous species may change by more than [epsilon]
     relatively under the fast net drift, and explicit RK4 must stay well
     inside its stability region against the fastest per-capita drain.
     Uses the propensities computed for this substep. *)
  let choose_h () =
    let drain = ar.a_drain and mu = ar.a_mu in
    Array.fill drain 0 n 0.;
    Array.fill mu 0 n 0.;
    for r = 0 to m - 1 do
      if part.Partition.fast.(r) then begin
        let v = props.(r) in
        if v > 0. then begin
          let rx = reactions.(r) in
          let sp = rx.Ssa.Compiled.reactant_species
          and co = rx.Ssa.Compiled.reactant_coeff in
          for i = 0 to Array.length sp - 1 do
            let s = sp.(i) in
            drain.(s) <- drain.(s) +. (v *. float_of_int co.(i))
          done;
          let ds = rx.Ssa.Compiled.delta_species
          and d = rx.Ssa.Compiled.delta in
          for i = 0 to Array.length ds - 1 do
            let s = ds.(i) in
            mu.(s) <- mu.(s) +. (v *. float_of_int d.(i))
          done
        end
      end
    done;
    let lam = ref 0. and h_acc = ref infinity in
    for s = 0 to n - 1 do
      if part.Partition.continuous.(s) then begin
        let xs = Float.max x.(s) 1. in
        if drain.(s) > 0. then lam := Float.max !lam (drain.(s) /. xs);
        let a = Float.abs mu.(s) in
        if a > 0. then h_acc := Float.min !h_acc (epsilon *. xs /. a)
      end
    done;
    let h_stab = if !lam > 0. then 0.8 /. !lam else infinity in
    let h = Float.min h_stab !h_acc in
    let h = Float.min h clk.every in
    Float.max h (1e-12 *. t1)
  in
  (* Cao-style bound on the slow channel for the tau gear: a leap of
     length h may not turn over more than an [epsilon] fraction of any
     species touched by slow reactions (floored at one molecule), so the
     Poisson draws cannot overshoot a reactant pool — without this, a
     burst reaction with huge propensity but a bounded reactant count
     (e.g. a phase-gated transfer draining its source) rejects every
     leap and degenerates into per-event integration *)
  let slow_h_bound () =
    let mu = ar.a_mu_slow in
    Array.fill mu 0 n 0.;
    let slow = part.Partition.slow in
    for i = 0 to Array.length slow - 1 do
      let r = slow.(i) in
      let v = props.(r) in
      if v > 0. then begin
        let rx = reactions.(r) in
        let ds = rx.Ssa.Compiled.delta_species
        and d = rx.Ssa.Compiled.delta in
        for j = 0 to Array.length ds - 1 do
          let s = ds.(j) in
          mu.(s) <- mu.(s) +. (v *. Float.abs (float_of_int d.(j)))
        done
      end
    done;
    let h = ref infinity in
    for s = 0 to n - 1 do
      if mu.(s) > 0. then
        h := Float.min !h (epsilon *. Float.max x.(s) 1. /. mu.(s))
    done;
    !h
  in
  let sum_slow () =
    let slow = part.Partition.slow in
    let a0 = ref 0. in
    for i = 0 to Array.length slow - 1 do
      a0 := !a0 +. props.(slow.(i))
    done;
    !a0
  in
  let recompute_slow () =
    let slow = part.Partition.slow in
    for i = 0 to Array.length slow - 1 do
      let r = slow.(i) in
      props.(r) <- Ssa.Compiled.propensity_f reactions.(r) x
    done
  in
  (* weighted pick among the slow reactions; [a0] is their fresh sum *)
  let pick_slow a0 u =
    let slow = part.Partition.slow in
    let tgt = u *. a0 in
    let acc = ref 0. and j = ref (-1) and i = ref 0 in
    let k = Array.length slow in
    while !j < 0 && !i < k do
      let r = slow.(!i) in
      acc := !acc +. props.(r);
      if !acc > tgt && props.(r) > 0. then j := r;
      incr i
    done;
    if !j >= 0 then !j
    else begin
      (* float drift stranded the target: last positive slow propensity *)
      let last = ref (-1) in
      for i = 0 to k - 1 do
        if props.(slow.(i)) > 0. then last := slow.(i)
      done;
      !last
    end
  in
  let can_fire r =
    let rx = reactions.(r) in
    let sp = rx.Ssa.Compiled.reactant_species
    and co = rx.Ssa.Compiled.reactant_coeff in
    let ok = ref true in
    for i = 0 to Array.length sp - 1 do
      if x.(sp.(i)) +. 1e-9 < float_of_int co.(i) then ok := false
    done;
    !ok
  in
  (* one exact-stochastic substep of length [h]: the slow channel fires by
     the integrated-propensity method while the fast partition advances in
     ODE slices between events.

     An infeasible slow firing (selected but blocked by [can_fire]) is
     normally a rare boundary artefact, but a stale partition can leave a
     reaction slow while its reactant pool is a {e fractional} continuous
     residue: mass action then reports a large positive propensity over a
     pool that can never cover a whole molecule, so every draw selects a
     reaction that can never fire and the loop degenerates into per-draw
     RK4 slices that only terminate through the work budget.  A run of
     [stall_limit] consecutive rejections therefore abandons the substep
     and raises [demote_fast]: the discrete gear computes propensities
     over integer counts, where an insufficient pool reads as zero
     propensity and the stall is impossible. *)
  let stall_limit = 64 in
  let slow_stall = ref 0 in
  let exact_substep h =
    let left = ref h in
    let continue_ = ref true in
    while !continue_ do
      budget_check ();
      let a0 = sum_slow () in
      if a0 <= 0. then begin
        if !left > 0. then rk4 !left;
        clamp ();
        clk.now <- clk.now +. !left;
        left := 0.;
        continue_ := false
      end
      else begin
        let dt_ev = (!target -. !g_int) /. a0 in
        if dt_ev > !left then begin
          g_int := !g_int +. (a0 *. !left);
          rk4 !left;
          clamp ();
          clk.now <- clk.now +. !left;
          left := 0.;
          continue_ := false
        end
        else begin
          if dt_ev > 0. then rk4 dt_ev;
          clamp ();
          clk.now <- clk.now +. dt_ev;
          left := !left -. dt_ev;
          record_due_samples ();
          let u = Rng.float rng in
          let j = pick_slow a0 u in
          if j >= 0 then
            if can_fire j then begin
              Ssa.Compiled.apply_f reactions.(j) x 1;
              incr n_ssa;
              slow_stall := 0
            end
            else begin
              incr n_rejected;
              incr slow_stall;
              if !slow_stall >= stall_limit then begin
                demote_fast := true;
                continue_ := false
              end
            end;
          g_int := 0.;
          target := Rng.exponential rng 1.;
          recompute_slow ()
        end
      end
    done;
    record_due_samples ()
  in
  (* one tau-leap substep: fire every slow reaction in bulk from
     Poisson(a_j h) draws while the fast partition advances by one RK4
     slice; halve and retry on a negative excursion, falling back to the
     exact substep when halving does not converge *)
  let tau_substep h0 =
    let h = ref h0 and attempts = ref 0 and accepted = ref false in
    while (not !accepted) && !attempts < 8 do
      incr attempts;
      Array.blit x 0 ar.a_save 0 n;
      let fired = ref 0 in
      let slow = part.Partition.slow in
      for i = 0 to Array.length slow - 1 do
        let r = slow.(i) in
        let mean = props.(r) *. !h in
        let kf = if mean <= 0. then 0 else Ssa.Tau_leap.poisson rng mean in
        ar.a_fires.(r) <- kf;
        fired := !fired + kf
      done;
      rk4 !h;
      for i = 0 to Array.length slow - 1 do
        let r = slow.(i) in
        if ar.a_fires.(r) > 0 then
          Ssa.Compiled.apply_f reactions.(r) x ar.a_fires.(r)
      done;
      let ok = ref true in
      for s = 0 to n - 1 do
        let v = x.(s) in
        if v < 0. then if v >= -1e-6 then x.(s) <- 0. else ok := false
      done;
      if !ok then begin
        accepted := true;
        clk.now <- clk.now +. !h;
        incr n_tau_leaps;
        n_tau_events := !n_tau_events + !fired;
        (* the bulk firing invalidates the running propensity integral *)
        g_int := 0.;
        target := Rng.exponential rng 1.;
        record_due_samples ()
      end
      else begin
        incr n_rejected;
        Array.blit ar.a_save 0 x 0 n;
        h := !h /. 2.
      end
    done;
    if not !accepted then exact_substep h0
  in
  (* ------------------------------------------------ discrete-mode loop *)
  (* Gillespie's loop on Gillespie's event (Ssa.Prop_engine.event) plus
     the checkpoint, which reads state but never mutates it —
     bitwise-identical trajectories while no reaction is promoted *)
  let first_entry = ref true in
  (* the per-stretch loop counter and the discrete 'first' latch live
     outside the mode functions so a checkpoint can capture them; a
     resumed run hands its restored values to the first mode invocation
     through [pending_resume] instead of resetting them *)
  let loop_count = ref 0 in
  let disc_first = ref false in
  let pending_resume = ref false in
  let run_discrete () =
    let events_here = loop_count in
    if !pending_resume then pending_resume := false
    else begin
      events_here := 0;
      disc_first := !first_entry;
      first_entry := false
    end;
    let first = !disc_first in
    while clk.now < t1 do
      budget_check ();
      if !events_here land 511 = 0 then Numeric.Cancel.guard cancel;
      if !events_here mod repartition_every = 0 && (!events_here > 0 || first)
      then begin
        let _changed = classify_discrete () in
        (* after a stability demotion, hold the discrete gear for a few
           checkpoints: the spike that broke the explicit integrator is
           usually still in flight and would be re-promoted instantly *)
        if !promote_hold > 0 then decr promote_hold
        else if part.Partition.n_fast > 0 then raise Switch_mode
      end;
      if
        not
          (Ssa.Prop_engine.event pe rng counts ~refresh_every clk
             ~sample:record_due_samples)
      then raise Stop;
      incr n_ssa;
      incr events_here
    done;
    raise Stop
  in
  (* --------------------------------------------------- mixed-mode loop *)
  let run_mixed () =
    let substeps_here = loop_count in
    if !pending_resume then pending_resume := false else substeps_here := 0;
    while true do
      budget_check ();
      Numeric.Cancel.guard cancel;
      if t1 -. clk.now <= 1e-12 *. Float.max t1 1. then begin
        clk.now <- t1;
        record_due_samples ();
        raise Stop
      end;
      if !substeps_here mod repartition_every = 0 then begin
        let changed = classify_mixed () in
        if part.Partition.n_fast = 0 then raise Switch_mode;
        if changed then rebuild_fsys ()
      end
      else compute_all_props ();
      incr substeps_here;
      let a0 = sum_slow () in
      let h = Float.min (choose_h ()) (t1 -. clk.now) in
      if a0 *. h > tau_switch then begin
        (* many slow events expected: leap, but first cap the leap so the
           Poisson draws cannot overdraw a small pool. If even the capped
           leap holds less than one expected event the channel is a spike
           (huge propensity, bounded pool): hand the full substep to the
           exact gear, which resolves each firing individually and only
           pays an ODE slice per actual event. *)
        let hs = Float.max (Float.min h (slow_h_bound ())) (1e-12 *. t1) in
        if a0 *. hs > 1. then tau_substep hs else exact_substep h
      end
      else exact_substep h;
      if !demote_fast then begin
        (* the mixed gear failed inside this substep — explicit RK4 lost
           stability, or the slow channel stalled on an infeasible
           reaction: demote and let exact SSA resolve it natively *)
        demote_fast := false;
        slow_stall := 0;
        promote_hold := 4;
        raise Switch_mode
      end
    done
  in
  (match resume with
  | None ->
      record_due_samples ();
      Ssa.Prop_engine.refresh pe counts
  | Some ck ->
      if Array.length ck.ck_counts <> n || Array.length ck.ck_x <> n then
        invalid_arg "Hybrid.run: checkpoint does not match the network";
      if Array.length ck.ck_fast <> m || Array.length ck.ck_continuous <> n
      then invalid_arg "Hybrid.run: checkpoint partition shape mismatch";
      Array.blit ck.ck_counts 0 counts 0 n;
      Array.blit ck.ck_x 0 x 0 n;
      clk.now <- ck.ck_t;
      clk.next <- ck.ck_next_sample;
      g_int := ck.ck_g_int;
      target := ck.ck_target;
      Rng.set_state rng ck.ck_rng;
      Ssa.Prop_engine.restore pe ck.ck_engine;
      Array.blit ck.ck_fast 0 part.Partition.fast 0 m;
      Array.blit ck.ck_continuous 0 part.Partition.continuous 0 n;
      part.Partition.n_fast <- ck.ck_n_fast;
      part.Partition.slow <- Array.copy ck.ck_slow;
      n_ssa := ck.ck_n_ssa;
      n_tau_leaps := ck.ck_n_tau_leaps;
      n_tau_events := ck.ck_n_tau_events;
      n_ode := ck.ck_n_ode;
      n_repart := ck.ck_n_repart;
      n_switch := ck.ck_n_switch;
      n_rejected := ck.ck_n_rejected;
      peak_fast := ck.ck_peak_fast;
      loop_count := ck.ck_loop_count;
      disc_first := ck.ck_first;
      first_entry := false;
      pending_resume := true;
      mixed := ck.ck_mixed;
      (* the masked vector field is a pure function of the partition *)
      if ck.ck_mixed then rebuild_fsys ());
  let capture () =
    {
      ck_mixed = !mixed;
      ck_counts = Array.copy counts;
      ck_x = Array.copy x;
      ck_t = clk.now;
      ck_next_sample = clk.next;
      ck_g_int = !g_int;
      ck_target = !target;
      ck_rng = Rng.state rng;
      ck_engine = Ssa.Prop_engine.capture pe;
      ck_fast = Array.copy part.Partition.fast;
      ck_continuous = Array.copy part.Partition.continuous;
      ck_n_fast = part.Partition.n_fast;
      ck_slow = Array.copy part.Partition.slow;
      ck_n_ssa = !n_ssa;
      ck_n_tau_leaps = !n_tau_leaps;
      ck_n_tau_events = !n_tau_events;
      ck_n_ode = !n_ode;
      ck_n_repart = !n_repart;
      ck_n_switch = !n_switch;
      ck_n_rejected = !n_rejected;
      ck_peak_fast = !peak_fast;
      ck_loop_count = !loop_count;
      ck_first = !disc_first;
      ck_trace = trace;
    }
  in
  (try
     while true do
       if !mixed then (try run_mixed () with Switch_mode -> to_discrete ())
       else try run_discrete () with Switch_mode -> to_mixed ()
     done
   with
  | Stop -> ()
  | Numeric.Cancel.Cancelled ->
      (match on_cancel with Some f -> f (capture ()) | None -> ());
      raise Numeric.Cancel.Cancelled);
  let stats =
    {
      n_ssa_events = !n_ssa;
      n_tau_leaps = !n_tau_leaps;
      n_tau_events = !n_tau_events;
      n_ode_steps = !n_ode;
      n_repartitions = !n_repart;
      n_mode_switches = !n_switch;
      n_rejected = !n_rejected;
      final_n_fast = part.Partition.n_fast;
      final_n_slow = model.n_reactions - part.Partition.n_fast;
      peak_n_fast = !peak_fast;
    }
  in
  match !failure with
  | Some err -> Stdlib.Error err
  | None ->
      Ok
        {
          trace;
          final = snapshot ();
          n_events = !n_ssa + !n_tau_events;
          stats;
        }

let run ?env ?seed ?sample_dt ?pop_threshold ?prop_threshold
    ?repartition_every ?epsilon ?tau_switch ?max_events ?refresh_every ?model
    ?arena ?cancel ?resume ?on_cancel ~t1 net =
  match
    run_result ?env ?seed ?sample_dt ?pop_threshold ?prop_threshold
      ?repartition_every ?epsilon ?tau_switch ?max_events ?refresh_every
      ?model ?arena ?cancel ?resume ?on_cancel ~t1 net
  with
  | Ok r -> r
  | Stdlib.Error err -> raise (Error err)
