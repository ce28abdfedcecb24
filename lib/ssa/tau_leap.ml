type result = {
  trace : Ode.Trace.t;
  final : float array;
  n_leaps : int;
  n_exact : int;
}

type error = Max_steps_exceeded of { max_steps : int; t : float }

exception Error of error

let error_to_string = function
  | Max_steps_exceeded { max_steps; t } ->
      Printf.sprintf "Tau_leap: max step count %d exceeded at t = %g"
        max_steps t

let poisson rng mean =
  if mean < 0. then invalid_arg "Tau_leap.poisson: negative mean";
  if mean = 0. then 0
  else if mean < 30. then begin
    (* Knuth inversion *)
    let limit = exp (-.mean) in
    let rec go k p =
      let p = p *. Numeric.Rng.float_pos rng in
      if p <= limit then k else go (k + 1) p
    in
    go 0 1.
  end
  else begin
    (* normal approximation with continuity correction *)
    let u1 = Numeric.Rng.float_pos rng and u2 = Numeric.Rng.float_pos rng in
    let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    max 0 (int_of_float (Float.round (mean +. (sqrt mean *. z))))
  end

(* The immutable per-network compilation product: compiled reactions
   plus the highest-reactant-order table the tau bound needs. Shared
   read-only across domains; all mutable run scratch lives in [arena]. *)
type model = {
  reactions : Compiled.reaction array;
  g : int array;
  n_species : int;
}

let compile_model env net =
  let reactions = Compiled.compile env net in
  let n_species = Crn.Network.n_species net in
  { reactions; g = Compiled.reactant_order_per_species n_species reactions;
    n_species }

(* Per-worker scratch: the state vector plus every hot-loop buffer the
   stepper needs (propensities, tau-selection moments, the leap-rollback
   snapshot). Each run fully rewrites all of them before reading, so a
   reused arena yields bitwise the same trajectory as a fresh one. *)
type arena = {
  a_model : model;
  a_counts : int array;
  a_props : float array;
  a_mu : float array;
  a_sigma2 : float array;
  a_saved : int array;
}

let make_arena model =
  let n = model.n_species and m = Array.length model.reactions in
  {
    a_model = model;
    a_counts = Array.make n 0;
    a_props = Array.make m 0.;
    a_mu = Array.make n 0.;
    a_sigma2 = Array.make n 0.;
    a_saved = Array.make n 0;
  }

(* Cao/Gillespie/Petzold species-based tau selection; [mu]/[sigma2] are
   caller-owned buffers zeroed here (same arithmetic as fresh arrays, so
   trajectories are bitwise-unchanged by buffer reuse) *)
let select_tau ~epsilon reactions props g counts ~mu ~sigma2 =
  let n = Array.length counts in
  Array.fill mu 0 n 0.;
  Array.fill sigma2 0 n 0.;
  Array.iteri
    (fun j r ->
      let a = props.(j) in
      if a > 0. then
        for i = 0 to Array.length r.Compiled.delta_species - 1 do
          let s = r.Compiled.delta_species.(i) in
          let v = float_of_int r.Compiled.delta.(i) in
          mu.(s) <- mu.(s) +. (v *. a);
          sigma2.(s) <- sigma2.(s) +. (v *. v *. a)
        done)
    reactions;
  let tau = ref infinity in
  for s = 0 to n - 1 do
    if mu.(s) <> 0. || sigma2.(s) <> 0. then begin
      let bound =
        Float.max (epsilon *. float_of_int counts.(s) /. float_of_int g.(s)) 1.
      in
      if mu.(s) <> 0. then tau := Float.min !tau (bound /. Float.abs mu.(s));
      if sigma2.(s) <> 0. then tau := Float.min !tau (bound *. bound /. sigma2.(s))
    end
  done;
  !tau

(* Loop-top mid-run state. Captured at the cancellation guard, which
   runs after [incr steps] but before any mutation or RNG draw of the
   step — so [ck_steps] is restored as [ck_steps - 1] and the loop-top
   increment replays it. The propensity/moment/rollback buffers are all
   fully rewritten before being read each step and need no capture. *)
type checkpoint = {
  ck_counts : int array;
  ck_t : float;
  ck_next_sample : float;
  ck_n_leaps : int;
  ck_n_exact : int;
  ck_steps : int;
  ck_rng : int64;
  ck_trace : Ode.Trace.t;
}

let run_result ?(env = Crn.Rates.default_env) ?(seed = 1L) ?sample_dt
    ?(epsilon = 0.03) ?(max_steps = 10_000_000) ?model ?arena
    ?(cancel = Numeric.Cancel.never) ?resume ?on_cancel ~t1 net =
  if t1 <= 0. then invalid_arg "Tau_leap.run: t1 must be positive";
  let clock = Ode.Trace.clock ~who:"Tau_leap.run" ?sample_dt t1 in
  let rng = Numeric.Rng.create seed in
  let arena =
    match (arena, model) with
    | Some a, _ -> a
    | None, Some m -> make_arena m
    | None, None -> make_arena (compile_model env net)
  in
  let model = arena.a_model in
  let init = Crn.Network.initial_state net in
  if Array.length init <> model.n_species then
    invalid_arg "Tau_leap.run: network does not match the compiled model";
  let reactions = model.reactions and g = model.g and n = model.n_species in
  (* refill the state vector in place; every other buffer is rewritten
     before it is read, so no previous run can leak in *)
  let counts = arena.a_counts in
  Array.iteri (fun i x -> counts.(i) <- int_of_float (Float.round x)) init;
  let trace =
    match resume with
    | Some ck -> Ode.Trace.copy ck.ck_trace
    | None -> Ode.Trace.create ~names:(Crn.Network.species_names net)
  in
  let snapshot () = Array.map float_of_int counts in
  let record_due () = Ode.Trace.record_due trace clock snapshot in
  let props = arena.a_props and mu = arena.a_mu and sigma2 = arena.a_sigma2
  and saved = arena.a_saved in
  let n_leaps = ref 0 and n_exact = ref 0 and steps = ref 0 in
  let failure = ref None in
  (match resume with
  | None -> record_due ()
  | Some ck ->
      if Array.length ck.ck_counts <> n then
        invalid_arg "Tau_leap.run: checkpoint does not match the network";
      Array.blit ck.ck_counts 0 counts 0 n;
      clock.now <- ck.ck_t;
      clock.next <- ck.ck_next_sample;
      n_leaps := ck.ck_n_leaps;
      n_exact := ck.ck_n_exact;
      (* the loop-top [incr steps] replays the step the capture aborted *)
      steps := ck.ck_steps - 1;
      Numeric.Rng.set_state rng ck.ck_rng);
  let capture () =
    {
      ck_counts = Array.copy counts;
      ck_t = clock.now;
      ck_next_sample = clock.next;
      ck_n_leaps = !n_leaps;
      ck_n_exact = !n_exact;
      ck_steps = !steps;
      ck_rng = Numeric.Rng.state rng;
      ck_trace = trace;
    }
  in
  (try
     while clock.now < t1 do
       incr steps;
       if !steps >= max_steps then begin
         failure := Some (Max_steps_exceeded { max_steps; t = clock.now });
         raise Exit
       end;
       Numeric.Cancel.guard cancel;
       Array.iteri (fun j r -> props.(j) <- Compiled.propensity r counts) reactions;
       let total = Array.fold_left ( +. ) 0. props in
       if total <= 0. then begin
         clock.now <- t1;
         record_due ();
         raise Exit
       end;
       let tau = select_tau ~epsilon reactions props g counts ~mu ~sigma2 in
       if tau < 10. /. total then begin
         (* leaping not worthwhile here: run a batch of exact
            (direct-method) events before re-evaluating tau, so the
            tau-selection overhead is amortized on stiff stretches *)
         let batch = ref 50 in
         let continue = ref true in
         while !continue && !batch > 0 && clock.now < t1 do
           Array.iteri
             (fun j r -> props.(j) <- Compiled.propensity r counts)
             reactions;
           let total = Array.fold_left ( +. ) 0. props in
           if total <= 0. then continue := false
           else begin
             let dt = Numeric.Rng.exponential rng total in
             clock.now <- Float.min t1 (clock.now +. dt);
             record_due ();
             if clock.now < t1 then begin
               let j = Numeric.Rng.pick_weighted rng props in
               Compiled.apply reactions.(j) counts 1;
               incr n_exact
             end
           end;
           decr batch
         done
       end
       else begin
         (* try a leap, halving tau until no count goes negative *)
         let rec attempt tau tries =
           if tries = 0 then begin
             (* degenerate: fall back to one exact event *)
             let dt = Numeric.Rng.exponential rng total in
             clock.now <- Float.min t1 (clock.now +. dt);
             record_due ();
             if clock.now < t1 then begin
               let j = Numeric.Rng.pick_weighted rng props in
               Compiled.apply reactions.(j) counts 1;
               incr n_exact
             end
           end
           else begin
             let tau = Float.min tau (t1 -. clock.now) in
             let fires = Array.map (fun a -> poisson rng (a *. tau)) props in
             Array.blit counts 0 saved 0 n;
             Array.iteri
               (fun j k -> if k > 0 then Compiled.apply reactions.(j) counts k)
               fires;
             if Array.exists (fun c -> c < 0) counts then begin
               Array.blit saved 0 counts 0 n;
               attempt (tau /. 2.) (tries - 1)
             end
             else begin
               clock.now <- clock.now +. tau;
               record_due ();
               incr n_leaps
             end
           end
         in
         attempt tau 8
       end
     done
   with
  | Exit -> ()
  | Numeric.Cancel.Cancelled ->
      (match on_cancel with Some f -> f (capture ()) | None -> ());
      raise Numeric.Cancel.Cancelled);
  match !failure with
  | Some err -> Stdlib.Error err
  | None ->
      Ok { trace; final = snapshot (); n_leaps = !n_leaps; n_exact = !n_exact }

let run ?env ?seed ?sample_dt ?epsilon ?max_steps ?model ?arena ?cancel
    ?resume ?on_cancel ~t1 net =
  match
    run_result ?env ?seed ?sample_dt ?epsilon ?max_steps ?model ?arena ?cancel
      ?resume ?on_cancel ~t1 net
  with
  | Ok r -> r
  | Stdlib.Error err -> raise (Error err)
