(* Gillespie direct method on the shared incremental-propensity engine
   (Prop_engine): after each event only the dependency graph's affected
   propensities are recomputed, the total is carried by compensated
   accumulation with a periodic full rebuild, and selection is the
   two-level grouped search. The event itself is Prop_engine.event, so
   the hybrid simulator's exact-stochastic mode runs the identical
   arithmetic (bitwise-equal trajectories at a fixed seed). *)

type result = { trace : Ode.Trace.t; final : float array; n_events : int }

type error = Max_events_exceeded of { max_events : int; t : float }

exception Error of error

let error_to_string = function
  | Max_events_exceeded { max_events; t } ->
      Printf.sprintf "Gillespie: max event count %d exceeded at t = %g"
        max_events t

let compile = Compiled.compile

(* A model is the immutable per-network compilation product — the
   compiled reactions and their dependency graph. Runs only read it, so
   one model may be shared by concurrent runs on several domains (the
   service layer's compiled-model cache does exactly that); all mutable
   run state lives in the per-run engine. *)
type model = {
  reactions : Compiled.reaction array;
  deps : Dep_graph.t;
  n_species : int;
}

let compile_model env net =
  let reactions = compile env net in
  let n_species = Crn.Network.n_species net in
  { reactions; deps = Dep_graph.build reactions ~n_species; n_species }

let model_parts m = (m.reactions, m.deps)

(* A worker arena bundles the model with the per-run mutable scratch —
   the integer state vector and the incremental-propensity engine.
   [run_result] refills the counts from the network's initial state and
   [refresh]es the engine before the event loop touches either, so a
   reused arena yields bitwise the same trajectory as a fresh one: the
   pattern for ensemble fan-outs is compile the model once, give each
   domain one arena ([Ensemble.map_with]), and run every trajectory that
   lands on that domain through it. A run without an arena makes a
   fresh one. *)
type arena = { a_model : model; a_counts : int array; a_engine : Prop_engine.t }

let make_arena model =
  {
    a_model = model;
    a_counts = Array.make model.n_species 0;
    a_engine = Prop_engine.make model.reactions model.deps;
  }

(* --------------------------------------------------------------- runs *)

(* Full mid-run state, captured at the top of the event loop. The
   cancellation guard runs before any per-iteration mutation or RNG
   draw, so loop-top state is exactly the state an uninterrupted run
   would have had at the same event count — restoring it and re-entering
   the loop continues the trajectory bitwise. *)
type checkpoint = {
  ck_counts : int array;
  ck_t : float;
  ck_next_sample : float;
  ck_n_events : int;
  ck_rng : int64;
  ck_engine : Prop_engine.state;
  ck_trace : Ode.Trace.t;
}

let run_result ?(env = Crn.Rates.default_env) ?(seed = 1L) ?sample_dt
    ?(max_events = 50_000_000) ?(refresh_every = 4096) ?model ?arena
    ?(cancel = Numeric.Cancel.never) ?resume ?on_cancel ~t1 net =
  if t1 <= 0. then invalid_arg "Gillespie.run: t1 must be positive";
  if refresh_every < 1 then
    invalid_arg "Gillespie.run: refresh_every must be >= 1";
  let clock = Ode.Trace.clock ~who:"Gillespie.run" ?sample_dt t1 in
  let rng = Numeric.Rng.create seed in
  let arena =
    match (arena, model) with
    | Some a, _ -> a
    | None, Some m -> make_arena m
    | None, None -> make_arena (compile_model env net)
  in
  let init = Crn.Network.initial_state net in
  if Array.length init <> arena.a_model.n_species then
    invalid_arg "Gillespie.run: network does not match the compiled model";
  (* refill the state vector in place — the engine is fully rebuilt by
     [refresh] below, so nothing from a previous run can leak into this
     trajectory *)
  let counts = arena.a_counts and e = arena.a_engine in
  Array.iteri (fun i x -> counts.(i) <- int_of_float (Float.round x)) init;
  let trace =
    match resume with
    | Some ck -> Ode.Trace.copy ck.ck_trace
    | None -> Ode.Trace.create ~names:(Crn.Network.species_names net)
  in
  let snapshot () = Array.map float_of_int counts in
  let sample () = Ode.Trace.record_due trace clock snapshot in
  let n_events = ref 0 in
  let failure = ref None in
  (* a fresh run records t=0 samples and rebuilds the engine; a resumed
     run restores every piece of loop-top state instead — both paths
     enter the loop in a state an uninterrupted run has actually been
     in, which is what makes resumption bitwise *)
  (match resume with
  | None ->
      sample ();
      Prop_engine.refresh e counts
  | Some ck ->
      if Array.length ck.ck_counts <> Array.length counts then
        invalid_arg "Gillespie.run: checkpoint does not match the network";
      Array.blit ck.ck_counts 0 counts 0 (Array.length counts);
      clock.now <- ck.ck_t;
      clock.next <- ck.ck_next_sample;
      n_events := ck.ck_n_events;
      Numeric.Rng.set_state rng ck.ck_rng;
      Prop_engine.restore e ck.ck_engine);
  let capture () =
    {
      ck_counts = Array.copy counts;
      ck_t = clock.now;
      ck_next_sample = clock.next;
      ck_n_events = !n_events;
      ck_rng = Numeric.Rng.state rng;
      ck_engine = Prop_engine.capture e;
      ck_trace = trace;
    }
  in
  (try
     while clock.now < t1 do
       if !n_events >= max_events then begin
         failure := Some (Max_events_exceeded { max_events; t = clock.now });
         raise Exit
       end;
       (* deadline poll, amortized over 512 events so the hot loop stays
          branch-cheap when no cancellation is armed *)
       if !n_events land 511 = 0 then Numeric.Cancel.guard cancel;
       if not (Prop_engine.event e rng counts ~refresh_every clock ~sample)
       then raise Exit;
       incr n_events
     done
   with
  | Exit -> ()
  | Numeric.Cancel.Cancelled ->
      (* the guard fired at the loop top, before this iteration touched
         any state — capture is loop-top-exact *)
      (match on_cancel with Some f -> f (capture ()) | None -> ());
      raise Numeric.Cancel.Cancelled);
  match !failure with
  | Some err -> Stdlib.Error err
  | None -> Ok { trace; final = snapshot (); n_events = !n_events }

let run ?env ?seed ?sample_dt ?max_events ?refresh_every ?model ?arena ?cancel
    ?resume ?on_cancel ~t1 net =
  match
    run_result ?env ?seed ?sample_dt ?max_events ?refresh_every ?model ?arena
      ?cancel ?resume ?on_cancel ~t1 net
  with
  | Ok r -> r
  | Stdlib.Error err -> raise (Error err)
