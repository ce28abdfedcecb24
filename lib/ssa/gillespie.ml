(* Gillespie direct method on the shared incremental-propensity engine
   (Prop_engine): after each event only the dependency graph's affected
   propensities are recomputed, the total is carried by compensated
   accumulation with a periodic full rebuild, and selection is the
   two-level grouped search. The engine lives in its own module so the
   hybrid simulator's exact-stochastic mode can run the identical
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

let make_engine (model : model) = Prop_engine.make model.reactions model.deps
let total = Prop_engine.total
let refresh = Prop_engine.refresh
let update = Prop_engine.update
let select = Prop_engine.select

(* A worker arena bundles the model with the per-run mutable scratch —
   the integer state vector and the incremental-propensity engine.
   [run_result ?arena] refills the counts from the network's initial
   state and [refresh]es the engine before the event loop touches either,
   so a reused arena yields bitwise the same trajectory as a fresh one:
   the pattern for ensemble fan-outs is compile the model once, give
   each domain one arena ([Ensemble.map_with]), and run every trajectory
   that lands on that domain through it. *)
type arena = { a_model : model; a_counts : int array; a_engine : Prop_engine.t }

let make_arena model =
  {
    a_model = model;
    a_counts = Array.make model.n_species 0;
    a_engine = make_engine model;
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

(* replay a trace into fresh storage so resuming cannot alias (and
   mutate) the checkpoint's copy *)
let copy_trace tr =
  let fresh = Ode.Trace.create ~names:(Ode.Trace.names tr) in
  let times = Ode.Trace.times tr in
  Array.iteri
    (fun i t -> Ode.Trace.record fresh t (Ode.Trace.state_at_index tr i))
    times;
  fresh

let run_result ?(env = Crn.Rates.default_env) ?(seed = 1L) ?sample_dt
    ?(max_events = 50_000_000) ?(refresh_every = 4096) ?model ?arena
    ?(cancel = Numeric.Cancel.never) ?resume ?on_cancel ~t1 net =
  if t1 <= 0. then invalid_arg "Gillespie.run: t1 must be positive";
  if refresh_every < 1 then
    invalid_arg "Gillespie.run: refresh_every must be >= 1";
  let sample_dt =
    match sample_dt with
    | Some dt when dt > 0. -> dt
    | Some _ -> invalid_arg "Gillespie.run: sample_dt must be positive"
    | None -> t1 /. 500.
  in
  let rng = Numeric.Rng.create seed in
  let model =
    match (arena, model) with
    | Some a, _ -> a.a_model
    | None, Some m -> m
    | None, None -> compile_model env net
  in
  let init = Crn.Network.initial_state net in
  if Array.length init <> model.n_species then
    invalid_arg "Gillespie.run: network does not match the compiled model";
  let reactions = model.reactions in
  (* with an arena, refill its state vector in place — the engine is
     fully rebuilt by [refresh] below, so nothing from a previous run
     can leak into this trajectory *)
  let counts =
    match arena with
    | Some a ->
        let c = a.a_counts in
        for i = 0 to Array.length c - 1 do
          c.(i) <- int_of_float (Float.round init.(i))
        done;
        c
    | None -> Array.map (fun x -> int_of_float (Float.round x)) init
  in
  let trace =
    match resume with
    | Some ck -> copy_trace ck.ck_trace
    | None -> Ode.Trace.create ~names:(Crn.Network.species_names net)
  in
  let snapshot () = Array.map float_of_int counts in
  let e =
    match arena with Some a -> a.a_engine | None -> make_engine model
  in
  let t = ref 0. in
  let next_sample = ref 0. in
  let n_events = ref 0 in
  let failure = ref None in
  let record_due_samples () =
    while !next_sample <= !t && !next_sample <= t1 +. 1e-12 do
      Ode.Trace.record trace !next_sample (snapshot ());
      next_sample := !next_sample +. sample_dt
    done
  in
  (* a fresh run records t=0 samples and rebuilds the engine; a resumed
     run restores every piece of loop-top state instead — both paths
     enter the loop in a state an uninterrupted run has actually been
     in, which is what makes resumption bitwise *)
  (match resume with
  | None ->
      record_due_samples ();
      refresh e counts
  | Some ck ->
      if Array.length ck.ck_counts <> model.n_species then
        invalid_arg "Gillespie.run: checkpoint does not match the network";
      Array.blit ck.ck_counts 0 counts 0 model.n_species;
      t := ck.ck_t;
      next_sample := ck.ck_next_sample;
      n_events := ck.ck_n_events;
      Numeric.Rng.set_state rng ck.ck_rng;
      Prop_engine.restore e ck.ck_engine);
  let capture () =
    {
      ck_counts = Array.copy counts;
      ck_t = !t;
      ck_next_sample = !next_sample;
      ck_n_events = !n_events;
      ck_rng = Numeric.Rng.state rng;
      ck_engine = Prop_engine.capture e;
      ck_trace = trace;
    }
  in
  (try
     while !t < t1 do
       if !n_events >= max_events then begin
         failure := Some (Max_events_exceeded { max_events; t = !t });
         raise Exit
       end;
       (* deadline poll, amortized over 512 events so the hot loop stays
          branch-cheap when no cancellation is armed *)
       if !n_events land 511 = 0 then Numeric.Cancel.guard cancel;
       if e.Prop_engine.since_refresh >= refresh_every then refresh e counts;
       if total e <= 0. then begin
         (* the compensated total has decayed to zero (or drifted): rebuild
            before declaring the system dead *)
         refresh e counts;
         if total e <= 0. then begin
           (* no reaction can fire: hold state to the end *)
           t := t1;
           record_due_samples ();
           raise Exit
         end
       end;
       let dt = Numeric.Rng.exponential rng (total e) in
       t := !t +. dt;
       if !t > t1 then begin
         t := t1;
         record_due_samples ();
         raise Exit
       end;
       record_due_samples ();
       let u = Numeric.Rng.float rng in
       let j = select e counts u in
       if j < 0 then begin
         t := t1;
         record_due_samples ();
         raise Exit
       end;
       Compiled.apply reactions.(j) counts 1;
       update e counts j;
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

let mean_final ?(env = Crn.Rates.default_env) ?(runs = 20) ?jobs ?(seed = 42L)
    ~t1 net species =
  if runs < 1 then invalid_arg "Gillespie.mean_final: runs must be >= 1";
  let idx =
    match Crn.Network.find_species net species with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Gillespie.mean_final: unknown species %S" species)
  in
  (* compile once, share the immutable model across domains; each worker
     owns one arena reused by every trajectory scheduled onto it *)
  let model = compile_model env net in
  let xs =
    Ensemble.map_with ?jobs ~seed
      ~init_worker:(fun () -> make_arena model)
      ~runs
      (fun arena _ s ->
        let { final; _ } = run ~seed:s ~arena ~t1 net in
        final.(idx))
  in
  (Numeric.Stats.mean xs, Numeric.Stats.stddev xs)
