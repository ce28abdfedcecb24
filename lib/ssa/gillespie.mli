(** Gillespie's direct-method stochastic simulation algorithm, with
    incremental propensity maintenance.

    The paper validates designs with deterministic ODE simulation; real
    molecular systems are discrete and stochastic. This simulator runs the
    same networks over integer molecule counts to check that the constructs
    survive count-level noise (an extension experiment). Initial
    concentrations are interpreted as counts (rounded). Volume is taken as
    1, so deterministic and stochastic rate constants coincide for
    unimolecular reactions; bimolecular propensities use the standard
    combinatorial [k * n_a * n_b] / [k * n * (n-1) / 2] forms.

    The engine keeps propensities incrementally: after firing reaction
    [j], only the reactions in the dependency graph's affected set
    {!Dep_graph.affected} are recomputed (exactly — incremental values
    never differ from a full recompute), the total is carried by
    compensated accumulation with a periodic full rebuild, and the next
    reaction is found by a two-level (grouped partial-sum) search instead
    of a flat linear scan. *)

type result = {
  trace : Ode.Trace.t;  (** states sampled every [sample_dt] *)
  final : float array;  (** counts at [t1] *)
  n_events : int;  (** total reaction firings *)
}

type error =
  | Max_events_exceeded of { max_events : int; t : float }
      (** the event budget ran out at simulated time [t] *)

exception Error of error

val error_to_string : error -> string

type model
(** The immutable compilation product of one network under one rate
    environment: compiled reactions plus their dependency graph. Runs
    never mutate it, so a model may be shared by concurrent runs on
    several domains — the simulation service caches models keyed by
    network digest and replays them across requests. *)

val compile_model : Crn.Rates.env -> Crn.Network.t -> model

val model_parts : model -> Compiled.reaction array * Dep_graph.t
(** The compiled reactions and dependency graph inside a model — lets
    another engine (the hybrid simulator) build on a model compiled once
    here without recompiling the network. *)

type checkpoint = {
  ck_counts : int array;
  ck_t : float;
  ck_next_sample : float;
  ck_n_events : int;
  ck_rng : int64;  (** RNG stream state ({!Numeric.Rng.state}) *)
  ck_engine : Prop_engine.state;
  ck_trace : Ode.Trace.t;  (** samples recorded so far *)
}
(** Full mid-run state of a trajectory, captured at the top of the event
    loop when a cancellation fires. Passing it back as [?resume] (with
    identical [env]/[seed]/[sample_dt]/[max_events]/[refresh_every] and
    the same network) continues the run to a trajectory {e bitwise
    identical} to one that was never interrupted. *)

type arena
(** A per-worker simulation arena: one model plus the reusable mutable
    scratch of a run (integer state vector, incremental-propensity
    engine). Passing an arena to {!run_result} skips the per-run
    allocations (a run without one makes a fresh arena); the run refills
    the state from the network's initial state and fully rebuilds the
    engine first, so a reused arena produces bitwise the same trajectory
    as a fresh one. An arena is
    {e not} thread-safe — give each domain its own (see
    {!Ensemble.map_with}). *)

val make_arena : model -> arena

val run_result :
  ?env:Crn.Rates.env ->
  ?seed:int64 ->
  ?sample_dt:float ->
  ?max_events:int ->
  ?refresh_every:int ->
  ?model:model ->
  ?arena:arena ->
  ?cancel:Numeric.Cancel.t ->
  ?resume:checkpoint ->
  ?on_cancel:(checkpoint -> unit) ->
  t1:float ->
  Crn.Network.t ->
  (result, error) Stdlib.result
(** Simulate from 0 to [t1]. Defaults: [seed = 1L], [sample_dt = t1/500],
    [max_events = 50_000_000], [refresh_every = 4096] (full propensity
    rebuild cadence; lower values trade speed for tighter float-drift
    bounds — [1] recomputes everything every event, matching the naive
    direct method). [model] supplies a pre-compiled model (it must come
    from {!compile_model} on the same [env] and [net]); when absent the
    network is compiled per run. [arena] additionally reuses the run's
    mutable scratch (and takes precedence over [model]: the arena's own
    model is used); it must have been built over a model of the same
    network — [Invalid_argument] if the species counts disagree.
    [cancel] (default
    {!Numeric.Cancel.never}) is polled every 512 events and aborts the
    run with {!Numeric.Cancel.Cancelled}; trajectories are unaffected by
    polling (no extra RNG draws). [resume] restores a {!checkpoint}
    instead of starting from the network's initial state (the other
    parameters must equal the original run's for the trajectory to be
    bitwise-identical); [on_cancel] receives the loop-top checkpoint
    when [cancel] aborts the run, just before
    {!Numeric.Cancel.Cancelled} propagates. Returns [Error] instead of
    raising when the event budget is exhausted. *)

val run :
  ?env:Crn.Rates.env ->
  ?seed:int64 ->
  ?sample_dt:float ->
  ?max_events:int ->
  ?refresh_every:int ->
  ?model:model ->
  ?arena:arena ->
  ?cancel:Numeric.Cancel.t ->
  ?resume:checkpoint ->
  ?on_cancel:(checkpoint -> unit) ->
  t1:float ->
  Crn.Network.t ->
  result
(** Like {!run_result} but raises {!Error} on an exhausted event budget. *)
