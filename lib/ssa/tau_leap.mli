(** Explicit tau-leaping: approximate stochastic simulation that fires many
    reactions per step.

    The direct method simulates every reaction event; busy networks (the
    clock's feedback equilibrium churns thousands of events per time unit)
    make that expensive. Tau-leaping picks a step [tau] small enough that
    no propensity changes by more than a fraction [epsilon] (Cao, Gillespie
    & Petzold's species-based bound), samples each reaction's firing count
    from Poisson(a_j tau), and applies them in bulk — falling back to exact
    single steps when [tau] would be smaller than a few direct-method event
    times, and rejecting leaps that would drive any count negative. *)

type result = {
  trace : Ode.Trace.t;  (** states sampled every [sample_dt] *)
  final : float array;
  n_leaps : int;  (** bulk steps taken *)
  n_exact : int;  (** direct-method fallback events *)
}

type error =
  | Max_steps_exceeded of { max_steps : int; t : float }
      (** the step budget ran out at simulated time [t] *)

exception Error of error

val error_to_string : error -> string

type model
(** The immutable compilation product of one network under one rate
    environment: compiled reactions plus the highest-reactant-order
    table the tau bound uses. Runs never mutate it, so one model may be
    shared by concurrent runs on several domains. *)

val compile_model : Crn.Rates.env -> Crn.Network.t -> model

type arena
(** A per-worker arena: one model plus the stepper's reusable mutable
    scratch (state vector, propensities, tau-selection moments, the
    leap-rollback snapshot). A run without one makes a fresh arena.
    Every buffer is rewritten before it is read, so a reused arena
    produces bitwise the same trajectory as a fresh one. Not thread-safe — give each domain its own (see
    {!Ensemble.map_with}). *)

val make_arena : model -> arena

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
(** Full mid-run state, captured at the top-of-step cancellation guard.
    Resuming with it (same network and parameters) continues to a
    trajectory bitwise identical to an uninterrupted run: the stepper
    keeps no persistent float scratch across steps, so counts, clocks,
    counters and the RNG stream are the whole state. *)

val run_result :
  ?env:Crn.Rates.env ->
  ?seed:int64 ->
  ?sample_dt:float ->
  ?epsilon:float ->
  ?max_steps:int ->
  ?model:model ->
  ?arena:arena ->
  ?cancel:Numeric.Cancel.t ->
  ?resume:checkpoint ->
  ?on_cancel:(checkpoint -> unit) ->
  t1:float ->
  Crn.Network.t ->
  (result, error) Stdlib.result
(** Simulate from 0 to [t1]. Defaults: [seed = 1L], [sample_dt = t1/500],
    [epsilon = 0.03], [max_steps = 10_000_000]. [model] supplies a
    pre-compiled model (from {!compile_model} on the same [env] and
    [net]); [arena] additionally reuses the run's mutable scratch and
    takes precedence over [model] — [Invalid_argument] if the network's
    species count disagrees with the arena's model. [cancel] (default
    {!Numeric.Cancel.never}) is polled once per outer step and aborts
    the run with {!Numeric.Cancel.Cancelled}. [resume] restores a
    {!checkpoint} instead of starting fresh; [on_cancel] receives the
    loop-top checkpoint when [cancel] aborts the run. Returns [Error]
    instead of raising when the step budget is exhausted. *)

val run :
  ?env:Crn.Rates.env ->
  ?seed:int64 ->
  ?sample_dt:float ->
  ?epsilon:float ->
  ?max_steps:int ->
  ?model:model ->
  ?arena:arena ->
  ?cancel:Numeric.Cancel.t ->
  ?resume:checkpoint ->
  ?on_cancel:(checkpoint -> unit) ->
  t1:float ->
  Crn.Network.t ->
  result
(** Like {!run_result} but raises {!Error} on an exhausted step budget. *)

val poisson : Numeric.Rng.t -> float -> int
(** Sample Poisson(mean): inversion for small means, normal approximation
    (rounded, clamped at 0) for means above 30. Exposed for testing.
    Raises [Invalid_argument] on a negative mean. *)
