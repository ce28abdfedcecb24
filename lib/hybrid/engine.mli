(** Hybrid adaptive stochastic/deterministic simulation.

    The paper's constructions rest on a fast/slow rate dichotomy:
    high-rate clock-phase transfer reactions against slow computation
    reactions. Exact SSA spends almost all its events churning the fast
    high-population clock equilibria; this engine (in the spirit of
    Haseltine–Rawlings partitioned simulation) integrates the currently
    fast, currently populous subset of reactions as mass-action ODEs —
    the CSR {!Ode.Deriv} kernel restricted to the fast partition by rate
    re-baking — while the slow, low-count subset keeps firing exactly
    (integrated-propensity method over the ODE slices), with Poisson
    tau-leaping as the middle gear when a substep expects many slow
    events. The partition is re-evaluated at checkpoints from per-reaction
    propensity magnitude and per-species population thresholds, so it
    follows the clock: a phase species that empties demotes its reactions
    back to the exact subset.

    Two exactness anchors:
    - while {e no} reaction qualifies as fast, each step is
      {!Ssa.Prop_engine.event}, the event {!Ssa.Gillespie} runs, on the
      same sample clock — trajectories are {e bitwise identical} to
      {!Ssa.Gillespie} at the same seed by construction;
    - runs are a pure function of the seed (checkpoints consume no
      randomness), so {!Ssa.Ensemble} fan-outs are byte-identical for any
      jobs × chunk combination. *)

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

type error =
  | Max_events_exceeded of { max_events : int; t : float }
      (** the work budget (discrete events + ODE slices) ran out at [t] *)

exception Error of error

val error_to_string : error -> string

type model
(** The immutable compilation product: the SSA side's compiled reactions
    and dependency graph plus the ODE side's CSR system and the
    deterministic rate constants. Runs never mutate it — share one model
    across domains. *)

val compile_model : Crn.Rates.env -> Crn.Network.t -> model

val model_of : ssa:Ssa.Gillespie.model -> sys:Ode.Deriv.t -> model
(** Assemble a hybrid model from pieces compiled elsewhere — the service
    layer's model cache already holds both; this avoids recompiling the
    network. [Invalid_argument] if they disagree on the reaction count;
    both must come from the same network and rate environment. *)

type arena
(** Per-worker mutable scratch (state vectors, propensity tables, RK4
    and tau-leap buffers, the partition). Every buffer is rewritten
    before it is read, so a reused arena reproduces a fresh arena's
    trajectory bitwise. Not thread-safe — one per domain
    ({!Ssa.Ensemble.map_with}). *)

val make_arena : model -> arena

type checkpoint = {
  ck_mixed : bool;  (** which mode loop was interrupted *)
  ck_counts : int array;
  ck_x : float array;
  ck_t : float;
  ck_next_sample : float;
  ck_g_int : float;
  ck_target : float;
  ck_rng : int64;
  ck_engine : Ssa.Prop_engine.state;
  ck_fast : bool array;
  ck_continuous : bool array;
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
  ck_first : bool;
  ck_trace : Ode.Trace.t;
}
(** Full mid-run state — populations (integer and float), clocks, the
    dynamic partition, the integrated-propensity accumulator and its
    Exp(1) target, the propensity-engine scratch, the RNG stream, every
    statistics counter, and the recorded trace. The masked fast-partition
    vector field is rebuilt from the partition on resume (it is a pure
    function of it). Resuming with identical parameters continues to a
    trajectory bitwise identical to an uninterrupted run. *)

val run_result :
  ?env:Crn.Rates.env ->
  ?seed:int64 ->
  ?sample_dt:float ->
  ?pop_threshold:float ->
  ?prop_threshold:float ->
  ?repartition_every:int ->
  ?epsilon:float ->
  ?tau_switch:float ->
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
    [pop_threshold = 1000.] (a reaction may go fast only when every
    reactant population is at least this), [prop_threshold = 1000.]
    (… and its propensity is at least this, in events per time unit),
    [repartition_every = 256] (checkpoint cadence, in discrete events or
    mixed-mode substeps), [epsilon = 0.05] (max relative change of a
    continuous species per substep), [tau_switch = 8.] (expected slow
    events per substep above which the substep fires them in bulk),
    [max_events = 50_000_000] (work budget: discrete firings + ODE
    slices), [refresh_every = 4096] (discrete-mode full propensity
    rebuild cadence, as in {!Ssa.Gillespie}). [model]/[arena] reuse a
    compilation/scratch as in the other engines ([arena] takes
    precedence). [cancel] is polled at least every 512 events and aborts
    with {!Numeric.Cancel.Cancelled}; [on_cancel] then receives the
    loop-top {!checkpoint} before the exception propagates, and [resume]
    restores one instead of starting from the network's initial state.
    Returns [Error] when the work budget is exhausted.

    With the default thresholds, networks whose populations stay below
    1000 run entirely in discrete mode — bitwise-identical to
    {!Ssa.Gillespie} at the same seed. *)

val run :
  ?env:Crn.Rates.env ->
  ?seed:int64 ->
  ?sample_dt:float ->
  ?pop_threshold:float ->
  ?prop_threshold:float ->
  ?repartition_every:int ->
  ?epsilon:float ->
  ?tau_switch:float ->
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
(** Like {!run_result} but raises {!Error} on an exhausted work budget. *)
