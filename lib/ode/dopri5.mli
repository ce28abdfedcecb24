(** Adaptive Dormand–Prince 5(4) explicit Runge–Kutta integrator.

    The workhorse integrator for the paper's ODE validations: embedded
    4th-order error estimate, PI-free standard step controller, FSAL
    (first-same-as-last) evaluation reuse. For very stiff rate separations
    ([k_fast/k_slow >= 1e5]) prefer {!Rosenbrock}. *)

type stats = { steps : int; rejected : int; evals : int }
(** [evals] counts RHS evaluations. FSAL makes each attempted step cost
    exactly six evaluations (stages 2–7; stage 1 is the previous step's
    stage 7, exchanged by pointer swap), so a completed run satisfies
    [evals = 1 + 6 * (steps + rejected)] — the [1] is the seed
    evaluation before the first step. *)

type workspace
(** All per-integration storage (state copy, the seven stage vectors,
    scratch), preallocatable so repeated integrations allocate nothing
    per run. Reuse is bitwise-invisible: every array is fully rewritten
    before it is read. Not thread-safe — one workspace per domain. *)

val workspace : int -> workspace
(** [workspace n] preallocates for [n]-dimensional systems. Raises
    [Invalid_argument] if [n < 1]. *)

type checkpoint = {
  ck_t : float;
  ck_x : float array;
  ck_h : float;
  ck_k1 : float array;
  ck_steps : int;
  ck_rejected : int;
  ck_evals : int;
}
(** Loop-top mid-run state. [ck_k1] carries the FSAL stage — the
    seventh-stage evaluation of the last accepted step, taken at the
    {e unclamped} new state. It cannot be recomputed from the clamped
    [ck_x], so it is saved; with it, a resumed run's trajectory is
    bitwise identical to an uninterrupted one. *)

val integrate :
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?max_steps:int ->
  ?cancel:Numeric.Cancel.t ->
  ?ws:workspace ->
  ?resume:checkpoint ->
  ?on_cancel:(checkpoint -> unit) ->
  t0:float ->
  t1:float ->
  on_sample:(float -> Numeric.Vec.t -> unit) ->
  Deriv.t ->
  Numeric.Vec.t ->
  Numeric.Vec.t * stats
(** Integrate from [t0] to [t1] starting at the given state. [on_sample]
    fires at the initial point and after every accepted step. Raises
    {!Solver_error.Error} if the step count is exhausted or the step
    size underflows (stiffness signal; a NaN step size counts, and a
    step whose candidate state or error estimate is not finite is
    rejected with the smallest step factor, so an overflowing system
    ends here too), and {!Numeric.Cancel.Cancelled}
    when [cancel] (polled once per attempted step, default
    {!Numeric.Cancel.never}) fires. Defaults: [rtol = 1e-6],
    [atol = 1e-9], [h0] chosen automatically, [max_steps = 10_000_000].
    [ws] supplies a preallocated {!workspace} (its dimension must equal
    the system's — [Invalid_argument] otherwise); without it one is
    allocated per call. [resume] restores a {!checkpoint} instead of
    starting at [x0] (the initial [on_sample] and FSAL seed evaluation
    are then suppressed); [on_cancel] receives the loop-top checkpoint
    when [cancel] aborts the run. *)
