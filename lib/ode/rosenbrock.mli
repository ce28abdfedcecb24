(** Adaptive second-order Rosenbrock (ROS2) semi-implicit integrator.

    L-stable with [gamma = 1 + 1/sqrt 2], so it remains stable on the
    stiff rate separations ([k_fast / k_slow >= 1e4]) where the explicit
    integrator's step size collapses. Each step factorizes
    [W = I - gamma h J] once (analytic Jacobian written in place by
    {!Deriv.jacobian_into}, W written from its pattern by
    {!Numeric.Lu.refactor_shifted}) and back-substitutes twice; the
    embedded first-order solution provides the error estimate. All
    per-step storage — Jacobian, LU workspace (which holds W), stage
    vectors — is allocated once per [integrate] call, and the Jacobian
    is reused across step-size rejections (the state has not changed,
    only [h]). A step whose candidate state or error estimate is not
    finite is rejected with the smallest step factor, so an overflowing
    system ends in a step-size underflow. *)

type stats = {
  steps : int;  (** accepted steps *)
  rejected : int;  (** rejected step attempts (error or singular W) *)
  factorizations : int;  (** LU factorizations of [W = I - gamma h J] *)
  jac_evals : int;  (** Jacobian constructions performed *)
  jac_reused : int;
      (** factorization setups that reused the cached Jacobian — the
          rebuilds saved by rejection reuse; equals [rejected] on a run
          that completes normally *)
}

type workspace
(** All per-integration storage (state copy, Jacobian, LU workspace,
    stage vectors), preallocatable so repeated integrations — sweep
    points, service requests — allocate nothing per run. Reuse is
    bitwise-invisible: every array is fully rewritten before it is read,
    and the Jacobian matrix is cleared at the start of each [integrate]
    so a workspace may even move between systems with different sparsity
    patterns. Not thread-safe — one workspace per domain. *)

val workspace : int -> workspace
(** [workspace n] preallocates for [n]-dimensional systems. Raises
    [Invalid_argument] if [n < 1]. *)

type checkpoint = {
  ck_t : float;
  ck_x : float array;
  ck_h : float;
  ck_steps : int;
  ck_rejected : int;
  ck_factorizations : int;
  ck_jac_evals : int;
  ck_jac_reused : int;
  ck_jac_fresh : bool;
}
(** Loop-top mid-run state. The Jacobian matrix is deliberately absent:
    it is a pure function of [ck_x], so when [ck_jac_fresh] is set the
    resume path rebuilds it from the restored state — bitwise the same
    matrix, and the stats counters are restored verbatim, so a resumed
    run is indistinguishable (trajectory and stats) from an
    uninterrupted one. *)

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
(** Same contract as {!Dopri5.integrate}, including [resume]/[on_cancel]
    checkpointing. Defaults: [rtol = 1e-4],
    [atol = 1e-7], [max_steps = 5_000_000] — looser than {!Dopri5}
    because the embedded first-order error estimate is conservative, and
    the clocked designs this integrator exists for only need phase-level
    accuracy (validated against {!Dopri5} in the test suite). [ws]
    supplies a preallocated {!workspace} (its dimension must equal the
    system's — [Invalid_argument] otherwise); without it one is
    allocated per call. *)
