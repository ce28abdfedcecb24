(** Fixed-step explicit integrators (forward Euler and classic RK4).

    Mainly reference implementations: tests cross-check the adaptive
    integrators against RK4 with a tiny step, and the benchmark harness uses
    them to measure raw step throughput. *)

val euler_step : Deriv.t -> float -> Numeric.Vec.t -> float -> Numeric.Vec.t
(** [euler_step sys t x h] is the state after one explicit Euler step. *)

val rk4_step : Deriv.t -> float -> Numeric.Vec.t -> float -> Numeric.Vec.t
(** One classic Runge–Kutta-4 step: {!rk4_slice} on a copy of the
    state. *)

type rk4_scratch
(** Stage buffers for {!rk4_slice}, for one system dimension. *)

val rk4_scratch : int -> rk4_scratch

val rk4_slice : rk4_scratch -> Deriv.t -> Numeric.Vec.t -> float -> unit
(** [rk4_slice s sys x h] advances [x] in place by one classic RK4 step
    of length [h], using only [s] as scratch (no allocation). *)

type checkpoint = { ck_t : float; ck_x : float array }
(** Loop-top mid-run state. The stepper keeps nothing between steps, so
    time and state fully determine the rest of the trajectory; resuming
    continues bitwise-identically to an uninterrupted run. *)

val integrate :
  ?cancel:Numeric.Cancel.t ->
  ?resume:checkpoint ->
  ?on_cancel:(checkpoint -> unit) ->
  step:(Deriv.t -> float -> Numeric.Vec.t -> float -> Numeric.Vec.t) ->
  h:float ->
  t0:float ->
  t1:float ->
  on_sample:(float -> Numeric.Vec.t -> unit) ->
  Deriv.t ->
  Numeric.Vec.t ->
  Numeric.Vec.t
(** Repeatedly apply a step function from [t0] to [t1] (final partial step
    shortened to land exactly on [t1]); [on_sample] fires at every step
    including the initial state. Negative round-off undershoots are clamped
    to zero. Returns the final state. Raises [Invalid_argument] if
    [h <= 0.] or [t1 < t0]. [resume] restores a {!checkpoint} instead of
    starting at [x0] (the initial [on_sample] is then suppressed — the
    resumed run continues the sample stream, it does not restart it);
    [on_cancel] receives the loop-top checkpoint when [cancel] aborts. *)
