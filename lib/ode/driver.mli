(** Top-level simulation driver.

    Wraps network compilation, integrator choice, and timed injections
    (instantaneous additions of a quantity of some species — how the
    sequential-design experiments present inputs to counters and filters),
    and records the trajectory into a {!Trace.t}. *)

type method_ =
  | Dopri5  (** adaptive explicit, the default *)
  | Rosenbrock  (** semi-implicit, for stiff rate separations *)
  | Rk4 of float  (** fixed-step reference, with the given step size *)

type injection = { at : float; species : string; amount : float }
(** At time [at], add [amount] to [species] (a molecular event such as an
    input arriving). *)

(** [rtol]/[atol] default per method: 1e-6/1e-9 for {!Dopri5},
    1e-4/1e-7 for {!Rosenbrock} (whose embedded error estimate is
    conservative). *)

type workspace
(** Reusable integrator scratch for repeated driver calls on systems of
    one dimension (sweep points, service requests): holds the
    {!Dopri5}/{!Rosenbrock} workspaces, built lazily per method on first
    use. Reuse is bitwise-invisible in results. Not thread-safe — one
    workspace per domain (see {!Sweep.final_states}). *)

val workspace : n:int -> workspace
(** [workspace ~n] prepares scratch for [n]-species systems. Raises
    [Invalid_argument] if [n < 1]. *)

val simulate :
  ?method_:method_ ->
  ?rtol:float ->
  ?atol:float ->
  ?env:Crn.Rates.env ->
  ?injections:injection list ->
  ?sys:Deriv.t ->
  ?ws:workspace ->
  ?cancel:Numeric.Cancel.t ->
  ?thin:int ->
  t1:float ->
  Crn.Network.t ->
  Trace.t
(** Simulate from time [0.] to [t1], starting from the network's initial
    state. Injections are applied in time order (those at or after [t1] are
    ignored); the trace records both the pre- and post-injection states.
    [thin] (default 1) records only every n-th accepted integrator step —
    stiff clocked designs take hundreds of thousands of steps and the
    analysis layers interpolate anyway; segment boundaries are always
    recorded. [sys] supplies an already-compiled model (it must come from
    [Deriv.compile env net] for the same [env] and [net] — the simulation
    service's compiled-model cache uses this to skip recompilation);
    [ws] supplies a reusable integrator {!workspace} (its dimension must
    match the system's — [Invalid_argument] otherwise); [cancel]
    (default {!Numeric.Cancel.never}) is polled each integrator step and
    aborts the run with {!Numeric.Cancel.Cancelled}. Raises
    [Invalid_argument] for an unknown injection species, a negative
    injection time, or [thin < 1]. *)

(** Integrator-specific mid-run state, wrapped so a {!checkpoint} can
    name which method it belongs to. *)
type method_state =
  | Ck_dopri5 of Dopri5.checkpoint
  | Ck_rosenbrock of Rosenbrock.checkpoint
  | Ck_fixed of Fixed.checkpoint

type checkpoint = {
  ck_method : method_state;
  ck_countdown : int;  (** thinning countdown at the capture point *)
  ck_trace : Trace.t;  (** everything recorded so far *)
}
(** Mid-run driver state. Holds only the dynamic part — the caller must
    resume with the same network, environment, method, tolerances and
    [thin] for the continuation to be bitwise identical to an
    uninterrupted run. *)

(** The integrator's own work counters for one {!run}. *)
type work =
  | Dopri5_work of Dopri5.stats
  | Rosenbrock_work of Rosenbrock.stats
  | Fixed_work of { steps : int }  (** accepted RK4 steps *)

val run :
  ?method_:method_ ->
  ?rtol:float ->
  ?atol:float ->
  ?env:Crn.Rates.env ->
  ?injections:injection list ->
  ?sys:Deriv.t ->
  ?ws:workspace ->
  ?cancel:Numeric.Cancel.t ->
  ?thin:int ->
  ?resume:checkpoint ->
  ?on_cancel:(checkpoint -> unit) ->
  ?trace:Trace.t ->
  ?on_sample:(float -> Numeric.Vec.t -> unit) ->
  t1:float ->
  Crn.Network.t ->
  Numeric.Vec.t * work
(** The one integration loop behind {!simulate} and {!final_state}: from
    [0.] to [t1], one integrator segment between consecutive injection
    times and one after the last; returns the final state and the
    integrator's work counters summed over the segments. The recorded
    samples — the initial state, the post-injection state at each
    injection, every [thin]-th accepted step in between, and the final
    state when thinning dropped it; on [resume], first the checkpoint's
    own recorded samples — go to [trace] and to [on_sample] as they are
    produced, so a consumer can stream them while the integrator runs.
    [on_cancel] receives the loop-top {!checkpoint} when [cancel] aborts
    the run (the {!Numeric.Cancel.Cancelled} exception still propagates);
    it carries [trace] (an empty one when absent). [resume] restores
    one, continuing the trace and thinning stream exactly where the
    capture left off. Raises [Invalid_argument] as {!simulate} does,
    for [thin < 1], for a checkpoint of another method, and for
    [resume] or [on_cancel] on a run with injections before [t1] (a
    checkpoint resumes a single segment). *)

val final_state :
  ?method_:method_ ->
  ?rtol:float ->
  ?atol:float ->
  ?env:Crn.Rates.env ->
  ?injections:injection list ->
  ?sys:Deriv.t ->
  ?ws:workspace ->
  ?cancel:Numeric.Cancel.t ->
  t1:float ->
  Crn.Network.t ->
  Numeric.Vec.t
(** As {!simulate} but returning only the final state (cheaper: the
    trajectory is not recorded). *)
