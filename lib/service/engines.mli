(** The engine registry: ode, ssa, tau and hybrid, each wired in once.

    Every caller that runs an engine — the daemon's engine ops, its
    [ensemble] and [trace] ops, the in-process path [crnsim] takes, and
    the simulation-checkpoint codec — looks the engine up here instead
    of matching on its name, so they agree by construction. A fifth
    engine is one more {!entry} (and one more {!state} constructor with
    its codec). *)

type model = {
  net : Crn.Network.t;
  env : Crn.Rates.env;
  sys : Ode.Deriv.t;  (** the CSR ODE system *)
  ssa : Ssa.Gillespie.model;  (** the compiled SSA model *)
}
(** A network compiled for every engine under one rate environment —
    what a {!Model_cache} entry holds. *)

val compile : Crn.Rates.env -> Crn.Network.t -> model
(** Both compilers, straight from a built network (no cache key). *)

(** One engine's loop-top mid-run state. *)
type state =
  | Ode_ck of Ode.Driver.checkpoint
  | Ssa_ck of Ssa.Gillespie.checkpoint
  | Tau_ck of Ssa.Tau_leap.checkpoint
  | Hybrid_ck of Hybrid.Engine.checkpoint

type outcome = {
  final : Numeric.Vec.t;  (** the state at [t1] *)
  fields : (string * Json.t) list;
      (** the engine's own result fields, which follow ["final"] *)
  counters : (string * Json.t) list;
      (** work counters: the metrics block's ["extra"] *)
}

(** An engine configured by one request's knobs (or a checkpoint's). *)
type knobs = {
  seed : int64;  (** [0L] for the deterministic engine *)
  params : (string * float) list;
      (** the checkpoint params that rebuild these knobs via {!entry.restore} *)
  run :
    ?resume:state ->
    ?on_cancel:(state -> unit) ->
    ?on_sample:(float -> Numeric.Vec.t -> unit) ->
    cancel:Numeric.Cancel.t ->
    t1:float ->
    model ->
    outcome;
      (** One trajectory. [on_sample] receives the run's recorded trace,
          sample by sample — live for the ODE integrator, after the run
          for engines that own their sampling clock — including, on
          [resume], the samples recorded before the checkpoint.
          [on_cancel] receives the loop-top state when [cancel] fires. *)
}

(** The op that reads an engine's knobs: the engine's own op, [trace],
    or [ensemble]. The engine and trace ops read the same knobs, but
    for the ODE's [thin], which only a trace reads; the ensemble reads
    the hybrid engine's three partition knobs and nothing else. *)
type use = Run | Trace | Ensemble

type entry = {
  name : string;  (** the request's ["op"] / ["engine"] value *)
  tag : int;  (** the engine tag in the simulation-checkpoint format *)
  knobs : use -> Json.t -> knobs;
      (** Read and range-check the knobs the op reads against the
          engine's own bounds (raising {!Error.Rejected} with
          [bad_request]); the request's other fields are ignored. *)
  restore : seed:int64 -> (string -> float option) -> state -> knobs;
      (** The knobs a checkpoint's seed, params and state were written
          with. *)
  worker :
    (knobs -> cancel:Numeric.Cancel.t -> t1:float -> model -> unit ->
     int64 -> Numeric.Vec.t)
    option;
      (** The ensemble worker, for stochastic engines:
          [worker knobs ~cancel ~t1 model ()], given the [Ensemble]
          knobs, builds one domain's reusable arena and returns the
          trajectory for a split seed ({!Ssa.Ensemble.map_with}) as its
          final state. *)
  write : Binio.writer -> state -> unit;  (** the state's codec *)
  read : Binio.reader -> state;
}

val method_of : Json.t option -> Ode.Driver.method_
(** The ["method"] field: [dopri5], [rosenbrock] (the default), or an
    rk4 step size as a number or numeric string. *)

val all : entry list
(** [ode], [ssa], [tau], [hybrid], in checkpoint-tag order. *)

val names : string list
val find : string -> entry option
val of_tag : int -> entry option
val of_state : state -> entry

(**/**)

(* Sub-codecs exposed for the snapshot round-trip and torn-write suites. *)

val w_trace : Binio.writer -> Ode.Trace.t -> unit
val r_trace : Binio.reader -> Ode.Trace.t
