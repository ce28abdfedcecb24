(** Incremental-propensity engine shared by the exact-SSA loops.

    One engine holds the from-scratch-correct propensity table of a
    compiled network plus the grouped partial sums and compensated total
    that make event selection O(sqrt R). {!event} is the one
    direct-method step: {!Gillespie} runs every event through it, and so
    does the hybrid engine ({!Hybrid.Engine}) whenever its dynamic
    partition leaves every reaction in the exact-stochastic subset —
    which makes the hybrid trajectory {e bitwise identical} to pure
    Gillespie, by construction, on networks that never cross the
    population threshold.

    The record is exposed transparently because the hybrid engine's
    partition reads [props] directly; treat it as owned by this module
    everywhere else. Invariants:

    - [props.(i)] always equals the from-scratch propensity of reaction
      [i] (affected entries are recomputed exactly after each firing,
      never patched incrementally);
    - [acc.(0)] is the running total maintained by Kahan-compensated
      accumulation of exact deltas, [acc.(1)] the compensation term;
      both are rebuilt from scratch by {!refresh};
    - [group_sum.(g)] is the partial sum of group [g]'s propensities,
      enabling the two-level (group, then in-group) selection search. *)

type t = {
  reactions : Compiled.reaction array;
  deps : Dep_graph.t;
  props : float array;
  group_sum : float array;
  group_size : int;
  n_groups : int;
  acc : float array;  (** [acc.(0)] total, [acc.(1)] Kahan compensation *)
  mutable since_refresh : int;  (** incremental updates since last rebuild *)
}

type state = {
  s_props : float array;
  s_group_sum : float array;
  s_acc : float array;
  s_since_refresh : int;
}
(** A value snapshot of the engine's mutable scratch, for
    checkpoint/resume. Restoring a captured state onto an engine built
    from the same compiled network makes subsequent selections bitwise
    identical to the original run — including the Kahan compensation
    term and the refresh countdown, both of which affect arithmetic. *)

val capture : t -> state
(** Copy the mutable scratch (propensities, group sums, compensated
    total, [since_refresh]) into an immutable snapshot. *)

val restore : t -> state -> unit
(** Overwrite the engine's scratch with a captured snapshot. Raises
    [Invalid_argument] when the shapes disagree (state from a different
    network). *)

val make : Compiled.reaction array -> Dep_graph.t -> t
(** Engine over a compiled reaction set and its dependency graph. All
    scratch starts zeroed; call {!refresh} before the first selection. *)

val total : t -> float
(** The compensated running total of all propensities. *)

val refresh : t -> int array -> unit
(** Full rebuild from the state vector: every propensity, the group
    partial sums, the total; resets [since_refresh]. *)

val update : t -> int array -> int -> unit
(** [update e counts j]: after firing reaction [j] once, recompute
    exactly the propensities in [j]'s affected set and fold their deltas
    into the group sums and the compensated total. *)

val select : t -> int array -> float -> int
(** [select e counts u] picks the reaction at cumulative weight
    [u * total e] by the two-level search ([u] uniform in [0,1)). On a
    float-drift miss it rebuilds once and re-searches with the same
    draw (no extra RNG consumption), then falls back to the last
    positive propensity; [-1] iff no reaction can fire. *)

val event :
  t ->
  Numeric.Rng.t ->
  int array ->
  refresh_every:int ->
  Ode.Trace.clock ->
  sample:(unit -> unit) ->
  bool
(** [event e rng counts ~refresh_every clock ~sample] runs one
    direct-method event from [clock.now]: a full {!refresh} once
    [refresh_every] updates have accumulated (and whenever the total is
    not positive), an exponential waiting time at rate {!total},
    [sample ()] at the new time, a {!select} on a second uniform draw,
    and the firing with its {!update}. Returns [true] when a reaction
    fired. Returns [false] when the run is over (no reaction can fire,
    or the next event falls past [clock.t1]): the state is then held,
    [clock.now] is [clock.t1] and [sample ()] has run. This is the whole
    exact-SSA step of {!Gillespie} and of the hybrid engine's discrete
    mode. *)
