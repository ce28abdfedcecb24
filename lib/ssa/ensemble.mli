(** Deterministic multicore ensemble runner.

    Stochastic validation needs many independent trajectories of the same
    network; they are embarrassingly parallel. This module fans them over
    the shared {!Numeric.Domain_pool} with a deterministic
    seed→trajectory assignment: trajectory [i] always gets the [i]-th
    stream split off the root generator ({!Numeric.Rng.split_seed}), and
    results come back in trajectory order, so the output is
    byte-identical regardless of the job count and chunk size.

    The mapped function runs concurrently in several domains: it must not
    mutate shared state. Simulating a shared {!Crn.Network.t} or a shared
    compiled model is safe — the simulators only read them; per-run
    mutable scratch belongs in the {!map_with} worker state. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1. *)

val seeds : seed:int64 -> runs:int -> int64 array
(** The per-trajectory seed streams split off [seed]; exposed so callers
    can reproduce a single trajectory of an ensemble in isolation. *)

val map :
  ?pool:Numeric.Domain_pool.Bounded.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?oversubscribe:bool ->
  ?seed:int64 ->
  runs:int ->
  (int -> int64 -> 'a) ->
  'a array
(** [map ~runs f] computes [|f 0 s0; f 1 s1; ...|] where [si] are the
    split streams of [seed] (default [42L]), using up to [jobs] domains
    (default {!default_jobs}; clamped to [runs] and — unless
    [oversubscribe] — to the hardware, see {!Numeric.Domain_pool.run}).
    Helpers are borrowed from [pool] (default the process-wide shared
    pool); [chunk] sets the deterministic scheduler's chunk size. Raises
    [Invalid_argument] if [runs < 1] or [jobs < 1]. Exceptions raised by
    [f] in a worker domain are re-raised. *)

val map_with :
  ?pool:Numeric.Domain_pool.Bounded.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?oversubscribe:bool ->
  ?seed:int64 ->
  init_worker:(unit -> 'w) ->
  runs:int ->
  ('w -> int -> int64 -> 'a) ->
  'a array
(** Like {!map}, but each participating domain first builds private
    worker state with [init_worker] — e.g. a {!Gillespie.make_arena} over
    a model compiled once by the caller — and every trajectory it runs
    receives that state. [f w i si] must return the same value whatever
    the arena's prior contents (the simulators reset their arenas at the
    start of every run), preserving the byte-identical-output contract. *)
