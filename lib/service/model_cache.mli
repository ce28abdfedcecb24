(** LRU cache of compiled simulation models, keyed by network binding
    digest.

    A cold request pays synthesis (catalog build or [.crn] parse), the
    binding digest ({!Crn.Equiv.cache_key}) and compilation of both
    engines ({!Ode.Deriv.compile} and {!Ssa.Gillespie.compile_model});
    the entry is then shared: an identical request source skips all of
    it via the source memo, and a {e different} source that synthesizes
    the same network under the same rate environment dedupes onto the
    same compiled entry via the digest. Entries are immutable compiled
    artifacts, safe to share across concurrent worker domains; all
    cache state is mutex-protected. The cache lives in memory only: a
    restarted daemon recompiles each model on its first touch. *)

type entry = {
  key : string;  (** {!key} of the network under its environment *)
  model : Engines.model;  (** the network, compiled for every engine *)
  compile_ms : float;  (** wall time the cold path paid *)
  mutable last_used : int;
  mutable hits : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 32 entries; least-recently-used entries are evicted
    beyond that. Raises [Invalid_argument] if [capacity < 1]. *)

val key : Crn.Rates.env -> Crn.Network.t -> string
(** {!Crn.Equiv.cache_key} plus the rate environment: the key an entry
    is cached under. *)

val source_key : spec:string -> env:Crn.Rates.env -> string
(** Digest of a request's network specification (catalog name or inline
    [.crn] text) plus rate environment — the memo key that lets repeat
    requests skip synthesis entirely. *)

val find_or_compile :
  t ->
  source_key:string ->
  env:Crn.Rates.env ->
  build:(unit -> Crn.Network.t) ->
  entry * [ `Hit | `Miss ]
(** Return the cached entry for [source_key], or synthesize ([build]),
    digest and compile on a miss. [`Miss] is returned even when the
    built network dedupes onto an existing compiled entry (the request
    still paid synthesis); the entry returned then carries this call's
    own [compile_ms]. Exceptions from [build] (parse errors...)
    propagate and cache nothing. *)

val stats : t -> int * int * int * int
(** [(entries, hits, misses, evictions)] since creation. *)
