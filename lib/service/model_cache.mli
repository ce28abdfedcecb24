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
    cache state is mutex-protected. *)

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

(** {2 Disk persistence}

    With a state directory configured, every newly compiled entry (and
    every eviction victim) is serialized by a background persister
    domain — off the request path — into [<dir>/<digest>.model] via
    atomic temp-file-plus-rename writes. A restarted daemon calls
    {!load_from} before serving: each snapshot's digest is recomputed
    from its decoded network and must match the stored key, so corrupt,
    tampered or stale files are skipped and counted, never trusted and
    never fatal. *)

type warm_report = { loaded : int; skipped_corrupt : int; skipped_version : int }

val set_state_dir : t -> string -> unit
(** Create [dir] if needed and start the background persister. *)

val load_from : t -> string -> warm_report
(** Load every [*.model] snapshot in [dir] (sorted file order) up to the
    cache capacity. Warm entries enter with fresh LRU ticks and zero
    hits — load time restarts the recency clock, so a cold insert
    cannot immediately evict the whole warm set. Unreadable, corrupt and
    digest-mismatched files count as [skipped_corrupt]; well-formed
    files from another format revision as [skipped_version]. Never
    raises on bad input. *)

val save_to : t -> string -> int
(** Synchronously snapshot every resident entry into [dir] (created if
    needed); returns the number written. *)

val flush : t -> unit
(** Block until the background persister has drained its queue. *)

val shutdown : t -> unit
(** Stop the persister domain after it finishes the queued writes. *)

val warm_counters : t -> int * int * int * int
(** [(warm_loaded, warm_skipped_corrupt, warm_skipped_version,
    snapshot_writes)] since creation — surfaced by the daemon's [stats]
    op and the gateway's Prometheus endpoint. *)
