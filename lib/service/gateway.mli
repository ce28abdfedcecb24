(** Horizontal scale-out front end for the mrsc service.

    One gateway process routes requests over N [crnserved] worker
    shards with a consistent-hash ring ({!Ring}) keyed on the request's
    compiled-model identity ({!Crn.Equiv.cache_key}, the digest of the
    network's exact binding that the shards' model caches also use,
    plus the rate environment): a hot compiled model lives in exactly
    one shard's cache, and a repeated source is never re-synthesized
    anywhere in the fleet. The gateway builds and digests each distinct
    source once on its event loop (a catalog build or a parse, then one
    pass over the network; no colour refinement) and memoizes the
    result. Shard-side the gateway speaks the wire protocol and
    relays response frames byte-for-byte, so gateway responses are
    byte-identical to direct daemon responses — over the wire listener
    and over HTTP (the body bytes are the same envelope).

    Front doors: an optional wire listener (length-prefixed frames,
    any op) and an optional HTTP/1.1 listener — [POST /api] carries a
    request object and returns the response envelope (status mapped
    from the structured error code; streamed [trace] replies become
    chunked responses, one wire frame per chunk), [GET /health] reports
    fleet liveness, [GET /metrics] is Prometheus text exposition
    aggregating gateway counters (its own connection fault classes
    among them) with every shard's [stats] — per-op, per-error-code and
    per-fault-class counters plus the lifetime work table, labeled by
    shard. Client connections follow the daemon's rules ({!Conn_loop}),
    with its default read deadline and idle timeout.

    [ping] and [stats] are answered by the gateway itself (ping's
    result is byte-identical to a daemon's; stats aggregates the
    fleet). Everything else routes: the owner shard is tried first,
    then its ring successors when the owner is down. A shard at its
    [max_inflight] admission bound is answered with the daemon's own
    structured retryable [overloaded] error — never spilled to a
    neighbour, which would re-compile the hot model the ring exists to
    pin. A shard that dies mid-exchange yields a structured retryable
    [shard_failed] reply (stream-terminated when mid-trace), never a
    hang; spawned shards are monitored and respawned with jittered
    exponential backoff. *)

type backend =
  | Spawn of {
      exe : string;  (** the [crnserved] binary *)
      count : int;
      dir : string;  (** runtime directory for shard sockets *)
      jobs : int option;  (** per-shard worker domains *)
      queue_bound : int option;
      cache_capacity : int option;
      state_dir : string option;
          (** warm persistent state root: each shard gets
              [<dir>/shard-<i>-state], so a respawned shard reloads the
              models it had compiled before dying and serves its first
              routed request as a cache hit *)
      extra_args : string list;
    }  (** spawn and supervise [count] daemons on Unix sockets *)
  | Attach of Addr.t list
      (** route to pre-existing daemons; no lifecycle management *)

type config = {
  wire : Addr.t option;
  http : Addr.t option;
  backend : backend;
  replicas : int;  (** ring points per shard *)
  affinity : bool;
      (** [false] routes uniformly at random (the baseline the bench
          measures the ring against) *)
  max_inflight : int;  (** per-shard admission bound *)
  route_memo : int;  (** source → routing-key memo entries *)
  max_frame : int;
  max_conns : int;
  shard_deadline_ms : float;  (** stats/metrics fan-out read deadline *)
  boot_timeout_ms : float;
      (** wait for spawned shards to accept before listening (attached
          daemons are probed once, without waiting) *)
  log : bool;
  seed : int64;  (** jitter and random-routing stream *)
}

val default_config : backend -> config
(** No listeners (set at least one), 128 replicas, affinity on,
    64 in-flight per shard, 512 memo entries, 64 MiB frames, 1024
    connections, 2 s shard deadline, 10 s boot wait, quiet, seed 1. *)

val run : ?stop:(unit -> bool) -> config -> unit
(** Spawn/await the fleet, bind the listeners, and serve until
    [stop ()] returns true (polled at least every 0.25 s). On return
    listeners are closed, Unix socket files unlinked, and spawned
    shards are terminated (SIGTERM, then SIGKILL after 5 s) and
    reaped. Raises [Invalid_argument] when no listener or no shard is
    configured. *)
