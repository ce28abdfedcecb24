(** The mrsc simulation server: {!Conn_loop} frontend, bounded worker
    pool, compiled-model cache, per-request deadlines and metrics.

    Protocol: length-prefixed JSON frames ({!Wire}). A request is an
    object with an ["op"] field — [ping], [stats], [parse], [ode],
    [ssa], [ensemble], [sweep], [dsd], [trace] — plus op-specific
    fields (["network"], ["t1"], ["ratio"], ["method"], ["seed"],
    ["runs"], ["ratios"], ["c_max"], ["deadline_ms"]...). Every
    response carries ["ok"], ["op"], ["result"] or ["error"]
    ({!Error.to_json}), and a ["metrics"] block
    ({!Metrics.request_json}).

    The [trace] op streams: a header frame (["stream"], ["species"]),
    then sample-chunk frames (["chunk"], ["t"], ["x"]; ["chunk"]
    request field sets the samples per frame, default 256), then a
    final response envelope whose serialized form starts with the
    stable prefix [{"done":] — which is how a relaying gateway spots
    the end of the stream without parsing. With ["engine": "ode"] the
    samples stream live while the integrator runs and reproduce
    [Ode.Driver.simulate ~thin] bitwise; the stochastic engines stream
    the finished run's sampled trace in chunks.

    Engines come from {!Engines}: the [ode], [ssa], [tau] and [hybrid]
    ops, the ["engine"] of [ensemble] and [trace], and their knobs are
    the registry's, and a knob outside its engine's range is answered
    with [bad_request].

    Concurrency: [ping]/[stats] are answered inline on the event-loop
    domain; compute ops are enqueued on a
    {!Numeric.Domain_pool.Bounded} pool. A full queue is answered
    immediately with [overloaded]; an expired deadline aborts the run
    via {!Numeric.Cancel} and answers [deadline_exceeded] — the worker
    domain survives both. Responses may interleave across requests of
    one connection (pipelining); clients match on order only if they
    send one request at a time. *)

type config = {
  address : Addr.t;
  jobs : int;  (** worker domains *)
  queue_bound : int;  (** queued jobs beyond which requests are refused *)
  cache_capacity : int;  (** compiled-model LRU entries *)
  default_deadline_ms : float option;
      (** applied when a request carries no ["deadline_ms"] *)
  max_frame : int;  (** per-connection frame limit, in bytes *)
  read_deadline_ms : float;  (** partial-frame deadline; [<= 0] disables *)
  idle_timeout_ms : float;  (** [<= 0] disables *)
  max_conns : int;
      (** open-connection cap; {!Conn_loop} applies all four limits *)
  log : bool;  (** one stderr line per connection event *)
  state_dir : string option;
      (** checkpoint root, created (with its parents) before the daemon
          binds: deadline-cancelled engine runs drop resumable
          checkpoints in [<dir>/checkpoints], named by the
          [deadline_exceeded] error's ["checkpoint"] token (a [trace]
          stream keeps none). [None] (the default) keeps no
          checkpoints. *)
}

val default_config : Addr.t -> config
(** All cores but one, queue bound 64, cache capacity 32, no default
    deadline, 8 MiB frames, 10 s read deadline, 5 min idle timeout,
    256 connections, quiet. Connections are served by {!Conn_loop},
    whose fault rules apply; each fault class is counted in the [stats]
    op. *)

val protocol_version : int

val parse_request : string -> (Json.t * string, Error.t) result
(** A request frame's object and op, or the [bad_request] (bad JSON, no
    ["op"]) that either front door answers with. *)

val ping : arrival:float -> Json.t
(** The [ping] op's envelope. *)

val network_source : Json.t -> string * (unit -> Crn.Network.t)
(** A request's ["network"] ([{"catalog": name}] or [{"text": crn}]) as
    the model cache names its source, and the build that synthesizes or
    parses it (raising {!Error.of_exn}'s errors). Raises
    {!Error.Rejected} when the field is missing or malformed. *)

val call :
  ?checkpoint:string -> ?on_frame:(Json.t -> unit) -> Json.t -> Json.t
(** Run one request in this process through the daemon's own request
    pipeline — the same handlers, knob checks, error mapping and
    envelope — and return its response envelope without serializing it.
    The network is compiled straight from the request (no model cache,
    so no cache key); [ensemble] and [sweep] fan out over the
    process-wide domain pool; a [trace] op's header and chunk frames go
    to [on_frame]. A deadline-cancelled run's checkpoint is written to
    [checkpoint], which the [deadline_exceeded] error then names; a
    trace's holds every sample recorded so far, so {!resume} rebuilds
    the whole trace. Answers every op but [stats]. *)

val resume :
  ?checkpoint:string ->
  ?deadline_ms:float ->
  ?on_frame:(Json.t -> unit) ->
  Snapshot.sim_checkpoint ->
  Json.t
(** Continue a checkpointed run in-process, answered as a [trace] op:
    the frames replay the samples recorded before the checkpoint, then
    the continuation's, so the rebuilt trace and final state are bitwise
    those of the uninterrupted run. [checkpoint] and [deadline_ms] work
    as in {!call}. *)

val run : ?stop:(unit -> bool) -> config -> unit
(** Bind the address and serve until [stop ()] returns true (polled at
    least every 0.25 s; default never). On return the listen socket is
    closed, worker domains are joined (accepted jobs finish first), and
    a Unix socket file is unlinked. Binding errors propagate. *)
