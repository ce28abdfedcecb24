(** Request-level metrics blocks and the daemon's since-start counters.

    Every response carries a {!request} block; the [stats] request
    serializes the aggregate with {!to_json}. The aggregate is
    mutex-protected — worker domains record concurrently. *)

type cache_outcome = Hit | Miss | Not_applicable

type request = {
  queue_wait_ms : float;  (** time spent queued before a worker picked it up *)
  cache : cache_outcome;
  compile_ms : float;  (** synthesis + model key + compile; 0 on hit *)
  run_ms : float;  (** simulation proper *)
  total_ms : float;  (** arrival to response, excluding socket transfer *)
  extra : (string * Json.t) list;  (** engine work counters (events, steps…) *)
}

val request_json : request -> Json.t

type t

val create : unit -> t

val record : t -> op:string -> error:string option -> request:request -> unit
(** [error] is the structured error code when the request failed. The
    numeric entries of [request.extra] are additionally summed into a
    per-counter-name lifetime table (serialized by {!to_json} as
    ["work"]), so the stats op reports how much simulation work — SSA
    events, tau leaps, ODE steps, hybrid repartitions — each engine has
    done since the daemon started. *)

(** Connection-level fault classes each front door counts — one per way a
    hostile or broken peer can misbehave, so the [stats] op shows what
    the serving layer has been absorbing. *)
type conn_event =
  | Conn_accepted
  | Conn_closed
  | Conn_rejected  (** refused over the connection cap *)
  | Frame_in  (** a complete frame decoded, however torn its arrival *)
  | Framing_error  (** negative prefix or desynced stream *)
  | Oversized_frame  (** length prefix above the max-frame limit *)
  | Read_timeout  (** partial frame outlived the read deadline *)
  | Idle_reaped  (** quiet connection past the idle timeout *)
  | Read_reset  (** connection reset (or kin) while reading *)
  | Dirty_close  (** EOF with a partial frame still buffered *)
  | Accept_error  (** an accept failed (EMFILE, ENFILE, ECONNABORTED...) *)

val record_conn : t -> conn_event -> unit

val conn_counters : t -> (string * int) list
(** The {!conn_event} counters by their {!to_json} names
    ([conns_accepted] ... [accept_errors]), in that order. *)

val record_validate : t -> ok:bool -> unit
(** Count a [validate] request's verdict: certified ([ok:true]) or
    rejected. Exported by {!to_json} as [validate_ok] /
    [validate_reject], which the gateway's Prometheus endpoint picks up
    automatically. *)

val record_job_exception : t -> exn -> unit
(** Count an exception that escaped a worker-pool job entirely (wired to
    {!Numeric.Domain_pool.Bounded.set_on_uncaught}); zero in a healthy
    daemon, since the job wrapper answers every failure with a
    structured error. The count and the last message appear in
    {!to_json} as [job_exceptions] / [last_job_error]. *)

val to_json : t -> Json.t

val bump : (string, int) Hashtbl.t -> string -> unit
(** Count one more under the key. *)

val table_json : (string, int) Hashtbl.t -> Json.t
(** The counts as an object, keys sorted. *)
