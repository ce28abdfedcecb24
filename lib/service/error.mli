(** Structured errors shared by the service wire protocol and the
    command-line tools.

    One vocabulary for everything a simulation request can die of:
    each case carries a stable machine [code] (what goes over the wire
    and what scripts match on), a one-line human [message], and a
    documented CLI [exit_code] — so [crnsim] prints a clean line instead
    of an uncaught-exception backtrace, and the daemon answers with the
    same classification. *)

type t =
  | Bad_request of string  (** malformed or unsupported request *)
  | Parse_error of { line : int; msg : string }  (** .crn text parse *)
  | Unknown_design of string  (** not a file, not a catalog name *)
  | Max_events_exceeded of { max_events : int; t : float }
  | Max_steps_exceeded of { max_steps : int; t : float }
  | Solver_failure of { solver : string; msg : string }
      (** ODE non-convergence: step budget or step-size underflow *)
  | Not_compilable of string  (** DSD compilation of molecularity > 2 *)
  | Deadline_exceeded of { budget_ms : float; checkpoint : string option }
      (** [checkpoint] names a resumable simulation checkpoint the
          daemon wrote under its state directory before cancelling —
          a retry can continue the trajectory instead of restarting *)
  | Overloaded of { queue_bound : int }  (** bounded queue refused the job *)
  | Connection_limit of { max_conns : int }
      (** connection cap reached; the daemon answered and closed *)
  | Shard_failed of { shard : int }
      (** a gateway's worker shard died before completing the request;
          the failure is transient — another shard (or the respawned
          one) can serve a retry *)
  | Validation_failed of { issues : (string * string) list }
      (** the exact verification tier rejected the network; each issue
          is a stable [(code, detail)] pair, e.g.
          [("phase_overlap", ...)] — retrying is pointless until the
          network changes *)
  | Internal of string

val code : t -> string
(** Stable machine string, e.g. ["deadline_exceeded"]. *)

val message : t -> string

val exit_code : t -> int
(** 2 input/usage, 3 simulation budget/solver, 4 deadline, 5 transient
    capacity/fleet trouble (overloaded, over the connection cap, a
    failed shard), 6 validation rejected the network, 70 internal. *)

exception Rejected of t
(** A request refused before it ran (a malformed field, a knob out of
    its engine's range): the one exception request decoding raises. *)

val reject : t -> 'a
(** [raise (Rejected err)]. *)

val of_exn : exn -> t option
(** Classify the structured exceptions of the simulation stack
    ({!Rejected}, {!Crn.Parser.Parse_error}, {!Ssa.Gillespie.Error},
    {!Ssa.Tau_leap.Error}, {!Ode.Solver_error.Error},
    {!Dsd.Translate.Not_compilable}); [None] for anything else. *)

val to_json : t -> Json.t
(** [{"code": ..., "message": ..., <payload fields>}]. *)

val of_json : Json.t -> t
(** Inverse of {!to_json} for typed dispatch on [code] and payload
    fields. Display the wire object's ["message"] field directly rather
    than re-rendering through {!message} (which would re-prefix some
    cases). Malformed objects decode to {!Internal}. *)
