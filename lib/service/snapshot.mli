(** Versioned, checksummed binary snapshots of compiled models and
    mid-run simulation state.

    Two artifact kinds share the {!Binio} container format:

    - {b model snapshots} persist a compiled-model cache entry —
      network, rate environment, compiled CSR ODE system, compiled SSA
      model with its dependency graph — so a restarted daemon rebuilds
      its warm set from disk without paying synthesis or compilation
      again;
    - {b simulation checkpoints} persist one engine's loop-top mid-run
      state together with the network and run parameters, self-contained
      so [crnsim --resume] continues the trajectory bitwise.

    All decoders raise {!Binio.Corrupt} on malformed input — including
    payloads that pass the CRC but fail semantic validation (bad species
    names, inconsistent shapes) — and {!Version_mismatch} on a
    well-formed container from a different format revision, so callers
    can count the two separately. *)

val model_kind : string
val model_version : int
val sim_kind : string
val sim_version : int

exception Version_mismatch of { kind : string; found : int; expected : int }

type model_snapshot = {
  ms_key : string;  (** the cache key the entry was stored under *)
  ms_sources : string array;
      (** request-source digests that aliased to this entry, so a warm
          restart answers a repeated request as a genuine cache hit —
          skipping synthesis, not just compilation *)
  ms_compile_ms : float;  (** what the original cold compile cost *)
  ms_net : Crn.Network.t;
  ms_env : Crn.Rates.env;
  ms_sys : Ode.Deriv.t;
  ms_ssa : Ssa.Gillespie.model;
}

val encode_model : model_snapshot -> string
val decode_model : string -> model_snapshot
(** The stored [ms_key] is untrusted until the loader recomputes the
    digest from [ms_net]/[ms_env] and compares — {!Model_cache} does
    that before admitting a warm entry. *)

type engine_state = Engines.state =
  | Ode_ck of Ode.Driver.checkpoint
  | Ssa_ck of Ssa.Gillespie.checkpoint
  | Tau_ck of Ssa.Tau_leap.checkpoint
  | Hybrid_ck of Hybrid.Engine.checkpoint

type sim_checkpoint = {
  sc_net : Crn.Network.t;
  sc_env : Crn.Rates.env;
  sc_t1 : float;
  sc_seed : int64;
  sc_params : (string * float) array;
      (** engine-specific numeric run parameters (sample_dt, epsilon,
          thinning, tolerances, ...), stored by name so each front end
          round-trips exactly the ones its engine needs *)
  sc_state : engine_state;
}

val engine_name : engine_state -> string
(** The state's {!Engines.entry} name. *)

val encode_sim : sim_checkpoint -> string
val decode_sim : string -> sim_checkpoint
(** The engine tag and the state codec come from {!Engines}. *)

val param : sim_checkpoint -> string -> float option
(** Look up a named run parameter. *)

(**/**)

(* Sub-codecs exposed for the round-trip and torn-write test suites. *)

val w_network : Binio.writer -> Crn.Network.t -> unit
val r_network : Binio.reader -> Crn.Network.t
val w_env : Binio.writer -> Crn.Rates.env -> unit
val r_env : Binio.reader -> Crn.Rates.env
val w_trace : Binio.writer -> Ode.Trace.t -> unit
val r_trace : Binio.reader -> Ode.Trace.t
