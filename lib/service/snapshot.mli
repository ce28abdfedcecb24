(** Versioned, checksummed binary simulation checkpoints.

    A checkpoint persists one engine's loop-top mid-run state together
    with the network and run parameters, self-contained so
    [crnsim --resume] continues the trajectory bitwise. It travels in
    the {!Binio} container.

    The decoder raises {!Binio.Corrupt} on malformed input — including
    payloads that pass the CRC but fail semantic validation (bad species
    names, inconsistent shapes) — and {!Version_mismatch} on a
    well-formed container from a different format revision, so callers
    can tell the two apart. *)

val sim_kind : string
val sim_version : int

exception Version_mismatch of { kind : string; found : int; expected : int }

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
