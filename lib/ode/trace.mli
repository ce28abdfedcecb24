(** Recorded simulation trajectories.

    A trace is a sequence of time points with the full state at each,
    plus species names for lookup. Built incrementally by the drivers,
    consumed by the analysis and plotting layers. *)

type t

val create : names:string array -> t

val record : t -> float -> Numeric.Vec.t -> unit
(** Append a sample (the state is copied). Times must be non-decreasing. *)

val length : t -> int

val names : t -> string array

val times : t -> float array
(** Fresh array of sample times. *)

val state_at_index : t -> int -> Numeric.Vec.t
(** Fresh copy of the recorded state at a sample index. *)

val column : t -> int -> float array
(** Time series of one species (by index). *)

val column_named : t -> string -> float array
(** Raises [Not_found] for an unknown name. *)

val species_index : t -> string -> int
(** Raises [Not_found]. *)

val value_at : t -> species:int -> float -> float
(** Linear interpolation of one species' series at an arbitrary time. *)

val last_time : t -> float
val last_state : t -> Numeric.Vec.t

val final_value : t -> string -> float
(** Last recorded value of a named species. *)

val to_csv : t -> string
(** Header [time,<species...>] then one row per sample. *)

val restrict : t -> string list -> t
(** Sub-trace containing only the named species (same times). *)

val copy : t -> t
(** An independent trace with the same samples: recording into either
    leaves the other unchanged. *)

(** {1 Sample clock}

    The stochastic engines record their state on a fixed grid: [0],
    then every [every] time units (the grid times are accumulated sums,
    [next +. every]), up to [t1 +. 1e-12]. *)

type clock = {
  mutable now : float;  (** the engine's simulated time *)
  mutable next : float;  (** the next grid time to record *)
  every : float;  (** grid spacing, the engines' [sample_dt] *)
  t1 : float;  (** end of the run *)
}
(** The engine's time and its sample grid. All fields are floats, so the
    record is stored flat and the engines' hot loops update it without
    allocating. *)

val clock : who:string -> ?sample_dt:float -> float -> clock
(** [clock ~who ?sample_dt t1] starts at [now = next = 0.] with
    [every = sample_dt] (default [t1 /. 500.]). Raises [Invalid_argument]
    ["<who>: sample_dt must be positive"] on [sample_dt <= 0.]. *)

val record_due : t -> clock -> (unit -> Numeric.Vec.t) -> unit
(** [record_due tr c state] records [state ()] at each grid time from
    [c.next] up to [c.now] (and at most [c.t1 +. 1e-12]), advancing
    [c.next] past them. *)
