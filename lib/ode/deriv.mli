(** Mass-action right-hand sides.

    Compiles a {!Crn.Network.t} under a rate environment into the vector
    field of its deterministic mass-action kinetics:
    [dx_s/dt = sum_r nu_rs * k_r * prod_i x_i^(c_ri)], plus its analytic
    Jacobian for the semi-implicit integrator.

    The compiled form is CSR-style flat arrays — contiguous int/float
    arrays of reactant indices/coefficients and net-stoichiometry updates
    delimited by per-reaction offsets — walked with unchecked accesses,
    so the inner simulation loop allocates nothing and chases no
    per-reaction pointers. The test suite checks it bitwise against the
    original boxed-record implementation, which it keeps. *)

type t

val compile : Crn.Rates.env -> Crn.Network.t -> t

val with_env : t -> Crn.Rates.env -> t
(** [with_env sys env] re-bakes only the rate constants under [env],
    sharing every structural array (CSR indices, stoichiometry, Jacobian
    pattern) with [sys] — bitwise-equivalent to recompiling the network
    under [env], at the cost of one small float array. Parameter sweeps
    compile the network once and derive each point's system this way. *)

val with_k : t -> float array -> t
(** [with_k sys k] replaces the baked rate constants with [k] (length
    {!n_reactions}; the array is copied), sharing every structural array
    like {!with_env}. This is how the hybrid engine restricts the vector
    field to its fast partition: zero the slow reactions' entries of its
    deterministic rate constants, re-bake. *)

val dim : t -> int
(** Number of species. *)

val f : t -> float -> Numeric.Vec.t -> Numeric.Vec.t -> unit
(** [f sys t x dx] writes the derivative of state [x] into [dx] (mass-action
    kinetics are autonomous; [t] is accepted for interface uniformity). *)

val eval : t -> Numeric.Vec.t -> Numeric.Vec.t
(** Allocating convenience wrapper around {!f}. *)

val jacobian : t -> Numeric.Vec.t -> Numeric.Mat.t
(** Analytic Jacobian [d f_i / d x_j] at a state. *)

val jacobian_into : t -> Numeric.Vec.t -> Numeric.Mat.t -> unit
(** [jacobian_into sys x jac] writes the Jacobian at [x] into [jac]
    without allocating: only the entries of the precomputed sparsity
    pattern are zeroed and re-accumulated, so a caller-held matrix whose
    remaining entries are zero (e.g. fresh from [Mat.create n n 0.])
    stays correct across repeated calls. The semi-implicit integrator
    reuses one matrix for the whole integration this way. *)

val jac_nnz : t -> int
(** Number of structurally non-zero Jacobian entries (the sparsity
    pattern's size). *)

val jac_pattern : t -> int array * int array
(** [(rows, cols)]: the structurally non-zero Jacobian positions, one
    pair per entry, each once — the entries {!jacobian_into} writes.
    Fresh copies. *)

val flux : t -> Numeric.Vec.t -> int -> float
(** Instantaneous flux of reaction [i] at a state (for diagnostics). *)

val n_reactions : t -> int
