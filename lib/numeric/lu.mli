(** LU factorization with partial pivoting, for the linear systems of the
    semi-implicit (Rosenbrock) ODE integrator.

    The factorization is the textbook right-looking loop's, entry for
    entry: the pivot of column [k] is the first row of largest
    magnitude, every update is [a.(i).(j) - f * a.(k).(j)] in the same
    order, and a pivot below [1e-300] in magnitude raises {!Singular}.
    It skips only updates whose result is known without computing them
    (a zero operand against a finite one), so it costs [O(n^2)] scans
    plus the nonzero products, not [n^3 / 3] multiply-adds. Equal means
    equal under
    [Float.equal]: a skipped update can flip the sign of a zero entry,
    and nothing else, also on infinite and NaN input. *)

type t
(** A factorization workspace: the [n] x [n] matrix being factored, the
    factor [P A = L U] it is overwritten with, and each row's L and U
    patterns. *)

exception Singular
(** Raised when the matrix is numerically singular (a pivot underflows). *)

val workspace : int -> t
(** Preallocate an [n] x [n] factorization workspace, so a caller
    factoring many same-sized matrices (the semi-implicit ODE integrator)
    allocates nothing per factorization. Its matrix starts at zero. *)

val refactor : t -> Mat.t -> unit
(** [refactor t a] copies [a] into [t]'s storage and factors it in place.
    Raises [Singular] (leaving the workspace in an unspecified state that
    a later refactor fully overwrites) or [Invalid_argument] on a size
    mismatch. The input matrix is not modified. *)

val refactor_shifted :
  t -> float -> Mat.t -> rows:int array -> cols:int array -> unit
(** [refactor_shifted t s m ~rows ~cols] factors [W = I - s m] for an
    [m] that is zero except on its diagonal and at the positions
    [(rows.(p), cols.(p))] — the semi-implicit integrator's
    [I - gamma h J], written from the Jacobian's pattern without an
    [n^2] pass. Each entry written is the dense expression
    [(if i = j then 1 else 0) - s * m.(i).(j)], and the rest are the
    [+0] it gives there, so the result is {!refactor} of the dense [W].
    (A non-finite [s] makes [0 * s] NaN, so then every entry is
    written.)
    Raises like {!refactor} ([m]'s rows must have length [n] too), and
    [Invalid_argument] if [rows] and [cols] differ in length. *)

val solve_into : t -> Vec.t -> Vec.t -> unit
(** [solve_into lu b x] writes the solution of [A x = b] into [x] without
    allocating, walking each row's nonzero pattern. Equal, under
    [Float.equal], to dense forward and back substitution. [b] is left
    unmodified; raises [Invalid_argument] if [b] and [x] are the same
    array or sizes mismatch. *)

val madds : t -> int
(** Multiply-adds of the last factorization: the updates with a nonzero
    multiplier and a nonzero pivot-row entry (NaN counts as nonzero).
    The dense loop does [n (n - 1) (2n - 1) / 6]. *)

val nnz : t -> int
(** Entries of the last factorization's L and U patterns plus the
    diagonal: the nonzeros of [L + U]. *)

val perm : t -> int array
(** [perm t].(i) is the row of the input matrix at pivot position [i]
    (a copy). *)

val sign : t -> float
(** The permutation's sign, [1.] or [-1.]. *)

val entry : t -> int -> int -> float
(** [entry t i j] is entry [(i, j)] of the packed factor: [L] (unit
    diagonal not stored) below the diagonal, [U] on and above it, rows in
    pivot order. *)
