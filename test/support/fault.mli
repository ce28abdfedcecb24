(** Deterministic fault injection for the wire layer.

    A {!schedule} pins faults to byte offsets in one direction of a
    stream; {!wrap} interposes it between a {!Service.Wire.transport}
    and its user. Calls are clipped so no single read/write crosses a
    scheduled offset — every fault lands on exactly the byte it names,
    so a schedule derived from a seed ({!random_schedule}) replays
    identically, and any failure a randomized suite finds reproduces
    from its printed seed.

    This is a test/chaos tool: the daemon and client are exercised
    against it, they never depend on it. *)

type fault =
  | Short of { at : int; cap : int }
      (** the call that reaches offset [at] transfers at most [cap]
          bytes (a torn read/write); applies once *)
  | Corrupt of { at : int; xor : int }
      (** the byte at stream offset [at] is XORed with [xor] in flight *)
  | Reset of { at : int }
      (** once the stream position reaches [at], raise
          [Unix.ECONNRESET] *)
  | Stall of { at : int; ms : float }
      (** sleep [ms] before the transfer that starts at offset [at] *)

type schedule = fault list

val wrap :
  ?on_read:schedule ->
  ?on_write:schedule ->
  Service.Wire.transport ->
  Service.Wire.transport
(** Interpose the schedules (each sorted internally by offset) on a
    transport. Offsets count bytes transferred through the wrapped
    transport in that direction since [wrap]. *)

val chop : int -> Service.Wire.transport -> Service.Wire.transport
(** Cap {e every} read and write at [cap] bytes — the steady-state
    short-read/short-write stressor. Raises [Invalid_argument] if
    [cap < 1]. *)

val random_schedule : rng:Numeric.Rng.t -> len:int -> int -> schedule
(** [random_schedule ~rng ~len n]: [n] faults of uniformly random kind
    at offsets in [\[0, len)]. Same [rng] state, same schedule. *)

val lossless : schedule -> bool
(** [true] when the schedule only tears or delays ([Short]/[Stall]) —
    i.e. data still arrives intact and a correct peer must succeed;
    [false] when it corrupts or resets. *)

val describe : schedule -> string
(** Human-readable one-liner, e.g.
    ["corrupt@5(xor 0x40), reset@120"] — printed next to the seed so a
    failing randomized case is self-describing. *)
