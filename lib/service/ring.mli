(** Consistent-hash ring for routing requests to worker shards.

    Placement is a pure function of the key bytes and the member ids:
    points are MD5 digests of "shard:<id>#<replica>", so every process
    computes the identical ring — the property that lets a gateway, a
    bench driver and a test agree on which shard owns a compiled model.

    Keyed on {!Crn.Equiv.cache_key} (the digest of a network's exact
    binding, so equal keys mean byte-identical compiled simulators),
    a compiled model always lands on the same shard; adding or removing
    a shard moves only the keys that the new/old shard's own points
    cover. Placement depends on the key bytes alone, so a change to how
    the key is computed moves each model's placement once. *)

type t

val create : ?replicas:int -> int list -> t
(** Ring over the given shard ids (deduplicated). [replicas] (default
    128) virtual points per shard trade lookup table size for balance.
    Raises [Invalid_argument] when [replicas < 1]. *)

val shards : t -> int list
(** Sorted member ids. *)

val replicas : t -> int
val is_empty : t -> bool

val add : t -> int -> t
(** Membership after a shard joins (no-op if already present). *)

val remove : t -> int -> t
(** Membership after a shard leaves (no-op if absent). *)

val route : t -> string -> int option
(** Owning shard of a key; [None] on an empty ring. *)

val route_order : t -> string -> int list
(** All member shards in clockwise (failover) order from the key's
    position: head is {!route}'s answer, the rest are the successors a
    gateway tries when the owner is down. *)
