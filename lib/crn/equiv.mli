(** Structural equivalence of networks up to species renaming.

    Two networks are {e isomorphic} when some bijection of species maps one
    network's reaction multiset (with rates and initial concentrations)
    exactly onto the other's. This is the natural "same design" relation
    for synthesized networks: synthesis must be deterministic modulo the
    names it generates, and independently constructed instances of the same
    block must match.

    The decision procedure is individualization–refinement (the standard
    graph-canonicalization approach): species are partitioned by an
    iteratively refined color based on initial concentration and on the
    multiset of colored reaction signatures they participate in; remaining
    symmetric classes are broken by individualizing one candidate pair at a
    time and re-refining, with backtracking. Exact, and fast on the
    structured networks this library produces (symmetries are rare once
    initial conditions are colored); worst-case exponential like all known
    isomorphism algorithms. *)

val isomorphic : Network.t -> Network.t -> bool

val fingerprint : Network.t -> string
(** A renaming-invariant digest (the stable refinement's class profile plus
    the color-labelled reaction multiset). Colors are the sorted ranks of
    their signature strings, so the digest is also invariant under species
    index order and reaction order — re-serializing and re-parsing a
    network preserves it. Equal fingerprints do {e not} prove isomorphism
    (symmetric networks can collide), but different fingerprints disprove
    it; useful as a fast regression check. *)

val cache_key : Network.t -> string
(** {!fingerprint} extended into a compiled-model cache key: the
    structural digest strengthened with the concrete species-name
    binding, reaction order and initial conditions. Equal keys guarantee
    the two networks compile to byte-identical simulators (same species
    names and indices, same reaction indices), which the
    renaming-invariant fingerprint alone cannot promise; the simulation
    service keys its compiled-model cache on this. *)

val cache_key_of_fingerprint : string -> Network.t -> string
(** [cache_key_of_fingerprint (fingerprint net) net = cache_key net],
    for a caller that needs both without running the colour refinement
    twice. *)
