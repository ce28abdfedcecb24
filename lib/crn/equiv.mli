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
    it; useful as a regression check. It costs colour refinement (up to
    hundreds of milliseconds on the catalog designs), so the simulation
    service computes it only for a [parse] request. *)

val cache_key : Network.t -> string
(** The compiled-model cache key: a digest of the network's exact
    binding — species names in index order, initial amounts and rate
    scales by their IEEE bits, and each reaction in order with its
    sides, category and label. Equal keys mean byte-identical compiled
    simulators and equal {!Network.to_string}. One pass over the
    network, no colour refinement. *)

val refinement_rounds : unit -> int
(** Colour-refinement rounds run in this process so far. *)
