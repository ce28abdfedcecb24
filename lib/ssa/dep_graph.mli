(** Reaction dependency graph (Gibson–Bruck style) for incremental SSA.

    [deps(j)] is the set of reactions whose propensity can change when
    reaction [j] fires — exactly the reactions having a reactant among
    the species [j]'s net stoichiometry touches. Built once per compiled
    network; lets the simulator update only the affected propensities
    after each event instead of recomputing all of them. *)

type t

val build : Compiled.reaction array -> n_species:int -> t
(** Compute the graph from compiled reactant/delta arrays. Reactions whose
    net stoichiometry misses every reactant (pure catalysts, sources into
    inert species) get no incoming edges, and zero-order reactions never
    appear in any affected set except through their products. *)

val affected : t -> int -> int array
(** [affected g j]: sorted, duplicate-free indices of the reactions whose
    propensity may differ after firing [j] once (includes [j] itself iff
    [j] changes one of its own reactants). The returned array is owned by
    the graph — do not mutate. *)

val max_out_degree : t -> int
(** Size of the largest affected set — the worst-case propensity updates
    per event. *)

val mean_out_degree : t -> float
(** Average affected-set size; the expected per-event update cost compared
    against the reaction count for the full-recompute baseline. *)
