(* Reaction dependency graph for incremental-propensity SSA.

   Firing reaction j changes the counts of exactly the species in its net
   stoichiometry (delta) arrays; only reactions consuming one of those
   species can see their propensity change. The graph maps each reaction
   to that affected set, computed once from the compiled arrays so the hot
   loop touches |deps(j)| propensities per event instead of all of them.

   Catalyst-only couplings cost nothing: [Compiled.compile] stores *net*
   stoichiometry, so a species that appears on both sides with equal
   coefficients has no delta entry and creates no edge. *)

type t = { deps : int array array }

let build reactions ~n_species =
  (* consumers.(s) = reactions with species s among their reactants, in
     index order *)
  let consumers = Array.make n_species [] in
  Array.iteri
    (fun j r ->
      Array.iter
        (fun s -> consumers.(s) <- j :: consumers.(s))
        r.Compiled.reactant_species)
    reactions;
  Array.iteri (fun s l -> consumers.(s) <- List.rev l) consumers;
  let seen = Array.make (Array.length reactions) (-1) in
  let deps =
    Array.mapi
      (fun j r ->
        let acc = ref [] in
        Array.iteri
          (fun i s ->
            if r.Compiled.delta.(i) <> 0 then
              List.iter
                (fun d ->
                  if seen.(d) <> j then begin
                    seen.(d) <- j;
                    acc := d :: !acc
                  end)
                consumers.(s))
          r.Compiled.delta_species;
        let a = Array.of_list !acc in
        Array.sort compare a;
        a)
      reactions
  in
  { deps }

let affected t j = t.deps.(j)

let max_out_degree t =
  Array.fold_left (fun m d -> max m (Array.length d)) 0 t.deps

let mean_out_degree t =
  let n = Array.length t.deps in
  if n = 0 then 0.
  else
    float_of_int (Array.fold_left (fun s d -> s + Array.length d) 0 t.deps)
    /. float_of_int n
