(* The boxed-record mass-action kernel the flat CSR one in [Ode.Deriv]
   replaced: an array of per-reaction records walked with bounds-checked
   accesses, compiled in the same order with the same arithmetic
   ordering, so the two agree bitwise (test_ode checks the RHS and the
   Jacobian on the catalog and on random networks). *)

type reaction = {
  k : float;
  reactant_species : int array;
  reactant_coeff : int array;
  net_species : int array;
  net_coeff : float array;
}

type t = { n : int; reactions : reaction array }

let compile env net =
  let compile_reaction r =
    let reactants = Array.of_list r.Crn.Reaction.reactants in
    let net_list = Crn.Reaction.net_stoich r in
    {
      k = Crn.Rates.value env r.Crn.Reaction.rate;
      reactant_species = Array.map fst reactants;
      reactant_coeff = Array.map snd reactants;
      net_species = Array.of_list (List.map fst net_list);
      net_coeff =
        Array.of_list (List.map (fun (_, c) -> float_of_int c) net_list);
    }
  in
  {
    n = Crn.Network.n_species net;
    reactions = Array.map compile_reaction (Crn.Network.reactions net);
  }

let pow_int x c =
  match c with
  | 1 -> x
  | 2 -> x *. x
  | 3 -> x *. x *. x
  | _ -> x ** float_of_int c

let flux_of r x =
  let acc = ref r.k in
  for i = 0 to Array.length r.reactant_species - 1 do
    acc := !acc *. pow_int x.(r.reactant_species.(i)) r.reactant_coeff.(i)
  done;
  !acc

let f sys _t x dx =
  Numeric.Vec.fill dx 0.;
  Array.iter
    (fun r ->
      let v = flux_of r x in
      for i = 0 to Array.length r.net_species - 1 do
        let s = r.net_species.(i) in
        dx.(s) <- dx.(s) +. (v *. r.net_coeff.(i))
      done)
    sys.reactions

let jacobian sys x =
  let jac = Numeric.Mat.create sys.n sys.n 0. in
  Array.iter
    (fun r ->
      (* d flux / d x_j = k * c_j * x_j^(c_j - 1) * prod_{i<>j} x_i^c_i *)
      let m = Array.length r.reactant_species in
      for jj = 0 to m - 1 do
        let sj = r.reactant_species.(jj) in
        let cj = r.reactant_coeff.(jj) in
        let d = ref (r.k *. float_of_int cj) in
        if cj > 1 then d := !d *. pow_int x.(sj) (cj - 1);
        for ii = 0 to m - 1 do
          if ii <> jj then
            d := !d *. pow_int x.(r.reactant_species.(ii)) r.reactant_coeff.(ii)
        done;
        for i = 0 to Array.length r.net_species - 1 do
          let s = r.net_species.(i) in
          jac.(s).(sj) <- jac.(s).(sj) +. (!d *. r.net_coeff.(i))
        done
      done)
    sys.reactions;
  jac
