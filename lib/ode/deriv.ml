(* The compiled vector field lives in CSR-style flattened arrays: one
   contiguous int/float array per field across all reactions, with an
   offsets array delimiting each reaction's slice. The inner loops then
   run over contiguous memory with unsafe accesses — no per-reaction
   record to chase, no bounds checks — which is what the dense
   rate-robustness sweeps hammer.

   [Reference] keeps the original boxed-record walk, compiled from the
   same network in the same order with identical arithmetic ordering, so
   the flat kernel can be checked for *bitwise* agreement (tests) and
   benchmarked against the pre-optimization baseline (bench_ode). *)

module Reference = struct
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

  let dim sys = sys.n

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
end

type t = {
  n : int;  (** species *)
  nr : int;  (** reactions *)
  k : float array;  (** rate constant per reaction *)
  rates : Crn.Rates.t array;  (** symbolic rate per reaction, for re-baking *)
  (* reactant side: slice [r_off.(r) .. r_off.(r+1)-1] of r_sp/r_co *)
  r_off : int array;
  r_sp : int array;
  r_co : int array;
  (* net stoichiometry: slice [s_off.(r) .. s_off.(r+1)-1] of s_sp/s_co *)
  s_off : int array;
  s_sp : int array;
  s_co : float array;
  (* distinct (row, col) entries the Jacobian can touch, for in-place
     evaluation into a matrix whose off-pattern entries stay zero *)
  jac_rows : int array;
  jac_cols : int array;
}

let compile env net =
  let reactions = Crn.Network.reactions net in
  let n = Crn.Network.n_species net in
  let nr = Array.length reactions in
  let k = Array.make nr 0. in
  let rates =
    Array.map (fun rx -> rx.Crn.Reaction.rate) reactions
  in
  let r_off = Array.make (nr + 1) 0 in
  let s_off = Array.make (nr + 1) 0 in
  Array.iteri
    (fun r rx ->
      r_off.(r + 1) <- r_off.(r) + List.length rx.Crn.Reaction.reactants;
      s_off.(r + 1) <- s_off.(r) + List.length (Crn.Reaction.net_stoich rx);
      k.(r) <- Crn.Rates.value env rx.Crn.Reaction.rate)
    reactions;
  let r_sp = Array.make r_off.(nr) 0 in
  let r_co = Array.make r_off.(nr) 0 in
  let s_sp = Array.make s_off.(nr) 0 in
  let s_co = Array.make s_off.(nr) 0. in
  let pattern = Hashtbl.create 64 in
  Array.iteri
    (fun r rx ->
      List.iteri
        (fun i (sp, co) ->
          r_sp.(r_off.(r) + i) <- sp;
          r_co.(r_off.(r) + i) <- co)
        rx.Crn.Reaction.reactants;
      List.iteri
        (fun i (sp, co) ->
          s_sp.(s_off.(r) + i) <- sp;
          s_co.(s_off.(r) + i) <- float_of_int co)
        (Crn.Reaction.net_stoich rx);
      (* Jacobian pattern: each net species row gets a column per reactant *)
      List.iter
        (fun (row, _) ->
          List.iter
            (fun (col, _) -> Hashtbl.replace pattern ((row * n) + col) ())
            rx.Crn.Reaction.reactants)
        (Crn.Reaction.net_stoich rx))
    reactions;
  let jac_rows = Array.make (Hashtbl.length pattern) 0 in
  let jac_cols = Array.make (Hashtbl.length pattern) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun key () ->
      jac_rows.(!i) <- key / n;
      jac_cols.(!i) <- key mod n;
      incr i)
    pattern;
  { n; nr; k; rates; r_off; r_sp; r_co; s_off; s_sp; s_co; jac_rows; jac_cols }

(* Re-bake the rate constants under a different environment, sharing all
   structural arrays (CSR indices, stoichiometry, Jacobian pattern) with
   the source system. k is recomputed through the same [Crn.Rates.value]
   calls [compile] makes, so [with_env (compile env0 net) env] is
   bitwise-equivalent to [compile env net] — this is what lets a
   parameter sweep compile a network once and derive each point's system
   for the cost of one small float array. *)
let with_env sys env =
  { sys with k = Array.map (Crn.Rates.value env) sys.rates }

(* Same structural sharing as [with_env] but with explicitly supplied
   rate constants. The hybrid engine uses this to mask its slow partition
   out of the vector field: it copies the baked constants, zeroes (or
   rescales) the slow reactions' entries, and re-bakes — the CSR arrays,
   stoichiometry and Jacobian pattern are all shared, so a repartition
   costs one nr-sized float array. *)
let with_k sys k =
  if Array.length k <> sys.nr then
    invalid_arg "Deriv.with_k: rate vector length must equal n_reactions";
  { sys with k = Array.copy k }

let rate_constants sys = Array.copy sys.k

let dim sys = sys.n
let n_reactions sys = sys.nr

let pow_int x c =
  (* c is a small positive stoichiometric coefficient *)
  match c with
  | 1 -> x
  | 2 -> x *. x
  | 3 -> x *. x *. x
  | _ -> x ** float_of_int c

let check_state sys x =
  if Array.length x <> sys.n then invalid_arg "Deriv: state dimension mismatch"

(* one reactant factor: x_s ^ c, both loaded unchecked from slot [i] *)
let[@inline] factor_unsafe r_sp r_co x i =
  pow_int
    (Array.unsafe_get x (Array.unsafe_get r_sp i))
    (Array.unsafe_get r_co i)

(* flux of reaction [r] at state [x]; every index loaded from the CSR
   arrays is in range by construction, so accesses are unchecked. The
   0/1/2-reactant cases (all of mass-action chemistry in practice) are
   straight-line float code with no accumulator cell; the left-to-right
   multiply order matches [Reference.flux_of] bitwise. *)
let[@inline] flux_unsafe sys x r =
  let r_sp = sys.r_sp and r_co = sys.r_co in
  let lo = Array.unsafe_get sys.r_off r in
  let hi = Array.unsafe_get sys.r_off (r + 1) in
  let k = Array.unsafe_get sys.k r in
  match hi - lo with
  | 0 -> k
  | 1 -> k *. factor_unsafe r_sp r_co x lo
  | 2 -> k *. factor_unsafe r_sp r_co x lo *. factor_unsafe r_sp r_co x (lo + 1)
  | _ ->
      let acc = ref (k *. factor_unsafe r_sp r_co x lo) in
      for i = lo + 1 to hi - 1 do
        acc := !acc *. factor_unsafe r_sp r_co x i
      done;
      !acc

let f sys _t x dx =
  check_state sys x;
  check_state sys dx;
  Numeric.Vec.fill dx 0.;
  let s_off = sys.s_off and s_sp = sys.s_sp and s_co = sys.s_co in
  for r = 0 to sys.nr - 1 do
    let v = flux_unsafe sys x r in
    let hi = Array.unsafe_get s_off (r + 1) in
    for i = Array.unsafe_get s_off r to hi - 1 do
      let s = Array.unsafe_get s_sp i in
      Array.unsafe_set dx s
        (Array.unsafe_get dx s +. (v *. Array.unsafe_get s_co i))
    done
  done

let eval sys x =
  let dx = Array.make sys.n 0. in
  f sys 0. x dx;
  dx

let jacobian_into sys x jac =
  check_state sys x;
  (* zero exactly the entries the accumulation below can touch; entries
     off the pattern are never written, so a caller-provided zero matrix
     stays correct across repeated calls *)
  for p = 0 to Array.length sys.jac_rows - 1 do
    (Array.unsafe_get jac (Array.unsafe_get sys.jac_rows p)).(Array.unsafe_get
                                                                sys.jac_cols p) <-
      0.
  done;
  for r = 0 to sys.nr - 1 do
    (* d flux / d x_j = k * c_j * x_j^(c_j - 1) * prod_{i<>j} x_i^c_i *)
    let rlo = Array.unsafe_get sys.r_off r in
    let rhi = Array.unsafe_get sys.r_off (r + 1) in
    let slo = Array.unsafe_get sys.s_off r in
    let shi = Array.unsafe_get sys.s_off (r + 1) in
    for jj = rlo to rhi - 1 do
      let sj = Array.unsafe_get sys.r_sp jj in
      let cj = Array.unsafe_get sys.r_co jj in
      let d = ref (Array.unsafe_get sys.k r *. float_of_int cj) in
      if cj > 1 then d := !d *. pow_int (Array.unsafe_get x sj) (cj - 1);
      for ii = rlo to rhi - 1 do
        if ii <> jj then
          d :=
            !d
            *. pow_int
                 (Array.unsafe_get x (Array.unsafe_get sys.r_sp ii))
                 (Array.unsafe_get sys.r_co ii)
      done;
      let d = !d in
      for i = slo to shi - 1 do
        let row = Array.unsafe_get jac (Array.unsafe_get sys.s_sp i) in
        Array.unsafe_set row sj
          (Array.unsafe_get row sj +. (d *. Array.unsafe_get sys.s_co i))
      done
    done
  done

let jacobian sys x =
  let jac = Numeric.Mat.create sys.n sys.n 0. in
  jacobian_into sys x jac;
  jac

let jac_nnz sys = Array.length sys.jac_rows
let jac_pattern sys = (Array.copy sys.jac_rows, Array.copy sys.jac_cols)

let flux sys x i =
  if i < 0 || i >= sys.nr then
    invalid_arg "Deriv.flux: reaction index out of range";
  check_state sys x;
  flux_unsafe sys x i
