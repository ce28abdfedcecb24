type stats = {
  steps : int;
  rejected : int;
  factorizations : int;
  jac_evals : int;
  jac_reused : int;
}

let gamma = 1. +. (1. /. sqrt 2.)

(* All per-integration storage, preallocatable by the caller so repeated
   integrations (sweep points, service requests) allocate nothing per
   run. Every array is fully (re)written before it is read — the state
   is blitted from [x0], the Jacobian matrix is zeroed wholesale at the
   start of [integrate] (so a workspace may even be reused across
   systems with different sparsity patterns), W is rewritten whole into
   the LU workspace, and the stage vectors are written by the stepper
   before use — so workspace reuse is bitwise-invisible in the
   results. *)
type workspace = {
  ws_n : int;
  ws_x : float array;
  ws_fx : float array;
  ws_jac : Numeric.Mat.t;
  ws_lu : Numeric.Lu.t;
  ws_k1 : float array;
  ws_k2 : float array;
  ws_x1 : float array;
  ws_rhs2 : float array;
  ws_xnew : float array;
}

let workspace n =
  if n < 1 then invalid_arg "Rosenbrock.workspace: n must be >= 1";
  {
    ws_n = n;
    ws_x = Array.make n 0.;
    ws_fx = Array.make n 0.;
    ws_jac = Numeric.Mat.create n n 0.;
    ws_lu = Numeric.Lu.workspace n;
    ws_k1 = Array.make n 0.;
    ws_k2 = Array.make n 0.;
    ws_x1 = Array.make n 0.;
    ws_rhs2 = Array.make n 0.;
    ws_xnew = Array.make n 0.;
  }

(* ROS2 (Verwer et al.): with W = I - gamma h J,
     W k1 = f(x)
     W k2 = f(x + h k1) - 2 k1
     x' = x + (h/2) (3 k1 + k2)
   The first-order embedded solution x + h k1 yields the error estimate
   (h/2) (k1 + k2).

   All per-step storage — the Jacobian, the LU workspace, and the
   stage vectors — is allocated once up front: the Jacobian is written
   in place over its sparsity pattern ({!Deriv.jacobian_into}), and W
   is written straight into the reused {!Numeric.Lu} workspace on the
   diagonal and that pattern only ({!Numeric.Lu.refactor_shifted}):
   every other entry of W is 0 - gamma h * 0 = +0. The Jacobian
   depends only on the state, so after a step-size rejection (state
   unchanged, only h shrank) it is reused rather than rebuilt;
   [jac_reused] counts the rebuilds saved that way, while
   [factorizations] counts actual LU factorizations of W (which must be
   redone whenever h changes, since W depends on h). *)
(* Loop-top mid-run state. The Jacobian matrix itself is not captured:
   it depends only on [x], so when [ck_jac_fresh] says the interrupted
   run held a current factorization-input, resume rebuilds it from the
   restored state — bitwise the same matrix — without touching the
   [jac_evals]/[jac_reused] counters (they are restored verbatim). *)
type checkpoint = {
  ck_t : float;
  ck_x : float array;
  ck_h : float;
  ck_steps : int;
  ck_rejected : int;
  ck_factorizations : int;
  ck_jac_evals : int;
  ck_jac_reused : int;
  ck_jac_fresh : bool;
}

let integrate ?(rtol = 1e-4) ?(atol = 1e-7) ?h0 ?(max_steps = 5_000_000)
    ?(cancel = Numeric.Cancel.never) ?ws ?resume ?on_cancel ~t0 ~t1 ~on_sample
    sys x0 =
  if t1 < t0 then invalid_arg "Rosenbrock.integrate: t1 < t0";
  let n = Deriv.dim sys in
  let ws =
    match ws with
    | Some ws ->
        if ws.ws_n <> n then
          invalid_arg "Rosenbrock.integrate: workspace dimension mismatch";
        (* jacobian_into only rewrites the system's sparsity pattern; a
           workspace that previously served a different system may hold
           stale entries off this pattern, so clear the matrix outright *)
        Array.iter (fun row -> Array.fill row 0 n 0.) ws.ws_jac;
        ws
    | None -> workspace n
  in
  let x = ws.ws_x in
  Numeric.Vec.blit ~src:x0 ~dst:x;
  let fx = ws.ws_fx in
  let jac = ws.ws_jac in
  let jrows, jcols = Deriv.jac_pattern sys in
  let lu = ws.ws_lu in
  let k1 = ws.ws_k1 in
  let k2 = ws.ws_k2 in
  let x1 = ws.ws_x1 in
  let rhs2 = ws.ws_rhs2 in
  let xnew = ws.ws_xnew in
  let t = ref t0 in
  let h = ref (match h0 with Some h -> h | None -> (t1 -. t0) /. 100.) in
  let steps = ref 0 and rejected = ref 0 and factorizations = ref 0 in
  let jac_evals = ref 0 and jac_reused = ref 0 in
  let jac_fresh = ref false in
  (match resume with
  | None -> on_sample !t x
  | Some ck ->
      if Array.length ck.ck_x <> n then
        invalid_arg "Rosenbrock.integrate: checkpoint dimension mismatch";
      Numeric.Vec.blit ~src:ck.ck_x ~dst:x;
      t := ck.ck_t;
      h := ck.ck_h;
      steps := ck.ck_steps;
      rejected := ck.ck_rejected;
      factorizations := ck.ck_factorizations;
      jac_evals := ck.ck_jac_evals;
      jac_reused := ck.ck_jac_reused;
      if ck.ck_jac_fresh then begin
        Deriv.jacobian_into sys x jac;
        jac_fresh := true
      end);
  let capture () =
    {
      ck_t = !t;
      ck_x = Array.copy x;
      ck_h = !h;
      ck_steps = !steps;
      ck_rejected = !rejected;
      ck_factorizations = !factorizations;
      ck_jac_evals = !jac_evals;
      ck_jac_reused = !jac_reused;
      ck_jac_fresh = !jac_fresh;
    }
  in
  while !t < t1 -. 1e-12 do
    (try Numeric.Cancel.guard cancel
     with Numeric.Cancel.Cancelled ->
       (match on_cancel with Some f -> f (capture ()) | None -> ());
       raise Numeric.Cancel.Cancelled);
    if !steps >= max_steps then
      Solver_error.raise_ ~solver:"Rosenbrock" ~t:!t
        (Solver_error.Max_steps max_steps);
    (* negated so that a NaN step size also counts as underflow *)
    if not (!h >= 1e-14 *. Float.max 1. (Float.abs !t)) then
      Solver_error.raise_ ~solver:"Rosenbrock" ~t:!t Solver_error.Step_underflow;
    let hh = Float.min !h (t1 -. !t) in
    if !jac_fresh then incr jac_reused
    else begin
      Deriv.jacobian_into sys x jac;
      incr jac_evals;
      jac_fresh := true
    end;
    (match
       Numeric.Lu.refactor_shifted lu (gamma *. hh) jac ~rows:jrows
         ~cols:jcols
     with
    | exception Numeric.Lu.Singular ->
        (* halve the step: a singular W means gamma*h*J hit an eigenvalue *)
        h := hh /. 2.;
        incr rejected
    | () ->
        incr factorizations;
        Deriv.f sys !t x fx;
        Numeric.Lu.solve_into lu fx k1;
        Numeric.Vec.blit ~src:x ~dst:x1;
        Numeric.Vec.axpy hh k1 x1;
        Deriv.f sys (!t +. hh) x1 fx;
        for i = 0 to n - 1 do
          rhs2.(i) <- fx.(i) -. (2. *. k1.(i))
        done;
        Numeric.Lu.solve_into lu rhs2 k2;
        for i = 0 to n - 1 do
          xnew.(i) <- x.(i) +. (hh /. 2. *. ((3. *. k1.(i)) +. k2.(i)))
        done;
        let finite = ref true in
        let err =
          let acc = ref 0. in
          for i = 0 to n - 1 do
            let e = hh /. 2. *. (k1.(i) +. k2.(i)) in
            let sc =
              atol +. (rtol *. Float.max (Float.abs x.(i)) (Float.abs xnew.(i)))
            in
            let r = e /. sc in
            acc := !acc +. (r *. r);
            if not (Float.is_finite xnew.(i)) then finite := false
          done;
          sqrt (!acc /. float_of_int n)
        in
        (* an overflowed candidate or error estimate is a failed step,
           not a NaN step size: shrink h as far as one rejection may, so
           a real blow-up ends in [Step_underflow] *)
        let finite = !finite && Float.is_finite err in
        if finite && err <= 1. then begin
          t := !t +. hh;
          Numeric.Vec.clamp_nonneg xnew;
          Numeric.Vec.blit ~src:xnew ~dst:x;
          jac_fresh := false;
          incr steps;
          on_sample !t x
        end
        else incr rejected;
        let factor =
          if not finite then 0.2
          else if err = 0. then 3.
          else Float.min 3. (Float.max 0.2 (0.9 /. sqrt err))
        in
        h := hh *. factor)
  done;
  ( Array.copy x,
    {
      steps = !steps;
      rejected = !rejected;
      factorizations = !factorizations;
      jac_evals = !jac_evals;
      jac_reused = !jac_reused;
    } )
