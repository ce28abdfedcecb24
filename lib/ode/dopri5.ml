type stats = { steps : int; rejected : int; evals : int }

(* Dormand-Prince 5(4) Butcher tableau *)
let c2 = 0.2
let c3 = 0.3
let c4 = 0.8
let c5 = 8. /. 9.

let a21 = 0.2
let a31 = 3. /. 40.
let a32 = 9. /. 40.
let a41 = 44. /. 45.
let a42 = -56. /. 15.
let a43 = 32. /. 9.
let a51 = 19372. /. 6561.
let a52 = -25360. /. 2187.
let a53 = 64448. /. 6561.
let a54 = -212. /. 729.
let a61 = 9017. /. 3168.
let a62 = -355. /. 33.
let a63 = 46732. /. 5247.
let a64 = 49. /. 176.
let a65 = -5103. /. 18656.

(* 5th-order solution weights, which also form the seventh tableau row *)
let b1 = 35. /. 384.
let b3 = 500. /. 1113.
let b4 = 125. /. 192.
let b5 = -2187. /. 6784.
let b6 = 11. /. 84.

(* difference between 5th- and 4th-order weights, for the error estimate *)
let e1 = b1 -. (5179. /. 57600.)
let e3 = b3 -. (7571. /. 16695.)
let e4 = b4 -. (393. /. 640.)
let e5 = b5 -. (-92097. /. 339200.)
let e6 = b6 -. (187. /. 2100.)
let e7 = -1. /. 40.

let initial_step sys t0 x0 rtol atol =
  (* standard cheap heuristic: h ~ 0.01 * |x| / |f| in the tolerance norm *)
  let f0 = Deriv.eval sys x0 in
  ignore t0;
  let wnorm v =
    let n = Array.length v in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let sc = atol +. (rtol *. Float.abs x0.(i)) in
      let r = v.(i) /. sc in
      acc := !acc +. (r *. r)
    done;
    sqrt (!acc /. float_of_int n)
  in
  let d0 = wnorm x0 and d1 = wnorm f0 in
  if d0 < 1e-5 || d1 < 1e-5 then 1e-6 else 0.01 *. (d0 /. d1)

(* All per-integration storage, preallocatable by the caller so repeated
   integrations allocate nothing per run. Every array is fully rewritten
   before it is read (the state is blitted from [x0], each stage vector
   is written by [eval] before use), so workspace reuse is
   bitwise-invisible in the results. The FSAL pointer swap only
   exchanges which array plays k1 vs k7 within one run; each new run
   re-seeds both refs from the workspace fields and overwrites k1
   immediately. *)
type workspace = {
  ws_n : int;
  ws_x : float array;
  ws_k1 : float array;
  ws_k2 : float array;
  ws_k3 : float array;
  ws_k4 : float array;
  ws_k5 : float array;
  ws_k6 : float array;
  ws_k7 : float array;
  ws_tmp : float array;
  ws_xnew : float array;
}

let workspace n =
  if n < 1 then invalid_arg "Dopri5.workspace: n must be >= 1";
  {
    ws_n = n;
    ws_x = Array.make n 0.;
    ws_k1 = Array.make n 0.;
    ws_k2 = Array.make n 0.;
    ws_k3 = Array.make n 0.;
    ws_k4 = Array.make n 0.;
    ws_k5 = Array.make n 0.;
    ws_k6 = Array.make n 0.;
    ws_k7 = Array.make n 0.;
    ws_tmp = Array.make n 0.;
    ws_xnew = Array.make n 0.;
  }

(* Loop-top mid-run state. [ck_k1] must be saved, not recomputed: FSAL
   hands the next step the seventh-stage evaluation, which was taken at
   the {e unclamped} new state — after clamping, [f t x] can differ from
   it, so a recomputation would fork the trajectory. *)
type checkpoint = {
  ck_t : float;
  ck_x : float array;
  ck_h : float;
  ck_k1 : float array;
  ck_steps : int;
  ck_rejected : int;
  ck_evals : int;
}

let integrate ?(rtol = 1e-6) ?(atol = 1e-9) ?h0 ?(max_steps = 10_000_000)
    ?(cancel = Numeric.Cancel.never) ?ws ?resume ?on_cancel ~t0 ~t1 ~on_sample
    sys x0 =
  if t1 < t0 then invalid_arg "Dopri5.integrate: t1 < t0";
  let n = Deriv.dim sys in
  let ws =
    match ws with
    | Some ws ->
        if ws.ws_n <> n then
          invalid_arg "Dopri5.integrate: workspace dimension mismatch";
        ws
    | None -> workspace n
  in
  let x = ws.ws_x in
  Numeric.Vec.blit ~src:x0 ~dst:x;
  (* k1 and k7 are swapped on acceptance (FSAL: the last stage of an
     accepted step evaluates f at the new state, which is exactly the
     first stage of the next step), so both live in refs *)
  let rk1 = ref ws.ws_k1 in
  let k2 = ws.ws_k2 in
  let k3 = ws.ws_k3 in
  let k4 = ws.ws_k4 in
  let k5 = ws.ws_k5 in
  let k6 = ws.ws_k6 in
  let rk7 = ref ws.ws_k7 in
  let tmp = ws.ws_tmp in
  let xnew = ws.ws_xnew in
  let evals = ref 0 in
  let eval t y k =
    incr evals;
    Deriv.f sys t y k
  in
  let t = ref t0 in
  let h = ref (match h0 with Some h -> h | None -> initial_step sys t0 x rtol atol) in
  let steps = ref 0 and rejected = ref 0 in
  (match resume with
  | None ->
      on_sample !t x;
      eval !t x !rk1 (* FSAL seed: the only stage-1 evaluation of the run *)
  | Some ck ->
      if Array.length ck.ck_x <> n || Array.length ck.ck_k1 <> n then
        invalid_arg "Dopri5.integrate: checkpoint dimension mismatch";
      Numeric.Vec.blit ~src:ck.ck_x ~dst:x;
      Numeric.Vec.blit ~src:ck.ck_k1 ~dst:!rk1;
      t := ck.ck_t;
      h := ck.ck_h;
      steps := ck.ck_steps;
      rejected := ck.ck_rejected;
      evals := ck.ck_evals);
  let capture () =
    {
      ck_t = !t;
      ck_x = Array.copy x;
      ck_h = !h;
      ck_k1 = Array.copy !rk1;
      ck_steps = !steps;
      ck_rejected = !rejected;
      ck_evals = !evals;
    }
  in
  while !t < t1 -. 1e-12 do
    (try Numeric.Cancel.guard cancel
     with Numeric.Cancel.Cancelled ->
       (match on_cancel with Some f -> f (capture ()) | None -> ());
       raise Numeric.Cancel.Cancelled);
    if !steps >= max_steps then
      Solver_error.raise_ ~solver:"Dopri5" ~t:!t
        (Solver_error.Max_steps max_steps);
    (* negated so that a NaN step size also counts as underflow *)
    if not (!h >= 1e-14 *. Float.max 1. (Float.abs !t)) then
      Solver_error.raise_ ~solver:"Dopri5" ~t:!t Solver_error.Step_underflow;
    let hh = Float.min !h (t1 -. !t) in
    let k1 = !rk1 and k7 = !rk7 in
    let stage coeffs k_out c =
      for i = 0 to n - 1 do
        let acc = ref 0. in
        List.iter (fun (a, (k : float array)) -> acc := !acc +. (a *. k.(i))) coeffs;
        tmp.(i) <- x.(i) +. (hh *. !acc)
      done;
      eval (!t +. (c *. hh)) tmp k_out
    in
    stage [ (a21, k1) ] k2 c2;
    stage [ (a31, k1); (a32, k2) ] k3 c3;
    stage [ (a41, k1); (a42, k2); (a43, k3) ] k4 c4;
    stage [ (a51, k1); (a52, k2); (a53, k3); (a54, k4) ] k5 c5;
    stage [ (a61, k1); (a62, k2); (a63, k3); (a64, k4); (a65, k5) ] k6 1.;
    (* 5th-order solution (b2 = b7 = 0) *)
    for i = 0 to n - 1 do
      xnew.(i) <-
        x.(i)
        +. hh
           *. ((b1 *. k1.(i)) +. (b3 *. k3.(i)) +. (b4 *. k4.(i))
              +. (b5 *. k5.(i)) +. (b6 *. k6.(i)))
    done;
    eval (!t +. hh) xnew k7;
    (* weighted RMS error norm *)
    let finite = ref true in
    let err =
      let acc = ref 0. in
      for i = 0 to n - 1 do
        let e =
          hh
          *. ((e1 *. k1.(i)) +. (e3 *. k3.(i)) +. (e4 *. k4.(i))
             +. (e5 *. k5.(i)) +. (e6 *. k6.(i)) +. (e7 *. k7.(i)))
        in
        let sc =
          atol +. (rtol *. Float.max (Float.abs x.(i)) (Float.abs xnew.(i)))
        in
        let r = e /. sc in
        acc := !acc +. (r *. r);
        if not (Float.is_finite xnew.(i)) then finite := false
      done;
      sqrt (!acc /. float_of_int n)
    in
    (* an overflowed candidate or error estimate is a failed step, not a
       NaN step size: shrink h as far as one rejection may, so a real
       blow-up ends in [Step_underflow] *)
    let finite = !finite && Float.is_finite err in
    if finite && err <= 1. then begin
      t := !t +. hh;
      Numeric.Vec.clamp_nonneg xnew;
      Numeric.Vec.blit ~src:xnew ~dst:x;
      (* FSAL: swap the buffers so k7 becomes the next step's k1 — a
         pointer exchange, not a copy *)
      rk1 := k7;
      rk7 := k1;
      incr steps;
      on_sample !t x
    end
    else incr rejected;
    let factor =
      if not finite then 0.2
      else if err = 0. then 5.
      else Float.min 5. (Float.max 0.2 (0.9 *. (err ** -0.2)))
    in
    h := hh *. factor
  done;
  (Array.copy x, { steps = !steps; rejected = !rejected; evals = !evals })
