(* Numeric.Lu against the textbook dense loop (Dense_lu), the oracle it
   must equal entry for entry under Float.equal: the same permutation,
   sign, factor, Singular verdict and solutions, on random square
   matrices shaped like the integrator's W = I - gamma h J and salted
   with the inputs where skipping zero work could go wrong (signed
   zeros, NaN, infinities, tied magnitudes, exact singularity, pivots at
   the 1e-300 threshold). Both ways of loading the workspace
   (refactor from the dense W, refactor_shifted from the pattern) are
   checked, each factoring two matrices in a row so that loading runs
   over a previous factor. A failing case prints its seed; rerun it
   with LU_REPLAY_SEED=<seed>.

   Also here: the multiply-adds the factorization reports equal the
   oracle's nonzero updates on W matrices taken along real Rosenbrock
   runs, and stay a small fraction of the dense count. *)

open Numeric

let gamma = 1. +. (1. /. sqrt 2.)

(* --------------------------------------------------- random matrices *)

(* A W-shaped case: a Jacobian-like m, zero off its pattern (rows,
   cols), and the scale s of W = I - s m. *)
type shifted = { s : float; m : Mat.t; rows : int array; cols : int array }

let dense_w { s; m; _ } =
  let n = Array.length m in
  Mat.init n n (fun i j -> (if i = j then 1. else 0.) -. (s *. m.(i).(j)))

let random_shifted st n =
  let int k = Random.State.int st k and float x = Random.State.float st x in
  let density = 0.02 +. float 0.98 in
  (* a power-of-two scale and values from a short list keep W's
     entries exact, so columns repeat magnitudes *)
  let ties = int 3 = 0 in
  let value () =
    if ties then [| 1.; -1.; 2.; -2.; 0.5 |].(int 5)
    else (if Random.State.bool st then 1. else -1.) *. (10. ** (float 8. -. 4.))
  in
  let s =
    if int 50 = 0 then [| Float.infinity; Float.nan |].(int 2)
    else if ties || int 4 = 0 then [| 1.; 0.5; 2. |].(int 3)
    else gamma *. (10. ** (float 6. -. 4.))
  in
  let m = Mat.create n n 0. in
  let on = Array.make_matrix n n false in
  let put i j v =
    m.(i).(j) <- v;
    on.(i).(j) <- true
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if float 1. < density then put i j (value ())
    done
  done;
  if int 4 = 0 then
    for _ = 1 to 1 + int 3 do
      (* a NaN on the diagonal can become a pivot: the first row of
         largest magnitude never moves past it *)
      let i = int n in
      let j = if Random.State.bool st then i else int n in
      put i j
        [| 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity |].(int 5)
    done;
  (* with s = 1, m(c, c) = 1 zeroes W's diagonal entry c *)
  let zero_diag c =
    if s = 1. then put c c 1.
  in
  (match int 6 with
  | 0 ->
      (* exactly singular: a zero row of W *)
      let r = int n in
      Array.fill m.(r) 0 n 0.;
      zero_diag r
  | 1 ->
      (* exactly singular: a zero column of W *)
      let c = int n in
      for i = 0 to n - 1 do
        m.(i).(c) <- 0.
      done;
      zero_diag c
  | 2 ->
      (* a column of W at the Singular threshold *)
      let c = int n in
      for i = 0 to n - 1 do
        m.(i).(c) <- m.(i).(c) *. 1e-300 *. float 3.
      done;
      zero_diag c
  | _ -> ());
  let pattern = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      (* the pattern may list structural zeros, and need not list the
         diagonal *)
      if on.(i).(j) && (i <> j || int 2 = 0) then pattern := (i, j) :: !pattern
    done
  done;
  (* only [put] writes off the diagonal, so m is zero off the pattern *)
  let p = Array.of_list !pattern in
  { s; m; rows = Array.map fst p; cols = Array.map snd p }

(* a copy of [w] with one row repeating another *)
let repeat_row st w =
  let n = Array.length w in
  let w = Mat.copy w in
  let i = Random.State.int st n and j = Random.State.int st n in
  if i <> j then Array.blit w.(i) 0 w.(j) 0 n;
  w

let random_rhs st n =
  let b = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
  let c = Array.copy b in
  c.(Random.State.int st n) <-
    [| Float.nan; Float.infinity; Float.neg_infinity |].(Random.State.int st 3);
  [ b; c; Array.make n 0. ]

(* ------------------------------------------------------- comparison *)

let outcome f = match f () with () -> `Ok | exception Lu.Singular -> `Singular

(* [None] when [load lu] leaves the factor the oracle makes of [a];
   otherwise what differs *)
let compare_case ~load lu a rhs =
  let n = Array.length a in
  let o = Dense_lu.workspace n in
  match
    (outcome (fun () -> Dense_lu.refactor o a), outcome (fun () -> load lu))
  with
  | `Singular, `Singular -> None
  | `Ok, `Singular -> Some "Singular raised, the oracle factors"
  | `Singular, `Ok -> Some "factored, the oracle raises Singular"
  | `Ok, `Ok ->
      let err = ref None in
      let fail fmt =
        Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt
      in
      if Lu.perm lu <> o.Dense_lu.perm then fail "perm differs";
      if Lu.sign lu <> o.Dense_lu.sign then fail "sign differs";
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let got = Lu.entry lu i j and want = o.Dense_lu.lu.(i).(j) in
          if not (Float.equal got want) then
            fail "entry (%d, %d): %h, oracle %h" i j got want
        done
      done;
      if Lu.madds lu <> Dense_lu.useful_madds o then
        fail "madds %d, oracle %d" (Lu.madds lu) (Dense_lu.useful_madds o);
      List.iteri
        (fun r b ->
          let x = Array.make n 0. and y = Array.make n 0. in
          Lu.solve_into lu b x;
          Dense_lu.solve_into o b y;
          Array.iteri
            (fun i xi ->
              if not (Float.equal xi y.(i)) then
                fail "rhs %d: x(%d) = %h, oracle %h" r i xi y.(i))
            x)
        rhs;
      !err

let lu_case seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 70 in
  (* a second case of the same size, factored into the same
     workspaces, so loading runs over a previous factor *)
  let c1 = random_shifted st n in
  let c2 = random_shifted st n in
  let rhs = random_rhs st n in
  let dense = Lu.workspace n and shifted = Lu.workspace n in
  let w1 = dense_w c1 and w2 = dense_w c2 in
  let w3 = repeat_row st w2 in
  let by_refactor w lu = Lu.refactor lu w in
  let by_shift c lu =
    Lu.refactor_shifted lu c.s c.m ~rows:c.rows ~cols:c.cols
  in
  let failure =
    List.find_map
      (fun (what, w, load, lu) ->
        Option.map
          (fun why -> Printf.sprintf "%s: %s" what why)
          (compare_case ~load lu w rhs))
      [
        ("first W, refactor", w1, by_refactor w1, dense);
        ("first W, refactor_shifted", w1, by_shift c1, shifted);
        ("second W, refactor", w2, by_refactor w2, dense);
        ("second W, refactor_shifted", w2, by_shift c2, shifted);
        ("second W with a repeated row, refactor", w3, by_refactor w3, dense);
      ]
  in
  match failure with
  | None -> true
  | Some why ->
      QCheck.Test.fail_reportf
        "seed %d (n = %d): %s (rerun with LU_REPLAY_SEED=%d)" seed n why seed

let test_lu_replay () =
  match Sys.getenv_opt "LU_REPLAY_SEED" with
  | None -> ()
  | Some s -> ignore (lu_case (int_of_string s) : bool)

(* ------------------------------------------------- work along runs *)

(* Every 50th accepted step of a one-period Rosenbrock run gives a W:
   the state the step started from, and the step size that reached the
   next state. Each is factored the way the integrator does, from the
   Jacobian's pattern, and by the oracle from the dense W. *)
let test_madds_along_runs () =
  List.iter
    (fun (name, t1) ->
      let net = Designs.Catalog.build name in
      let sys = Ode.Deriv.compile Crn.Rates.default_env net in
      let n = Ode.Deriv.dim sys in
      let rows, cols = Ode.Deriv.jac_pattern sys in
      let steps = ref [] in
      ignore
        (Ode.Rosenbrock.integrate ~t0:0. ~t1
           ~on_sample:(fun t x -> steps := (t, Array.copy x) :: !steps)
           sys (Crn.Network.initial_state net));
      let steps = Array.of_list (List.rev !steps) in
      let lu = Lu.workspace n in
      let dense = n * (n - 1) * ((2 * n) - 1) / 6 in
      let captured = (Array.length steps - 1) / 50 in
      Alcotest.(check bool)
        (name ^ ": W matrices captured") true (captured > 0);
      for c = 0 to captured - 1 do
        let t, x = steps.(c * 50) and t', _ = steps.((c * 50) + 1) in
        let m =
          { s = gamma *. (t' -. t); m = Ode.Deriv.jacobian sys x; rows; cols }
        in
        let o = Dense_lu.decompose (dense_w m) in
        Lu.refactor_shifted lu m.s m.m ~rows ~cols;
        Alcotest.(check int)
          (name ^ ": madds = oracle's nonzero updates")
          (Dense_lu.useful_madds o) (Lu.madds lu);
        if name = "biquad" then
          Alcotest.(check bool)
            (Printf.sprintf "biquad: %d madds < 1%% of dense %d" (Lu.madds lu)
               dense)
            true
            (100 * Lu.madds lu < dense)
      done)
    [ ("clock4", 6.); ("lfsr4", 6.); ("rx-counter3", 4.5); ("biquad", 6.) ]

let suite =
  [
    ( "factor equals the dense oracle",
      `Quick,
      fun () ->
        QCheck.Test.check_exn
          (QCheck.Test.make ~count:1000
             ~name:"lu vs dense oracle (the printed int is the seed)"
             QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
             lu_case) );
    ("replay", `Quick, test_lu_replay);
    ("madds along rosenbrock runs", `Quick, test_madds_along_runs);
  ]
