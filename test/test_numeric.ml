(* Unit and property tests for the numeric substrate. *)

open Numeric

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ Vec *)

let test_vec_basic () =
  let v = Vec.init 4 (fun i -> float_of_int i) in
  check_float "sum" 6. (Vec.sum v);
  check_float "dot" 14. (Vec.dot v v);
  check_float "norm2" (sqrt 14.) (Vec.norm2 v);
  check_float "norm_inf" 3. (Vec.norm_inf v);
  Alcotest.(check int) "argmax" 3 (Vec.argmax v);
  check_float "max" 3. (Vec.max_elt v);
  check_float "min" 0. (Vec.min_elt v)

let test_vec_ops () =
  let a = [| 1.; 2.; 3. |] and b = [| 10.; 20.; 30. |] in
  Alcotest.(check (array (float 1e-12)))
    "add" [| 11.; 22.; 33. |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12)))
    "sub" [| 9.; 18.; 27. |] (Vec.sub b a);
  Alcotest.(check (array (float 1e-12)))
    "scale" [| 2.; 4.; 6. |] (Vec.scale 2. a);
  let y = Array.copy b in
  Vec.axpy 2. a y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 12.; 24.; 36. |] y;
  check_float "dist_inf" 27. (Vec.dist_inf a b)

let test_vec_clamp () =
  let v = [| -1e-12; 2.; -3.; 0. |] in
  Vec.clamp_nonneg v;
  Alcotest.(check (array (float 0.))) "clamped" [| 0.; 2.; 0.; 0. |] v

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec: dimension mismatch") (fun () ->
      ignore (Vec.add [| 1. |] [| 1.; 2. |]))

let test_vec_empty () =
  Alcotest.check_raises "max of empty" (Invalid_argument "Vec: empty vector")
    (fun () -> ignore (Vec.max_elt [||]))

(* ------------------------------------------------------------------ Mat *)

let test_mat_identity () =
  let i3 = Mat.identity 3 in
  let v = [| 1.; 2.; 3. |] in
  Alcotest.(check (array (float 1e-12))) "I v = v" v (Mat.mul_vec i3 v);
  Alcotest.(check bool) "I * I = I" true (Mat.equal (Mat.mul i3 i3) i3)

let test_mat_mul () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let ab = Mat.mul a b in
  Alcotest.(check bool) "swap columns" true
    (Mat.equal ab [| [| 2.; 1. |]; [| 4.; 3. |] |])

let test_mat_transpose () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  let t = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims t);
  check_float "entry" 12. t.(2).(1)

let test_mat_norm_inf () =
  let a = [| [| 1.; -2. |]; [| 3.; 4. |] |] in
  check_float "max abs row sum" 7. (Mat.norm_inf a)

(* ------------------------------------------------------------------- Lu *)

let test_lu_solve () =
  let a = [| [| 4.; 3. |]; [| 6.; 3. |] |] in
  let b = [| 10.; 12. |] in
  let x = Dense_lu.solve_system a b in
  (* 4x + 3y = 10, 6x + 3y = 12 -> x = 1, y = 2 *)
  check_float "x" 1. x.(0);
  check_float "y" 2. x.(1)

let test_lu_det () =
  let a = [| [| 2.; 0.; 0. |]; [| 0.; 3.; 0. |]; [| 0.; 0.; 4. |] |] in
  check_float "det diag" 24. (Dense_lu.det (Dense_lu.decompose a));
  let p = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_float "det swap" (-1.) (Dense_lu.det (Dense_lu.decompose p))

let test_lu_inverse () =
  let a = [| [| 1.; 2. |]; [| 3.; 5. |] |] in
  let inv = Dense_lu.inverse (Dense_lu.decompose a) in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Mat.equal ~eps:1e-9 (Mat.mul a inv) (Mat.identity 2))

let test_lu_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (Dense_lu.decompose a))

let test_lu_rank () =
  Alcotest.(check int) "full rank" 2 (Dense_lu.rank [| [| 1.; 0. |]; [| 0.; 1. |] |]);
  Alcotest.(check int) "rank deficient" 1
    (Dense_lu.rank [| [| 1.; 2. |]; [| 2.; 4. |] |]);
  Alcotest.(check int) "wide" 2 (Dense_lu.rank [| [| 1.; 0.; 5. |]; [| 0.; 1.; 7. |] |])

let test_lu_nullspace () =
  (* x + y + z with S = [1 1 1] has a 2-dimensional null space *)
  let a = [| [| 1.; 1.; 1. |] |] in
  let basis = Dense_lu.nullspace a in
  Alcotest.(check int) "dim" 2 (List.length basis);
  List.iter
    (fun v ->
      let residual = Vec.norm_inf (Mat.mul_vec a v) in
      Alcotest.(check bool) "A v = 0" true (residual < 1e-9))
    basis

let test_lu_nullspace_trivial () =
  Alcotest.(check int) "invertible has trivial null space" 0
    (List.length (Dense_lu.nullspace [| [| 1.; 2. |]; [| 3.; 5. |] |]))

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.uint64 a = Rng.uint64 b)
  done

let test_rng_float_range () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let n = 20000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r 2.
  done;
  check_float_loose 0.02 "mean ~ 1/rate" 0.5 (!acc /. float_of_int n)

let test_rng_pick_weighted () =
  let r = Rng.create 13L in
  let hits = Array.make 3 0 in
  for _ = 1 to 30000 do
    let i = Rng.pick_weighted r [| 1.; 0.; 3. |] in
    hits.(i) <- hits.(i) + 1
  done;
  Alcotest.(check int) "zero weight never picked" 0 hits.(1);
  let ratio = float_of_int hits.(2) /. float_of_int hits.(0) in
  Alcotest.(check bool) "ratio ~ 3" true (ratio > 2.6 && ratio < 3.4)

let test_rng_split_independent () =
  let parent = Rng.create 17L in
  let child = Rng.split parent in
  let a = Rng.uint64 parent and b = Rng.uint64 child in
  Alcotest.(check bool) "streams differ" true (a <> b)

(* ---------------------------------------------------------------- Stats *)

let test_stats_basic () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "median even" 2.5 (Stats.median xs);
  check_float "median odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  check_float "variance" (5. /. 3.) (Stats.variance xs);
  check_float "min" 1. (Stats.minimum xs);
  check_float "max" 4. (Stats.maximum xs);
  check_float "rms" (sqrt 7.5) (Stats.rms xs)

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "p0" 10. (Stats.percentile xs 0.);
  check_float "p50" 30. (Stats.percentile xs 50.);
  check_float "p100" 50. (Stats.percentile xs 100.);
  check_float "p25" 20. (Stats.percentile xs 25.)

let test_stats_singleton () =
  check_float "variance of 1" 0. (Stats.variance [| 5. |]);
  check_float "percentile of 1" 5. (Stats.percentile [| 5. |] 75.)

(* --------------------------------------------------------------- Interp *)

let test_interp_at () =
  let times = [| 0.; 1.; 2. |] and values = [| 0.; 10.; 0. |] in
  check_float "midpoint" 5. (Interp.at ~times ~values 0.5);
  check_float "node" 10. (Interp.at ~times ~values 1.);
  check_float "before" 0. (Interp.at ~times ~values (-1.));
  check_float "after" 0. (Interp.at ~times ~values 5.)

let test_interp_grid () =
  let g = Interp.uniform_grid ~t0:0. ~t1:1. ~n:5 in
  Alcotest.(check (array (float 1e-12)))
    "grid" [| 0.; 0.25; 0.5; 0.75; 1. |] g

let test_interp_max_abs_diff () =
  let times = [| 0.; 1. |] in
  let d =
    Interp.max_abs_diff ~times_a:times ~values_a:[| 0.; 1. |] ~times_b:times
      ~values_b:[| 0.; 2. |] ~n:11
  in
  check_float "max diff at endpoint" 1. d

(* ------------------------------------------------------- property tests *)

let qcheck_tests =
  let open QCheck in
  let vec_gen n = Gen.array_size (Gen.return n) (Gen.float_bound_exclusive 100.) in
  [
    Test.make ~name:"lu: solve then multiply recovers rhs" ~count:100
      (make
         Gen.(
           let n = 3 in
           pair
             (array_size (return (n * n)) (Gen.float_range (-10.) 10.))
             (vec_gen n)))
      (fun (entries, b) ->
        let a = Mat.init 3 3 (fun i j -> entries.((3 * i) + j)) in
        (* make strictly diagonally dominant so it is invertible *)
        for i = 0 to 2 do
          a.(i).(i) <- a.(i).(i) +. 50.
        done;
        let x = Dense_lu.solve_system a b in
        Vec.dist_inf (Mat.mul_vec a x) b < 1e-6);
    Test.make ~name:"interp: at sample nodes returns samples" ~count:100
      (make Gen.(array_size (int_range 2 20) (Gen.float_bound_exclusive 10.)))
      (fun values ->
        let times = Array.init (Array.length values) float_of_int in
        Array.for_all
          (fun i ->
            Float.abs (Interp.at ~times ~values times.(i) -. values.(i))
            < 1e-12)
          (Array.init (Array.length values) (fun i -> i)));
    Test.make ~name:"stats: mean within min..max" ~count:200
      (make Gen.(array_size (int_range 1 50) (Gen.float_range (-5.) 5.)))
      (fun xs ->
        let m = Stats.mean xs in
        m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9);
    Test.make ~name:"vec: norm_inf of scale" ~count:200
      (make Gen.(pair (Gen.float_range (-3.) 3.) (array_size (int_range 1 20) (Gen.float_range (-10.) 10.))))
      (fun (s, v) ->
        Float.abs (Vec.norm_inf (Vec.scale s v) -. (Float.abs s *. Vec.norm_inf v))
        < 1e-9);
  ]

let suite =
  [
    ("vec basic", `Quick, test_vec_basic);
    ("vec ops", `Quick, test_vec_ops);
    ("vec clamp", `Quick, test_vec_clamp);
    ("vec dim mismatch", `Quick, test_vec_dim_mismatch);
    ("vec empty", `Quick, test_vec_empty);
    ("mat identity", `Quick, test_mat_identity);
    ("mat mul", `Quick, test_mat_mul);
    ("mat transpose", `Quick, test_mat_transpose);
    ("mat norm_inf", `Quick, test_mat_norm_inf);
    ("lu solve", `Quick, test_lu_solve);
    ("lu det", `Quick, test_lu_det);
    ("lu inverse", `Quick, test_lu_inverse);
    ("lu singular", `Quick, test_lu_singular);
    ("lu rank", `Quick, test_lu_rank);
    ("lu nullspace", `Quick, test_lu_nullspace);
    ("lu nullspace trivial", `Quick, test_lu_nullspace_trivial);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng pick weighted", `Quick, test_rng_pick_weighted);
    ("rng split", `Quick, test_rng_split_independent);
    ("stats basic", `Quick, test_stats_basic);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats singleton", `Quick, test_stats_singleton);
    ("interp at", `Quick, test_interp_at);
    ("interp grid", `Quick, test_interp_grid);
    ("interp max_abs_diff", `Quick, test_interp_max_abs_diff);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
