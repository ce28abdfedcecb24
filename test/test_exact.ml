(* The exact-arithmetic kernel: bignums, rationals, fraction-free
   elimination — and the property that anchors the whole tier: the
   exact conservation basis agrees with the float path on random
   networks. *)

open Exact

let zt = Alcotest.testable (Fmt.of_to_string Z.to_string) Z.equal

(* ------------------------------------------------------------------- Z *)

let test_z_basics () =
  Alcotest.check zt "0 + 0" Z.zero (Z.add Z.zero Z.zero);
  Alcotest.check zt "1 + -1" Z.zero (Z.add Z.one Z.minus_one);
  Alcotest.(check string) "min_int survives of_int" (string_of_int min_int)
    (Z.to_string (Z.of_int min_int));
  Alcotest.(check (option int)) "to_int_opt round trip" (Some (-123456))
    (Z.to_int_opt (Z.of_int (-123456)));
  Alcotest.(check int) "compare orders" (-1)
    (Z.compare (Z.of_int 7) (Z.of_int 8))

let test_z_big () =
  (* 30! has 33 digits — far past one limb chain of native products *)
  let fact n =
    let rec go acc k = if k > n then acc else go (Z.mul acc (Z.of_int k)) (k + 1) in
    go Z.one 2
  in
  Alcotest.(check string) "30!" "265252859812191058636308480000000"
    (Z.to_string (fact 30));
  let f20 = fact 20 in
  Alcotest.check zt "30!/20! * 20! = 30!" (fact 30)
    (Z.mul (Z.divexact (fact 30) f20) f20);
  Alcotest.(check string) "of_string inverts to_string"
    (Z.to_string (fact 25))
    (Z.to_string (Z.of_string (Z.to_string (fact 25))))

let test_z_divmod () =
  let q, r = Z.divmod (Z.of_int (-7)) (Z.of_int 2) in
  (* truncated (C) semantics: -7 = -3 * 2 + -1 *)
  Alcotest.check zt "quotient" (Z.of_int (-3)) q;
  Alcotest.check zt "remainder" (Z.of_int (-1)) r;
  Alcotest.check zt "gcd(12, -18)" (Z.of_int 6)
    (Z.gcd (Z.of_int 12) (Z.of_int (-18)));
  Alcotest.check_raises "divexact refuses a remainder"
    (Invalid_argument "Z.divexact: inexact division") (fun () ->
      ignore (Z.divexact (Z.of_int 7) (Z.of_int 2)))

(* ------------------------------------------------------------------- Q *)

let qt = Alcotest.testable (Fmt.of_to_string Q.to_string) Q.equal

let test_q_normalization () =
  Alcotest.check qt "2/4 = 1/2"
    (Q.make (Z.of_int 1) (Z.of_int 2))
    (Q.make (Z.of_int 2) (Z.of_int 4));
  Alcotest.check qt "3/-6 = -1/2"
    (Q.make (Z.of_int (-1)) (Z.of_int 2))
    (Q.make (Z.of_int 3) (Z.of_int (-6)));
  Alcotest.(check string) "integer renders bare" "7"
    (Q.to_string (Q.of_int 7));
  Alcotest.(check string) "fraction renders with slash" "-3/2"
    (Q.to_string (Q.make (Z.of_int 3) (Z.of_int (-2))));
  Alcotest.check qt "1/3 + 1/6 = 1/2"
    (Q.make (Z.of_int 1) (Z.of_int 2))
    (Q.add (Q.make Z.one (Z.of_int 3)) (Q.make Z.one (Z.of_int 6)))

let test_q_of_float () =
  Alcotest.check qt "0.5 is exactly 1/2"
    (Q.make (Z.of_int 1) (Z.of_int 2))
    (Q.of_float 0.5);
  Alcotest.check qt "2.5 is exactly 5/2"
    (Q.make (Z.of_int 5) (Z.of_int 2))
    (Q.of_float 2.5);
  Alcotest.check qt "100.0 is exactly 100" (Q.of_int 100) (Q.of_float 100.);
  (* 0.1 is NOT 1/10 — its exact value has a power-of-two denominator *)
  Alcotest.(check bool) "0.1 is not 1/10" false
    (Q.equal (Q.of_float 0.1) (Q.make Z.one (Z.of_int 10)))

(* ---------------------------------------------------------------- Qmat *)

let test_rank () =
  Alcotest.(check int) "identity" 2 (Qmat.rank [| [| 1; 0 |]; [| 0; 1 |] |]);
  Alcotest.(check int) "dependent rows" 1
    (Qmat.rank [| [| 1; 2 |]; [| 2; 4 |] |]);
  Alcotest.(check int) "zero matrix" 0 (Qmat.rank [| [| 0; 0 |]; [| 0; 0 |] |])

let test_nullspace_known () =
  (* x -> y: stoichiometry rows are reactions; kernel is x + y *)
  let basis = Qmat.nullspace ~cols:2 [| [| -1; 1 |] |] in
  Alcotest.(check int) "one vector" 1 (List.length basis);
  let v = List.hd basis in
  Alcotest.check zt "weight x" Z.one v.(0);
  Alcotest.check zt "weight y" Z.one v.(1);
  (* 2x -> y: kernel is x + 2y, primitive integer scaling *)
  let v = List.hd (Qmat.nullspace ~cols:2 [| [| -2; 1 |] |]) in
  Alcotest.check zt "weight x" Z.one v.(0);
  Alcotest.check zt "weight 2y" (Z.of_int 2) v.(1);
  Alcotest.(check int) "no-row matrix: identity basis" 3
    (List.length (Qmat.nullspace ~cols:3 [||]))

(* ------------------------------------------------------------ qcheck *)

let qcheck_tests =
  let open QCheck in
  let z_of_pair (a, b) = (Z.of_int a, Z.of_int b) in
  [
    Test.make ~name:"Z arithmetic agrees with native int" ~count:500
      (pair (int_range (-100000) 100000) (int_range (-100000) 100000))
      (fun (a, b) ->
        let za, zb = z_of_pair (a, b) in
        Z.to_int_opt (Z.add za zb) = Some (a + b)
        && Z.to_int_opt (Z.sub za zb) = Some (a - b)
        && Z.to_int_opt (Z.mul za zb) = Some (a * b)
        && Z.compare za zb = compare a b);
    Test.make ~name:"Z divmod: a = q*b + r with |r| < |b|" ~count:500
      (pair (int_range (-1000000) 1000000) (int_range (-1000) 1000))
      (fun (a, b) ->
        assume (b <> 0);
        let q, r = Z.divmod (Z.of_int a) (Z.of_int b) in
        Z.equal (Z.of_int a) (Z.add (Z.mul q (Z.of_int b)) r)
        && Z.compare (Z.abs r) (Z.abs (Z.of_int b)) < 0
        && (Z.is_zero r || Z.sign r = Z.sign (Z.of_int a)));
    Test.make ~name:"Z to_string matches native rendering" ~count:500
      (int_range min_int max_int)
      (fun a -> Z.to_string (Z.of_int a) = string_of_int a);
    Test.make ~name:"Q.of_float is exact (to_float inverts)" ~count:500
      (float_bound_exclusive 1e9)
      (fun x -> Float.equal (Q.to_float (Q.of_float x)) x);
    Test.make ~name:"Q field laws on rationals" ~count:300
      (pair
         (pair (int_range (-50) 50) (int_range 1 50))
         (pair (int_range (-50) 50) (int_range 1 50)))
      (fun ((an, ad), (bn, bd)) ->
        let a = Q.make (Z.of_int an) (Z.of_int ad)
        and b = Q.make (Z.of_int bn) (Z.of_int bd) in
        Q.equal (Q.add a b) (Q.add b a)
        && Q.equal (Q.sub (Q.add a b) b) a
        && (Q.is_zero b || Q.equal (Q.mul (Q.div a b) b) a));
    Test.make ~name:"nullspace vectors annihilate the matrix" ~count:200
      (list_of_size (Gen.int_range 1 6)
         (list_of_size (Gen.int_range 1 5) (int_range (-3) 3)))
      (fun rows ->
        assume (rows <> []);
        let cols = List.fold_left (fun m r -> max m (List.length r)) 0 rows in
        assume (cols > 0);
        let a =
          Array.of_list
            (List.map
               (fun r ->
                 let row = Array.make cols 0 in
                 List.iteri (fun j x -> row.(j) <- x) r;
                 row)
               rows)
        in
        let basis = Qmat.nullspace ~cols a in
        Qmat.rank a + List.length basis = cols
        && List.for_all
             (fun v ->
               Array.for_all
                 (fun row ->
                   let s = ref Z.zero in
                   Array.iteri
                     (fun j x ->
                       s := Z.add !s (Z.mul (Z.of_int x) v.(j)))
                     row;
                   Z.is_zero !s)
                 a)
             basis);
    (* satellite property: the exact conservation basis and the float
       path agree on random networks — every exact law passes the float
       invariance check, and the basis has the float nullspace's
       dimension *)
    Test.make ~name:"exact and float conservation bases agree" ~count:150
      (list_of_size (Gen.int_range 1 8)
         (pair
            (list_of_size (Gen.int_range 0 3)
               (pair (int_range 0 4) (int_range 1 2)))
            (list_of_size (Gen.int_range 0 3)
               (pair (int_range 0 4) (int_range 1 2)))))
      (fun sides ->
        let net = Crn.Network.create () in
        for i = 0 to 4 do
          ignore (Crn.Network.species net (Printf.sprintf "S%d" i))
        done;
        let added = ref 0 in
        List.iter
          (fun (l, r) ->
            if l <> [] || r <> [] then begin
              incr added;
              Crn.Network.add_reaction net
                (Crn.Reaction.make ~reactants:l ~products:r Crn.Rates.slow)
            end)
          sides;
        assume (!added > 0);
        let exact_laws = Crn.Conservation.laws net in
        let float_laws =
          Dense_lu.nullspace
            (Numeric.Mat.transpose (Crn.Network.stoichiometry net))
        in
        List.length exact_laws = List.length float_laws
        && List.for_all
             (fun w -> Crn.Conservation.is_invariant ~eps:1e-9 net w)
             exact_laws);
  ]

let suite =
  [
    ("z basics", `Quick, test_z_basics);
    ("z big values", `Quick, test_z_big);
    ("z divmod and gcd", `Quick, test_z_divmod);
    ("q normalization", `Quick, test_q_normalization);
    ("q of_float exactness", `Quick, test_q_of_float);
    ("qmat rank", `Quick, test_rank);
    ("qmat known kernels", `Quick, test_nullspace_known);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
