(* Tests for the deterministic mass-action simulator: analytic solutions,
   integrator cross-checks, stiffness, driver features. *)

open Crn

let env1 = { Rates.k_fast = 1000.; k_slow = 1. }

(* A ->{slow} B with k_slow = 1: A(t) = A0 exp(-t) *)
let decay_network a0 =
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  Network.set_init net a a0;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] Rates.slow);
  net

(* 2A ->{slow} B: dA/dt = -2k A^2, A(t) = A0 / (1 + 2 k A0 t) *)
let dimerize_network a0 =
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  Network.set_init net a a0;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 2) ] ~products:[ (b, 1) ] Rates.slow);
  net

let test_deriv_simple () =
  let net = decay_network 10. in
  let sys = Ode.Deriv.compile env1 net in
  let dx = Ode.Deriv.eval sys [| 10.; 0. |] in
  Alcotest.(check (float 1e-12)) "dA" (-10.) dx.(0);
  Alcotest.(check (float 1e-12)) "dB" 10. dx.(1);
  Alcotest.(check (float 1e-12)) "flux" 10. (Ode.Deriv.flux sys [| 10.; 0. |] 0)

let test_deriv_bimolecular () =
  let net = dimerize_network 4. in
  let sys = Ode.Deriv.compile env1 net in
  let dx = Ode.Deriv.eval sys [| 4.; 0. |] in
  (* flux = k A^2 = 16; dA = -2*16, dB = +16 *)
  Alcotest.(check (float 1e-12)) "dA" (-32.) dx.(0);
  Alcotest.(check (float 1e-12)) "dB" 16. dx.(1)

let test_deriv_zero_order () =
  let net = Network.create () in
  let x = Network.species net "X" in
  Network.add_reaction net
    (Reaction.make ~reactants:[] ~products:[ (x, 1) ] Rates.slow);
  let sys = Ode.Deriv.compile env1 net in
  let dx = Ode.Deriv.eval sys [| 0. |] in
  Alcotest.(check (float 1e-12)) "constant source" 1. dx.(0)

let test_deriv_jacobian_matches_fd () =
  (* analytic Jacobian vs finite differences on a mixed network *)
  let net = Network.create () in
  let x = Network.species net "X"
  and y = Network.species net "Y"
  and z = Network.species net "Z" in
  Network.set_init net x 3.;
  Network.set_init net y 2.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (x, 2) ] ~products:[ (z, 1) ] Rates.slow);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (x, 1); (y, 1) ] ~products:[ (z, 2) ] Rates.fast);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (z, 1) ] ~products:[ (x, 1); (y, 1) ] Rates.slow);
  let sys = Ode.Deriv.compile env1 net in
  let x0 = [| 3.; 2.; 1.5 |] in
  let jac = Ode.Deriv.jacobian sys x0 in
  let h = 1e-6 in
  let f0 = Ode.Deriv.eval sys x0 in
  for j = 0 to 2 do
    let xp = Array.copy x0 in
    xp.(j) <- xp.(j) +. h;
    let fp = Ode.Deriv.eval sys xp in
    for i = 0 to 2 do
      let fd = (fp.(i) -. f0.(i)) /. h in
      if Float.abs (jac.(i).(j) -. fd) > 1e-2 *. (1. +. Float.abs fd) then
        Alcotest.failf "J(%d,%d): analytic %g vs fd %g" i j jac.(i).(j) fd
    done
  done

let final_a integrate =
  let net = decay_network 10. in
  let sys = Ode.Deriv.compile env1 net in
  let x = integrate sys (Network.initial_state net) in
  x.(0)

let test_euler_decay () =
  let a =
    final_a (fun sys x0 ->
        Ode.Fixed.integrate ~step:Ode.Fixed.euler_step ~h:1e-4 ~t0:0. ~t1:1.
          ~on_sample:(fun _ _ -> ()) sys x0)
  in
  Alcotest.(check (float 1e-2)) "euler e^-1" (10. *. exp (-1.)) a

let test_rk4_decay () =
  let a =
    final_a (fun sys x0 ->
        Ode.Fixed.integrate ~step:Ode.Fixed.rk4_step ~h:1e-2 ~t0:0. ~t1:1.
          ~on_sample:(fun _ _ -> ()) sys x0)
  in
  Alcotest.(check (float 1e-7)) "rk4 e^-1" (10. *. exp (-1.)) a

let test_dopri5_decay () =
  let a =
    final_a (fun sys x0 ->
        fst
          (Ode.Dopri5.integrate ~rtol:1e-9 ~atol:1e-12 ~t0:0. ~t1:1.
             ~on_sample:(fun _ _ -> ()) sys x0))
  in
  Alcotest.(check (float 1e-7)) "dopri5 e^-1" (10. *. exp (-1.)) a

let test_rosenbrock_decay () =
  let a =
    final_a (fun sys x0 ->
        fst
          (Ode.Rosenbrock.integrate ~rtol:1e-8 ~atol:1e-10 ~t0:0. ~t1:1.
             ~on_sample:(fun _ _ -> ()) sys x0))
  in
  Alcotest.(check (float 1e-5)) "ros2 e^-1" (10. *. exp (-1.)) a

let test_dopri5_dimerization () =
  let net = dimerize_network 5. in
  let sys = Ode.Deriv.compile env1 net in
  let x, _ =
    Ode.Dopri5.integrate ~rtol:1e-9 ~atol:1e-12 ~t0:0. ~t1:2.
      ~on_sample:(fun _ _ -> ())
      sys (Network.initial_state net)
  in
  let analytic = 5. /. (1. +. (2. *. 1. *. 5. *. 2.)) in
  Alcotest.(check (float 1e-6)) "A(2) analytic" analytic x.(0);
  (* mass conservation: A + 2B = A0 *)
  Alcotest.(check (float 1e-6)) "A + 2B" 5. (x.(0) +. (2. *. x.(1)))

let test_integrators_agree () =
  (* reversible pair under unequal rates: all three methods converge to the
     same trajectory point *)
  let net = Network.create () in
  let x = Network.species net "X" and y = Network.species net "Y" in
  Network.set_init net x 8.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ] Rates.slow);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (y, 1) ] ~products:[ (x, 1) ] (Rates.slow_scaled 3.));
  let sys = Ode.Deriv.compile env1 net in
  let x0 = Network.initial_state net in
  let silent _ _ = () in
  let rk4 =
    Ode.Fixed.integrate ~step:Ode.Fixed.rk4_step ~h:1e-3 ~t0:0. ~t1:3.
      ~on_sample:silent sys x0
  in
  let dp, _ = Ode.Dopri5.integrate ~t0:0. ~t1:3. ~on_sample:silent sys x0 in
  let rb, _ = Ode.Rosenbrock.integrate ~t0:0. ~t1:3. ~on_sample:silent sys x0 in
  Alcotest.(check (float 1e-4)) "dopri5 vs rk4" rk4.(0) dp.(0);
  Alcotest.(check (float 1e-3)) "rosenbrock vs rk4" rk4.(0) rb.(0);
  (* and the equilibrium ratio approaches k_back/k_fwd = 3 *)
  Alcotest.(check (float 1e-2)) "equilibrium X" 6. dp.(0)

let test_rosenbrock_stiff () =
  (* extremely separated rates: X ->{fast} Y ->{slow} Z with ratio 1e8;
     the semi-implicit integrator must cross the fast transient cheaply *)
  let net = Network.create () in
  let x = Network.species net "X"
  and y = Network.species net "Y"
  and z = Network.species net "Z" in
  Network.set_init net x 1.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ] Rates.fast);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (y, 1) ] ~products:[ (z, 1) ] Rates.slow);
  let env = { Rates.k_fast = 1e8; k_slow = 1. } in
  let sys = Ode.Deriv.compile env net in
  let xf, stats =
    Ode.Rosenbrock.integrate ~t0:0. ~t1:5. ~on_sample:(fun _ _ -> ()) sys
      (Network.initial_state net)
  in
  Alcotest.(check (float 1e-3)) "Z(5) = 1 - e^-5" (1. -. exp (-5.)) xf.(2);
  Alcotest.(check bool) "few steps despite stiffness" true (stats.steps < 20000)

let test_dopri5_max_steps () =
  let net = decay_network 1. in
  let sys = Ode.Deriv.compile env1 net in
  match
    Ode.Dopri5.integrate ~max_steps:2 ~t0:0. ~t1:100.
      ~on_sample:(fun _ _ -> ())
      sys (Network.initial_state net)
  with
  | exception Ode.Solver_error.Error
      { solver = "Dopri5"; reason = Max_steps 2; _ } ->
      ()
  | _ -> Alcotest.fail "expected step-budget failure"

(* ---------------------------------------------------------------- Trace *)

let test_trace_record () =
  let tr = Ode.Trace.create ~names:[| "A"; "B" |] in
  Ode.Trace.record tr 0. [| 1.; 2. |];
  Ode.Trace.record tr 1. [| 3.; 4. |];
  Alcotest.(check int) "length" 2 (Ode.Trace.length tr);
  Alcotest.(check (array (float 1e-12))) "column A" [| 1.; 3. |] (Ode.Trace.column tr 0);
  Alcotest.(check (array (float 1e-12))) "column B" [| 2.; 4. |] (Ode.Trace.column_named tr "B");
  Alcotest.(check (float 1e-12)) "interp" 2. (Ode.Trace.value_at tr ~species:0 0.5);
  Alcotest.(check (float 1e-12)) "final" 4. (Ode.Trace.final_value tr "B");
  Alcotest.(check (float 1e-12)) "last_time" 1. (Ode.Trace.last_time tr)

let test_trace_growth () =
  let tr = Ode.Trace.create ~names:[| "A" |] in
  for i = 0 to 999 do
    Ode.Trace.record tr (float_of_int i) [| float_of_int (i * i) |]
  done;
  Alcotest.(check int) "length" 1000 (Ode.Trace.length tr);
  Alcotest.(check (float 1e-12)) "deep sample" (999. *. 999.)
    (Ode.Trace.final_value tr "A")

let test_trace_monotonic_times () =
  let tr = Ode.Trace.create ~names:[| "A" |] in
  Ode.Trace.record tr 1. [| 0. |];
  Alcotest.check_raises "backwards"
    (Invalid_argument "Trace.record: time went backwards") (fun () ->
      Ode.Trace.record tr 0.5 [| 0. |])

let test_trace_csv () =
  let tr = Ode.Trace.create ~names:[| "A"; "B" |] in
  Ode.Trace.record tr 0. [| 1.; 2. |];
  let csv = Ode.Trace.to_csv tr in
  Alcotest.(check string) "csv" "time,A,B\n0,1,2\n" csv

let test_trace_restrict () =
  let tr = Ode.Trace.create ~names:[| "A"; "B"; "C" |] in
  Ode.Trace.record tr 0. [| 1.; 2.; 3. |];
  let sub = Ode.Trace.restrict tr [ "C"; "A" ] in
  Alcotest.(check (array string)) "names" [| "C"; "A" |] (Ode.Trace.names sub);
  Alcotest.(check (array (float 1e-12))) "row" [| 3.; 1. |] (Ode.Trace.state_at_index sub 0)

let test_trace_chunk_boundaries () =
  (* 10 species puts ~409 rows per storage chunk; 2000 rows span several
     chunks, so every accessor is exercised across chunk seams *)
  let names = Array.init 10 (fun i -> Printf.sprintf "S%d" i) in
  let tr = Ode.Trace.create ~names in
  for i = 0 to 1999 do
    Ode.Trace.record tr (float_of_int i)
      (Array.init 10 (fun s -> float_of_int ((i * 10) + s)))
  done;
  Alcotest.(check int) "length" 2000 (Ode.Trace.length tr);
  List.iter
    (fun i ->
      let row = Ode.Trace.state_at_index tr i in
      Alcotest.(check (float 0.))
        (Printf.sprintf "row %d" i)
        (float_of_int ((i * 10) + 3))
        row.(3))
    [ 0; 408; 409; 817; 818; 1999 ];
  let col = Ode.Trace.column tr 7 in
  Alcotest.(check (float 0.)) "column across chunks"
    (float_of_int ((1500 * 10) + 7))
    col.(1500);
  let sub = Ode.Trace.restrict tr [ "S9"; "S0" ] in
  Alcotest.(check (float 0.)) "restrict across chunks"
    (float_of_int ((1234 * 10) + 9))
    (Ode.Trace.state_at_index sub 1234).(0)

(* --------------------------------------------------------------- Driver *)

let test_driver_simulate () =
  let net = decay_network 10. in
  let tr = Ode.Driver.simulate ~t1:1. net in
  Alcotest.(check (float 1e-4)) "A(1)" (10. *. exp (-1.)) (Ode.Trace.final_value tr "A");
  Alcotest.(check (float 1e-4)) "B(1)" (10. *. (1. -. exp (-1.))) (Ode.Trace.final_value tr "B");
  Alcotest.(check (float 1e-9)) "starts at 0" 0. (Ode.Trace.times tr).(0)

let test_driver_methods_agree () =
  let net = dimerize_network 6. in
  let by m = Ode.Trace.final_value (Ode.Driver.simulate ~method_:m ~t1:1. net) "A" in
  let d = by Ode.Driver.Dopri5 in
  Alcotest.(check (float 1e-3)) "rosenbrock" d (by Ode.Driver.Rosenbrock);
  Alcotest.(check (float 1e-3)) "rk4" d (by (Ode.Driver.Rk4 1e-3))

let test_driver_injection () =
  (* inert species, one injection: step from 0 to 5 at t = 2 *)
  let net = Network.create () in
  let x = Network.species net "X" in
  ignore x;
  (* a reaction elsewhere so the system is nonempty *)
  let a = Network.species net "A" in
  Network.set_init net a 1.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (a, 1) ] Rates.slow);
  let tr =
    Ode.Driver.simulate
      ~injections:[ { Ode.Driver.at = 2.; species = "X"; amount = 5. } ]
      ~t1:4. net
  in
  Alcotest.(check (float 1e-9)) "before" 0. (Ode.Trace.value_at tr ~species:x 1.9);
  Alcotest.(check (float 1e-9)) "after" 5. (Ode.Trace.value_at tr ~species:x 2.1);
  Alcotest.(check (float 1e-9)) "final" 5. (Ode.Trace.final_value tr "X")

let test_driver_injection_order () =
  (* injections given out of order are applied in time order *)
  let net = Network.create () in
  let _ = Network.species net "X" in
  let a = Network.species net "A" in
  Network.set_init net a 1.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (a, 1) ] Rates.slow);
  let tr =
    Ode.Driver.simulate
      ~injections:
        [
          { Ode.Driver.at = 3.; species = "X"; amount = 1. };
          { Ode.Driver.at = 1.; species = "X"; amount = 1. };
        ]
      ~t1:4. net
  in
  Alcotest.(check (float 1e-9)) "mid" 1. (Ode.Trace.value_at tr ~species:0 2.);
  Alcotest.(check (float 1e-9)) "final" 2. (Ode.Trace.final_value tr "X")

let test_driver_unknown_injection () =
  let net = decay_network 1. in
  Alcotest.check_raises "unknown species"
    (Invalid_argument "Driver: unknown injection species \"nope\"") (fun () ->
      ignore
        (Ode.Driver.simulate
           ~injections:[ { Ode.Driver.at = 1.; species = "nope"; amount = 1. } ]
           ~t1:2. net))

let test_driver_thinning () =
  let net = decay_network 10. in
  (* a fixed-step method guarantees a dense trace to thin *)
  let method_ = Ode.Driver.Rk4 0.01 in
  let dense = Ode.Driver.simulate ~method_ ~t1:1. net in
  let thin = Ode.Driver.simulate ~method_ ~thin:20 ~t1:1. net in
  Alcotest.(check bool) "thinned trace is much shorter" true
    (Ode.Trace.length thin * 10 < Ode.Trace.length dense);
  (* endpoints preserved *)
  Alcotest.(check (float 1e-9)) "starts at 0" 0. (Ode.Trace.times thin).(0);
  Alcotest.(check (float 1e-6)) "same final value"
    (Ode.Trace.final_value dense "A")
    (Ode.Trace.final_value thin "A");
  Alcotest.check_raises "bad thin"
    (Invalid_argument "Driver.simulate: thin must be >= 1") (fun () ->
      ignore (Ode.Driver.simulate ~thin:0 ~t1:1. net))

let test_driver_thinning_keeps_injections () =
  let net = Network.create () in
  let _ = Network.species net "X" in
  let a = Network.species net "A" in
  Network.set_init net a 1.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (a, 1) ] Rates.slow);
  let tr =
    Ode.Driver.simulate ~thin:50
      ~injections:[ { Ode.Driver.at = 2.; species = "X"; amount = 5. } ]
      ~t1:4. net
  in
  (* the post-injection boundary sample survives thinning *)
  Alcotest.(check (float 1e-9)) "after injection" 5.
    (Ode.Trace.value_at tr ~species:0 2.01)

let test_driver_final_state () =
  let net = decay_network 10. in
  let x = Ode.Driver.final_state ~t1:1. net in
  Alcotest.(check (float 1e-4)) "A(1)" (10. *. exp (-1.)) x.(0)

(* --------------------------------------------------------------- Steady *)

let test_steady_found () =
  let net = decay_network 5. in
  match Ode.Steady.find ~f_tol:1e-6 ~chunk:5. ~t_max:100. net with
  | None -> Alcotest.fail "expected steady state"
  | Some (t, x) ->
      Alcotest.(check bool) "A exhausted" true (x.(0) < 1e-4);
      Alcotest.(check (float 1e-3)) "B = A0" 5. x.(1);
      Alcotest.(check bool) "found in time" true (t <= 100.)

let test_steady_not_found () =
  (* zero-order source grows forever: no steady state *)
  let net = Network.create () in
  let x = Network.species net "X" in
  Network.add_reaction net
    (Reaction.make ~reactants:[] ~products:[ (x, 1) ] Rates.slow);
  Alcotest.(check bool) "none" true
    (Ode.Steady.find ~chunk:1. ~t_max:5. net = None)

(* ----------------------------------------- CSR kernel vs boxed reference *)

(* The flat CSR kernel compiles reactions in the same order with the same
   arithmetic ordering as the retained boxed implementation, so f and the
   Jacobian must agree *bitwise* — no tolerance. *)

let test_csr_matches_reference_on_catalog () =
  List.iter
    (fun entry ->
      let net = entry.Designs.Catalog.build () in
      let env = Rates.default_env in
      let sys = Ode.Deriv.compile env net in
      let rsys = Deriv_reference.compile env net in
      let n = Ode.Deriv.dim sys in
      let check label x =
        let dx = Array.make n 0. and dx' = Array.make n 0. in
        Ode.Deriv.f sys 0. x dx;
        Deriv_reference.f rsys 0. x dx';
        if dx <> dx' then
          Alcotest.failf "%s (%s): flat RHS differs from reference"
            entry.Designs.Catalog.name label;
        if Ode.Deriv.jacobian sys x <> Deriv_reference.jacobian rsys x then
          Alcotest.failf "%s (%s): flat Jacobian differs from reference"
            entry.Designs.Catalog.name label
      in
      let x0 = Network.initial_state net in
      check "initial" x0;
      (* a strictly positive off-equilibrium state *)
      check "perturbed"
        (Array.mapi
           (fun i v -> v +. (0.125 *. float_of_int (1 + (i mod 7))))
           x0))
    (Designs.Catalog.all ())

(* a deterministic pseudo-random network with float concentrations and
   stoichiometric coefficients up to 4, so every pow_int branch runs *)
let random_float_network rng ~ns ~nr =
  let net = Network.create () in
  let species =
    Array.init ns (fun i -> Network.species net (Printf.sprintf "S%d" i))
  in
  Array.iter
    (fun s -> Network.set_init net s (20. *. Numeric.Rng.float rng))
    species;
  let side max_len max_coeff =
    let len = Numeric.Rng.int rng (max_len + 1) in
    List.init len (fun _ ->
        (species.(Numeric.Rng.int rng ns), 1 + Numeric.Rng.int rng max_coeff))
  in
  let added = ref 0 in
  while !added < nr do
    let reactants = side 3 4 and products = side 2 2 in
    if reactants <> [] || products <> [] then begin
      Network.add_reaction net
        (Reaction.make ~reactants ~products
           (Rates.slow_scaled (0.5 +. Numeric.Rng.float rng)));
      incr added
    end
  done;
  net

(* ------------------------------------------------- integrator counters *)

let test_dopri5_fsal_evals () =
  (* stage 7 of an accepted step is stage 1 of the next (pointer swap), so
     every attempt costs exactly six fresh evaluations after the seed one *)
  let net = Designs.Catalog.build "clock3" in
  let sys = Ode.Deriv.compile Rates.default_env net in
  let _, st =
    Ode.Dopri5.integrate ~t0:0. ~t1:20.
      ~on_sample:(fun _ _ -> ())
      sys (Network.initial_state net)
  in
  Alcotest.(check bool) "made progress" true (st.Ode.Dopri5.steps > 0);
  Alcotest.(check int) "evals = 1 + 6 (steps + rejected)"
    (1 + (6 * (st.Ode.Dopri5.steps + st.Ode.Dopri5.rejected)))
    st.Ode.Dopri5.evals

let test_rosenbrock_jacobian_reuse () =
  (* a rejection retries the same state with a smaller h, so the cached
     Jacobian is reused and only W is refactorized *)
  let net = Designs.Catalog.build "clock3" in
  let sys = Ode.Deriv.compile Rates.default_env net in
  let _, st =
    Ode.Rosenbrock.integrate ~t0:0. ~t1:30.
      ~on_sample:(fun _ _ -> ())
      sys (Network.initial_state net)
  in
  Alcotest.(check int) "jac_evals = steps" st.Ode.Rosenbrock.steps
    st.Ode.Rosenbrock.jac_evals;
  Alcotest.(check int) "jac_reused = rejected" st.Ode.Rosenbrock.rejected
    st.Ode.Rosenbrock.jac_reused;
  (* each accepted step factorized once; each error rejection also
     factorized (singular-W rejections bail before counting) *)
  Alcotest.(check bool) "factorizations bounded by attempts" true
    (st.Ode.Rosenbrock.factorizations >= st.Ode.Rosenbrock.steps
    && st.Ode.Rosenbrock.factorizations
       <= st.Ode.Rosenbrock.steps + st.Ode.Rosenbrock.rejected)

(* ------------------------------------------------------- property tests *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"ode: closed X<->Y conserves total mass" ~count:50
      (make Gen.(pair (float_range 0.5 20.) (float_range 0.5 20.)))
      (fun (x0, y0) ->
        let net = Network.create () in
        let x = Network.species net "X" and y = Network.species net "Y" in
        Network.set_init net x x0;
        Network.set_init net y y0;
        Network.add_reaction net
          (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ] Rates.slow);
        Network.add_reaction net
          (Reaction.make ~reactants:[ (y, 1) ] ~products:[ (x, 1) ] Rates.fast);
        let xf = Ode.Driver.final_state ~t1:2. net in
        Float.abs (xf.(0) +. xf.(1) -. (x0 +. y0)) < 1e-4 *. (x0 +. y0));
    Test.make ~name:"ode: decay endpoint matches analytic for random A0/T"
      ~count:50
      (make Gen.(pair (float_range 0.1 50.) (float_range 0.1 3.)))
      (fun (a0, t1) ->
        let net = decay_network a0 in
        let xf = Ode.Driver.final_state ~t1 net in
        Float.abs (xf.(0) -. (a0 *. exp (-.t1))) < 1e-4 *. a0);
    Test.make ~name:"ode: states remain non-negative" ~count:30
      (make Gen.(float_range 0.5 30.))
      (fun a0 ->
        let net = dimerize_network a0 in
        let tr = Ode.Driver.simulate ~t1:3. net in
        let ok = ref true in
        for i = 0 to Ode.Trace.length tr - 1 do
          Array.iter
            (fun v -> if v < 0. then ok := false)
            (Ode.Trace.state_at_index tr i)
        done;
        !ok);
    Test.make ~name:"ode: flat CSR kernel equals boxed reference bitwise"
      ~count:100
      (make Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
      (fun (net_seed, state_seed) ->
        let rng = Numeric.Rng.create (Int64.of_int net_seed) in
        let ns = 1 + Numeric.Rng.int rng 6
        and nr = 1 + Numeric.Rng.int rng 10 in
        let net = random_float_network rng ~ns ~nr in
        let sys = Ode.Deriv.compile Rates.default_env net in
        let rsys = Deriv_reference.compile Rates.default_env net in
        let n = Network.n_species net in
        let srng = Numeric.Rng.create (Int64.of_int state_seed) in
        let x = Array.init n (fun _ -> 10. *. Numeric.Rng.float srng) in
        let dx = Array.make n 0. and dx' = Array.make n 0. in
        Ode.Deriv.f sys 0. x dx;
        Deriv_reference.f rsys 0. x dx';
        dx = dx'
        && Ode.Deriv.jacobian sys x = Deriv_reference.jacobian rsys x);
    Test.make ~name:"ode: jacobian_into leaves no residue in a reused matrix"
      ~count:100
      (make Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
      (fun (net_seed, state_seed) ->
        let rng = Numeric.Rng.create (Int64.of_int net_seed) in
        let ns = 1 + Numeric.Rng.int rng 6
        and nr = 1 + Numeric.Rng.int rng 10 in
        let net = random_float_network rng ~ns ~nr in
        let sys = Ode.Deriv.compile Rates.default_env net in
        let n = Network.n_species net in
        let srng = Numeric.Rng.create (Int64.of_int state_seed) in
        let x1 = Array.init n (fun _ -> 10. *. Numeric.Rng.float srng) in
        let x2 = Array.init n (fun _ -> 10. *. Numeric.Rng.float srng) in
        let jac = Numeric.Mat.create n n 0. in
        Ode.Deriv.jacobian_into sys x1 jac;
        Ode.Deriv.jacobian_into sys x2 jac;
        jac = Ode.Deriv.jacobian sys x2);
  ]

(* A trajectory, bit for bit: the digest of the %h text of every sample
   (time, then each species). *)
let trace_digest tr =
  let b = Buffer.create 65536 in
  let times = Ode.Trace.times tr in
  for i = 0 to Ode.Trace.length tr - 1 do
    Buffer.add_string b (Printf.sprintf "%h" times.(i));
    Array.iter
      (fun v -> Buffer.add_string b (Printf.sprintf " %h" v))
      (Ode.Trace.state_at_index tr i);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Rosenbrock trajectories of a one-period run of four catalog designs,
   pinned from the dense-LU integrator. The LU skips only exactly-zero
   work, so these must never move. *)
let rosenbrock_digest name t1 =
  trace_digest
    (Ode.Driver.simulate ~method_:Ode.Driver.Rosenbrock ~thin:10 ~t1
       (Designs.Catalog.build name))

(* A fixed-step RK4 trajectory through the driver, with two injections
   so it crosses segment boundaries, and its final state without a
   trace; pinned before the driver's loops were folded into one. *)
let test_rk4_digest () =
  let net = Designs.Catalog.build "clock4" in
  let injections =
    [
      { Ode.Driver.at = 1.5; species = "clk.P0"; amount = 3. };
      { Ode.Driver.at = 4.; species = "clk.P2"; amount = 2. };
    ]
  in
  let method_ = Ode.Driver.Rk4 0.0005 in
  let tr = Ode.Driver.simulate ~method_ ~injections ~thin:7 ~t1:6. net in
  Alcotest.(check string)
    "trace" "166ce6895f5d0eabb058bbb5142ba868" (trace_digest tr);
  let final = Ode.Driver.final_state ~method_ ~injections ~t1:6. net in
  Alcotest.(check (array (float 0.))) "final_state = last sample"
    (Ode.Trace.last_state tr) final

let test_rosenbrock_digests () =
  (* t1 stays below one clock period: 6.33 on the absence chassis,
     4.73 on the relaxation chassis *)
  List.iter
    (fun (name, t1, want) ->
      Alcotest.(check string) name want (rosenbrock_digest name t1))
    [
      ("clock4", 6., "f185440e46fb76570dc5e95ad648ac43");
      ("lfsr4", 6., "a3a29a4694b1deaad993a297e4b8f7ab");
      ("rx-counter3", 4.5, "8c96ac9ac7cc50e051d5a28310f286f1");
      ("biquad", 6., "10104bea1cb5d41331271e68d5c3263d");
    ]

(* X -> 2X at the fast rate overflows a float near t = 0.71. Both
   adaptive methods must give up with a step underflow, without
   accepting a non-finite state, instead of retrying a NaN step size
   forever; so must a run handed a NaN first step. The cancel token
   turns a regression into a failure rather than a hang. (The served
   path, through the driver, is checked in test_engines.) *)
let boom = "init X 1\nX ->{fast} 2 X\n"

let test_blowup_ends () =
  let net = Parser.network_of_string boom in
  let sys = Ode.Deriv.compile Rates.default_env net in
  let x0 = Network.initial_state net in
  let run what ?h0 go =
    let t0 = Unix.gettimeofday () in
    let cancel =
      Numeric.Cancel.of_fun (fun () -> Unix.gettimeofday () -. t0 > 10.)
    in
    let finite = ref true in
    let on_sample _ x =
      if not (Array.for_all Float.is_finite x) then finite := false
    in
    (match go h0 ~cancel ~on_sample with
    | () -> Alcotest.failf "%s: integrated past the overflow" what
    | exception Numeric.Cancel.Cancelled ->
        Alcotest.failf "%s: still stepping after 10 s" what
    | exception
        Ode.Solver_error.Error
          { reason = Ode.Solver_error.Step_underflow; t; _ } ->
        Alcotest.(check bool)
          (what ^ ": gives up before the end") true (t < 0.72));
    Alcotest.(check bool) (what ^ ": accepted only finite states") true !finite
  in
  let rosenbrock h0 ~cancel ~on_sample =
    ignore
      (Ode.Rosenbrock.integrate ?h0 ~cancel ~t0:0. ~t1:0.72 ~on_sample sys x0)
  and dopri5 h0 ~cancel ~on_sample =
    ignore (Ode.Dopri5.integrate ?h0 ~cancel ~t0:0. ~t1:0.72 ~on_sample sys x0)
  in
  run "rosenbrock" rosenbrock;
  run "dopri5" dopri5;
  run "rosenbrock, NaN first step" ~h0:Float.nan rosenbrock;
  run "dopri5, NaN first step" ~h0:Float.nan dopri5

let suite =
  [
    ("deriv simple", `Quick, test_deriv_simple);
    ("deriv bimolecular", `Quick, test_deriv_bimolecular);
    ("deriv zero order", `Quick, test_deriv_zero_order);
    ("deriv jacobian vs fd", `Quick, test_deriv_jacobian_matches_fd);
    ("euler decay", `Quick, test_euler_decay);
    ("rk4 decay", `Quick, test_rk4_decay);
    ("dopri5 decay", `Quick, test_dopri5_decay);
    ("rosenbrock decay", `Quick, test_rosenbrock_decay);
    ("dopri5 dimerization", `Quick, test_dopri5_dimerization);
    ("integrators agree", `Quick, test_integrators_agree);
    ("rosenbrock stiff", `Quick, test_rosenbrock_stiff);
    ("dopri5 max steps", `Quick, test_dopri5_max_steps);
    ("trace record", `Quick, test_trace_record);
    ("trace growth", `Quick, test_trace_growth);
    ("trace monotonic times", `Quick, test_trace_monotonic_times);
    ("trace csv", `Quick, test_trace_csv);
    ("trace restrict", `Quick, test_trace_restrict);
    ("trace chunk boundaries", `Quick, test_trace_chunk_boundaries);
    ("csr matches reference on catalog", `Quick, test_csr_matches_reference_on_catalog);
    ("dopri5 fsal eval count", `Quick, test_dopri5_fsal_evals);
    ("rosenbrock jacobian reuse", `Quick, test_rosenbrock_jacobian_reuse);
    ("driver simulate", `Quick, test_driver_simulate);
    ("driver methods agree", `Quick, test_driver_methods_agree);
    ("driver injection", `Quick, test_driver_injection);
    ("driver injection order", `Quick, test_driver_injection_order);
    ("driver unknown injection", `Quick, test_driver_unknown_injection);
    ("driver thinning", `Quick, test_driver_thinning);
    ("driver thinning keeps injections", `Quick, test_driver_thinning_keeps_injections);
    ("driver final state", `Quick, test_driver_final_state);
    ("steady found", `Quick, test_steady_found);
    ("steady not found", `Quick, test_steady_not_found);
    ("rosenbrock trajectories pinned", `Quick, test_rosenbrock_digests);
    ("rk4 trajectory pinned", `Quick, test_rk4_digest);
    ("blow-up ends in step underflow", `Quick, test_blowup_ends);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
