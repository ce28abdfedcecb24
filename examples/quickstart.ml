(* Quickstart: build a small reaction network with the builder DSL, simulate
   its deterministic mass-action kinetics, and print the trajectory.

   The network is the paper's elementary example of rate-independent
   computation: an adder. Whatever quantities X1 and X2 start with, Z ends
   with their sum — no matter what the rate constants are, because the only
   thing the reactions can do is move every unit of X1 and X2 into Z.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. build the network *)
  let net = Crn.Network.create () in
  let b = Crn.Builder.on net in
  let x1 = Crn.Builder.species b "X1" in
  let x2 = Crn.Builder.species b "X2" in
  Crn.Builder.init b x1 30.;
  Crn.Builder.init b x2 12.;
  let z = Ri_modules.Arith.add b ~name:"adder" x1 x2 in

  (* 2. print it in the textual .crn format (Crn.Parser reads this back) *)
  print_endline "Network:";
  print_endline (Crn.Network.to_string net);

  (* 3. simulate the deterministic mass-action kinetics *)
  let trace = Ode.Driver.simulate ~t1:8. net in
  Printf.printf "Simulated %d samples over %.0f time units.\n\n"
    (Ode.Trace.length trace) (Ode.Trace.last_time trace);

  (* 4. look at the result *)
  let zn = Crn.Network.species_name net z in
  print_string
    (Analysis.Ascii_plot.render ~width:64 ~height:12
       ~title:"adder: X1 + X2 -> Z"
       (Analysis.Ascii_plot.of_trace trace [ "X1"; "X2"; zn ]));
  Printf.printf "\nfinal Z = %.3f (expected 42)\n"
    (Ode.Trace.final_value trace zn);

  (* 5. the same computation is exact under any rate separation: that is
     the paper's rate-independence claim *)
  List.iter
    (fun ratio ->
      let env = Crn.Rates.env_with_ratio ratio in
      let x = Ode.Driver.final_state ~env ~t1:8. net in
      Printf.printf "k_fast/k_slow = %-6g -> Z = %.3f\n" ratio x.(z))
    [ 10.; 1000.; 100000. ];

  (* 6. and survives discrete molecular noise: Gillespie simulation *)
  let model = Ssa.Gillespie.compile_model Crn.Rates.default_env net in
  let zs =
    Ssa.Ensemble.map_with ~runs:10
      ~init_worker:(fun () -> Ssa.Gillespie.make_arena model)
      (fun arena _ seed -> (Ssa.Gillespie.run ~seed ~arena ~t1:8. net).final.(z))
  in
  Printf.printf "stochastic (10 runs): Z = %.2f +/- %.2f\n"
    (Numeric.Stats.mean zs) (Numeric.Stats.stddev zs)
