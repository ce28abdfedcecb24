(* Integration tests over the shipped .crn example networks: the parser,
   the simulators and the analysis layer against classic chemistry. *)

(* under [dune runtest] the cwd is _build/default/test; under a direct
   [dune exec test/test_main.exe] it is the project root *)
let networks_dir =
  if Sys.file_exists "../examples/networks" then "../examples/networks"
  else "examples/networks"

let path name = Filename.concat networks_dir name

let load name = Crn.Parser.network_of_file (path name)

let all_example_files () =
  Sys.readdir networks_dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".crn")
  |> List.sort compare

let test_parse_all () =
  let files = all_example_files () in
  Alcotest.(check bool) "found example networks" true (List.length files >= 4);
  List.iter
    (fun name ->
      let net = load name in
      Alcotest.(check bool)
        (name ^ " nonempty")
        true
        (Crn.Network.n_reactions net > 0);
      (* and they roundtrip through the printer *)
      let net' = Crn.Parser.roundtrip net in
      Alcotest.(check string)
        (name ^ " roundtrips")
        (Crn.Network.to_string net)
        (Crn.Network.to_string net'))
    files

(* Round-trip discipline for any network, shipped file or synthesized
   design. [Network.to_string] is not byte-stable on the FIRST print of a
   synthesized network (reactant sides print in species-index order, and
   reparsing renumbers species in order of appearance), so the contract is:
   - pp/parse reaches a fixed point after one trip (print, reparse,
     print again: identical bytes from then on);
   - species/reaction counts and initial state survive the trip;
   - the renaming-invariant structural fingerprint is unchanged, so the
     reparsed network is the same design to the equivalence layer. *)
let check_roundtrip name net =
  let net2 = Crn.Parser.roundtrip net in
  let s2 = Crn.Network.to_string net2 in
  let net3 = Crn.Parser.network_of_string s2 in
  let s3 = Crn.Network.to_string net3 in
  Alcotest.(check string) (name ^ " pp/parse idempotent") s2 s3;
  Alcotest.(check int)
    (name ^ " species preserved")
    (Crn.Network.n_species net) (Crn.Network.n_species net2);
  Alcotest.(check int)
    (name ^ " reactions preserved")
    (Crn.Network.n_reactions net) (Crn.Network.n_reactions net2);
  let sorted_inits n =
    let inits = Crn.Network.initial_state n in
    Array.sort compare inits;
    inits
  in
  Alcotest.(check (array (float 0.)))
    (name ^ " initial state preserved")
    (sorted_inits net) (sorted_inits net2);
  Alcotest.(check string)
    (name ^ " fingerprint stable")
    (Crn.Equiv.fingerprint net) (Crn.Equiv.fingerprint net2)

let test_roundtrip_examples () =
  List.iter (fun name -> check_roundtrip name (load name)) (all_example_files ())

let test_roundtrip_catalog () =
  List.iter
    (fun name -> check_roundtrip name (Designs.Catalog.build name))
    (Designs.Catalog.names ())

let test_lotka_volterra_oscillates () =
  let net = load "lotka_volterra.crn" in
  let trace = Ode.Driver.simulate ~t1:40. net in
  let times = Ode.Trace.times trace in
  let x = Ode.Trace.column_named trace "X" in
  Alcotest.(check bool) "prey oscillates" true
    (Analysis.Oscillation.is_sustained ~threshold:1. ~min_cycles:4 ~times
       ~values:x ());
  (* Lotka-Volterra conserves nothing linear, but stays positive & bounded *)
  Alcotest.(check bool) "bounded" true (Numeric.Stats.maximum x < 50.)

let test_oregonator_oscillates () =
  let net = load "oregonator.crn" in
  let trace = Ode.Driver.simulate ~t1:40. net in
  let times = Ode.Trace.times trace in
  (* X cycles repeatedly; Z has one giant start-up spike, so judge the
     sustained oscillation on X and only the relaxation amplitude on Z *)
  let x = Ode.Trace.column_named trace "X" in
  Alcotest.(check bool) "X oscillates" true
    (Analysis.Oscillation.is_sustained
       ~threshold:(Numeric.Stats.maximum x /. 2.)
       ~min_cycles:4 ~times ~values:x ());
  let z = Ode.Trace.column_named trace "Z" in
  Alcotest.(check bool) "Z relaxation amplitude" true
    (Analysis.Oscillation.amplitude ~values:z > 50.)

let test_brusselator_limit_cycle () =
  let net = load "brusselator.crn" in
  let trace = Ode.Driver.simulate ~t1:80. net in
  let times = Ode.Trace.times trace in
  let x = Ode.Trace.column_named trace "X" in
  (* judge sustained oscillation on the second half (past the transient) *)
  Alcotest.(check bool) "X oscillates" true
    (Analysis.Oscillation.is_sustained ~threshold:1.5 ~min_cycles:4 ~times
       ~values:x ());
  (* the classic network is trimolecular: not DSD-compilable, and the lint
     pass says so *)
  Alcotest.(check bool) "trimolecular flagged" false
    (Crn.Validate.is_dsd_compilable net)

let test_approximate_majority_converges () =
  let net = load "approximate_majority.crn" in
  (* deterministic: initial majority X=60 vs Y=40 takes the population *)
  let xf = Ode.Driver.final_state ~t1:5. net in
  let sp name = Crn.Network.species net name in
  Alcotest.(check (float 0.5)) "X wins all 100" 100. xf.(sp "X");
  Alcotest.(check (float 0.5)) "Y extinct" 0. xf.(sp "Y");
  (* stochastic: strong majority wins almost surely *)
  let model = Ssa.Gillespie.compile_model Crn.Rates.default_env net in
  let xs =
    Ssa.Ensemble.map_with ~seed:11L ~runs:8
      ~init_worker:(fun () -> Ssa.Gillespie.make_arena model)
      (fun arena _ seed ->
        (Ssa.Gillespie.run ~seed ~arena ~t1:5. net).final.(sp "X"))
  in
  Alcotest.(check bool) "SSA majority outcome" true
    (Numeric.Stats.mean xs > 90.)

let test_majority_conserves_population () =
  let net = load "approximate_majority.crn" in
  let w = Crn.Conservation.uniform_over net [ "X"; "Y"; "B" ] in
  Alcotest.(check bool) "X+Y+B invariant" true
    (Crn.Conservation.is_invariant net w)

let suite =
  [
    ("parse + roundtrip all", `Quick, test_parse_all);
    ("roundtrip every example file", `Quick, test_roundtrip_examples);
    ("roundtrip every catalog design", `Quick, test_roundtrip_catalog);
    ("lotka-volterra oscillates", `Quick, test_lotka_volterra_oscillates);
    ("oregonator oscillates", `Quick, test_oregonator_oscillates);
    ("brusselator limit cycle", `Quick, test_brusselator_limit_cycle);
    ("approximate majority converges", `Quick, test_approximate_majority_converges);
    ("majority conserves population", `Quick, test_majority_conserves_population);
  ]
