(* Tests for the Gillespie stochastic simulator. *)

open Crn

let decay_network a0 =
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  Network.set_init net a a0;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] Rates.slow);
  net

let test_ssa_conserves_molecules () =
  let net = decay_network 200. in
  let { Ssa.Gillespie.final; _ } = Ssa.Gillespie.run ~seed:9L ~t1:2. net in
  Alcotest.(check (float 0.)) "A + B = 200" 200. (final.(0) +. final.(1))

let test_ssa_exhausts_decay () =
  (* after 20 mean lifetimes essentially everything has decayed *)
  let net = decay_network 100. in
  let { Ssa.Gillespie.final; n_events; _ } =
    Ssa.Gillespie.run ~seed:2L ~t1:20. net
  in
  Alcotest.(check (float 0.)) "all decayed" 100. final.(1);
  Alcotest.(check int) "one event per molecule" 100 n_events

let test_ssa_deterministic_by_seed () =
  let net = decay_network 50. in
  let r1 = Ssa.Gillespie.run ~seed:5L ~t1:1. net in
  let r2 = Ssa.Gillespie.run ~seed:5L ~t1:1. net in
  Alcotest.(check (array (float 0.))) "same final" r1.final r2.final;
  Alcotest.(check int) "same events" r1.n_events r2.n_events

let test_ssa_seed_changes_path () =
  let net = decay_network 50. in
  let r1 = Ssa.Gillespie.run ~seed:5L ~t1:0.5 net in
  let r2 = Ssa.Gillespie.run ~seed:6L ~t1:0.5 net in
  Alcotest.(check bool) "different paths" true
    (r1.final <> r2.final || r1.n_events <> r2.n_events)

let test_ssa_mean_matches_ode () =
  (* ensemble mean of the stochastic decay tracks the ODE solution *)
  let net = decay_network 400. in
  let model = Ssa.Gillespie.compile_model Rates.default_env net in
  let finals =
    Ssa.Ensemble.map_with ~seed:7L ~runs:30
      ~init_worker:(fun () -> Ssa.Gillespie.make_arena model)
      (fun arena _ seed -> (Ssa.Gillespie.run ~seed ~arena ~t1:1. net).final.(0))
  in
  let mean = Numeric.Stats.mean finals in
  let expected = 400. *. exp (-1.) in
  (* sd of a binomial(400, e^-1) is ~9.7; the mean of 30 runs ~1.8 *)
  Alcotest.(check bool) "within 6 sigma of ODE"
    true
    (Float.abs (mean -. expected) < 11.)

let test_ssa_bimolecular_halts () =
  (* 2A -> B with odd initial count leaves exactly one A *)
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  Network.set_init net a 11.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 2) ] ~products:[ (b, 1) ] Rates.fast);
  let { Ssa.Gillespie.final; _ } = Ssa.Gillespie.run ~seed:3L ~t1:10. net in
  Alcotest.(check (float 0.)) "one A stranded" 1. final.(a);
  Alcotest.(check (float 0.)) "five B" 5. final.(b)

let test_ssa_zero_order_grows () =
  let net = Network.create () in
  let x = Network.species net "X" in
  Network.add_reaction net
    (Reaction.make ~reactants:[] ~products:[ (x, 1) ] (Rates.slow_scaled 10.));
  let { Ssa.Gillespie.final; _ } = Ssa.Gillespie.run ~seed:21L ~t1:10. net in
  (* Poisson(100): within 5 sigma *)
  Alcotest.(check bool) "Poisson growth" true
    (final.(0) > 50. && final.(0) < 150.)

let test_ssa_trace_sampling () =
  let net = decay_network 100. in
  let { Ssa.Gillespie.trace; _ } =
    Ssa.Gillespie.run ~seed:1L ~sample_dt:0.1 ~t1:1. net
  in
  Alcotest.(check bool) "about 11 samples" true
    (Ode.Trace.length trace >= 10 && Ode.Trace.length trace <= 12);
  (* counts are non-increasing for A *)
  let col = Ode.Trace.column_named trace "A" in
  let ok = ref true in
  for i = 1 to Array.length col - 1 do
    if col.(i) > col.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "A monotone down" true !ok

let test_ssa_empty_system_idles () =
  let net = Network.create () in
  let x = Network.species net "X" in
  Network.set_init net x 5.;
  (* a reaction that can never fire: requires a missing species *)
  let y = Network.species net "Y" in
  Network.add_reaction net
    (Reaction.make ~reactants:[ (y, 1) ] ~products:[ (x, 1) ] Rates.fast);
  let { Ssa.Gillespie.final; n_events; _ } =
    Ssa.Gillespie.run ~seed:1L ~t1:5. net
  in
  Alcotest.(check int) "no events" 0 n_events;
  Alcotest.(check (float 0.)) "X held" 5. final.(x)

let test_ssa_invalid_args () =
  let net = decay_network 1. in
  Alcotest.check_raises "bad t1"
    (Invalid_argument "Gillespie.run: t1 must be positive") (fun () ->
      ignore (Ssa.Gillespie.run ~t1:0. net));
  Alcotest.check_raises "bad sample_dt"
    (Invalid_argument "Gillespie.run: sample_dt must be positive") (fun () ->
      ignore (Ssa.Gillespie.run ~sample_dt:0. ~t1:1. net))

(* ------------------------------------------------------------ Tau_leap *)

let test_poisson_moments () =
  let rng = Numeric.Rng.create 31L in
  List.iter
    (fun mean ->
      let n = 20000 in
      let acc = ref 0. and acc2 = ref 0. in
      for _ = 1 to n do
        let k = float_of_int (Ssa.Tau_leap.poisson rng mean) in
        acc := !acc +. k;
        acc2 := !acc2 +. (k *. k)
      done;
      let m = !acc /. float_of_int n in
      let var = (!acc2 /. float_of_int n) -. (m *. m) in
      (* Poisson: mean = variance = lambda; allow 5 sigma of the estimators *)
      let tol = 5. *. sqrt (mean /. float_of_int n) +. 0.05 *. mean in
      if Float.abs (m -. mean) > tol then
        Alcotest.failf "poisson(%g): mean %g" mean m;
      if Float.abs (var -. mean) > 0.15 *. Float.max 1. mean then
        Alcotest.failf "poisson(%g): variance %g" mean var)
    [ 0.3; 3.; 50. ];
  Alcotest.(check int) "zero mean" 0 (Ssa.Tau_leap.poisson rng 0.);
  Alcotest.check_raises "negative mean"
    (Invalid_argument "Tau_leap.poisson: negative mean") (fun () ->
      ignore (Ssa.Tau_leap.poisson rng (-1.)))

let test_tau_leap_decay_matches_analytic () =
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  Network.set_init net a 5000.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] Rates.slow);
  let { Ssa.Tau_leap.final; n_leaps; _ } =
    Ssa.Tau_leap.run ~seed:5L ~t1:1. net
  in
  (* expected 5000 e^-1 ~ 1839, sd ~ 34; allow 6 sigma *)
  Alcotest.(check bool)
    (Printf.sprintf "A(1) = %.0f near analytic" final.(a))
    true
    (Float.abs (final.(a) -. 1839.) < 220.);
  Alcotest.(check (float 0.)) "molecules conserved" 5000. (final.(a) +. final.(b));
  Alcotest.(check bool) "actually leapt" true (n_leaps > 10)

let test_tau_leap_small_counts_fall_back_exactly () =
  (* with tiny counts tau-leaping must degrade to the exact method and
     remain correct: 2A -> B with 11 molecules leaves exactly one A *)
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  Network.set_init net a 11.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 2) ] ~products:[ (b, 1) ] Rates.fast);
  let { Ssa.Tau_leap.final; _ } = Ssa.Tau_leap.run ~seed:3L ~t1:10. net in
  Alcotest.(check (float 0.)) "one A stranded" 1. final.(a);
  Alcotest.(check (float 0.)) "five B" 5. final.(b)

let test_tau_leap_faster_on_large_counts () =
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  let c = Network.species net "C" in
  Network.set_init net a 100000.;
  Network.set_init net b 80000.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1); (b, 1) ] ~products:[ (c, 1) ]
       (Rates.slow_scaled 1e-5));
  let direct = Ssa.Gillespie.run ~seed:3L ~t1:2. net in
  let leap = Ssa.Tau_leap.run ~seed:3L ~t1:2. net in
  (* orders of magnitude fewer steps, same destination within noise *)
  Alcotest.(check bool) "far fewer steps" true
    (leap.Ssa.Tau_leap.n_leaps + leap.n_exact
    < direct.Ssa.Gillespie.n_events / 20);
  Alcotest.(check bool) "same destination" true
    (Float.abs (leap.final.(c) -. direct.final.(c))
    < 0.03 *. direct.final.(c));
  Alcotest.(check (float 0.)) "conservation" (direct.final.(a) +. direct.final.(c))
    (leap.Ssa.Tau_leap.final.(a) +. leap.final.(c))

let test_tau_leap_invalid () =
  let net = decay_network 1. in
  Alcotest.check_raises "bad t1"
    (Invalid_argument "Tau_leap.run: t1 must be positive") (fun () ->
      ignore (Ssa.Tau_leap.run ~t1:0. net));
  Alcotest.check_raises "bad sample_dt"
    (Invalid_argument "Tau_leap.run: sample_dt must be positive") (fun () ->
      ignore (Ssa.Tau_leap.run ~sample_dt:(-1.) ~t1:1. net))

(* ------------------------------------------------------------- pinned *)

(* Minor-heap words allocated by the second of two identical calls (the
   first pays one-time costs). The count is a pure function of the code
   path, so it is exact on a given compiler and needs no host margin. *)
let minor_words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, int_of_float (Gc.minor_words () -. w0))

(* Fixed-seed exact-SSA runs on a reused arena: the trace bit for bit,
   and at most the minor words the runs allocated, both computed before
   the direct-method event was shared with the hybrid engine. *)
let test_ssa_pinned () =
  List.iter
    (fun (name, want, bound) ->
      let net = Designs.Catalog.build name in
      let model = Ssa.Gillespie.compile_model Rates.default_env net in
      let arena = Ssa.Gillespie.make_arena model in
      let r, words =
        minor_words (fun () -> Ssa.Gillespie.run ~seed:7L ~arena ~t1:20. net)
      in
      Alcotest.(check string) name want (Test_ode.trace_digest r.trace);
      if words > bound then
        Alcotest.failf
          "%s: %d minor words over %d events (%.2f/event), bound %d" name
          words r.n_events
          (float_of_int words /. float_of_int r.n_events)
          bound)
    [
      ("clock4", "f9e65159867297cc13a4d7ae03701f8f", 6_147_934);
      ("counter2", "a263b6b1b8f7fc9905364d80de5d583a", 7_048_910);
      ("counter3", "cc068e793e07a420eb48a5e9cf97ffd6", 7_817_857);
    ]

(* Tau-leaping trajectories, bit for bit, pinned before the engines'
   sample clock and trace copy were shared: counter2 runs on the exact
   fallback throughout, a populous A + B -> C leaps. *)
let test_tau_digests () =
  let big = Network.create () in
  let a = Network.species big "A" and b = Network.species big "B" in
  let c = Network.species big "C" in
  Network.set_init big a 100000.;
  Network.set_init big b 80000.;
  Network.add_reaction big
    (Reaction.make ~reactants:[ (a, 1); (b, 1) ] ~products:[ (c, 1) ]
       (Rates.slow_scaled 1e-5));
  List.iter
    (fun (name, net, t1, want, counts) ->
      let r = Ssa.Tau_leap.run ~seed:7L ~t1 net in
      Alcotest.(check string) name want (Test_ode.trace_digest r.trace);
      Alcotest.(check (pair int int)) (name ^ ": leaps, exact events") counts
        (r.n_leaps, r.n_exact))
    [
      ("counter2", Designs.Catalog.build "counter2", 20., "a263b6b1b8f7fc9905364d80de5d583a", (0, 161227));
      ("A + B -> C", big, 2., "c22effa25aad1e55a835a815fb99fddb", (207, 350));
    ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"ssa: molecule count conserved for closed networks"
      ~count:30
      (make Gen.(pair (int_range 1 200) (int_range 1 1000000)))
      (fun (n0, seed) ->
        let net = Network.create () in
        let x = Network.species net "X" and y = Network.species net "Y" in
        Network.set_init net x (float_of_int n0);
        Network.add_reaction net
          (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ] Rates.slow);
        Network.add_reaction net
          (Reaction.make ~reactants:[ (y, 1) ] ~products:[ (x, 1) ] Rates.slow);
        let { Ssa.Gillespie.final; _ } =
          Ssa.Gillespie.run ~seed:(Int64.of_int seed) ~t1:1. net
        in
        final.(0) +. final.(1) = float_of_int n0);
  ]

let suite =
  [
    ("ssa conserves molecules", `Quick, test_ssa_conserves_molecules);
    ("ssa exhausts decay", `Quick, test_ssa_exhausts_decay);
    ("ssa deterministic by seed", `Quick, test_ssa_deterministic_by_seed);
    ("ssa seed changes path", `Quick, test_ssa_seed_changes_path);
    ("ssa mean matches ode", `Slow, test_ssa_mean_matches_ode);
    ("ssa bimolecular halts", `Quick, test_ssa_bimolecular_halts);
    ("ssa zero order grows", `Quick, test_ssa_zero_order_grows);
    ("ssa trace sampling", `Quick, test_ssa_trace_sampling);
    ("ssa idle system", `Quick, test_ssa_empty_system_idles);
    ("ssa invalid args", `Quick, test_ssa_invalid_args);
    ("poisson moments", `Quick, test_poisson_moments);
    ("tau-leap decay analytic", `Quick, test_tau_leap_decay_matches_analytic);
    ("tau-leap small counts exact", `Quick, test_tau_leap_small_counts_fall_back_exactly);
    ("tau-leap faster on large counts", `Quick, test_tau_leap_faster_on_large_counts);
    ("tau-leap invalid", `Quick, test_tau_leap_invalid);
    ("ssa runs pinned", `Quick, test_ssa_pinned);
    ("tau trajectories pinned", `Quick, test_tau_digests);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
