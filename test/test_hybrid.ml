(* Tests for the hybrid adaptive SSA/tau-leap/ODE engine: the bitwise
   fallback to pure Gillespie, agreement with the ODE on fast networks,
   repartition boundaries (species crossing the population threshold in
   both directions), tau-gear bulk stepping, and deterministic multicore
   fan-out. *)

open Crn

let counter2 () = Designs.Catalog.build "counter2"

(* A -> B -> C unimolecular chain at large copy number: pure mass-action,
   everything ends up fast; the hybrid endpoint must track the ODE. *)
let chain_network a0 =
  let net = Network.create () in
  let a = Network.species net "A"
  and b = Network.species net "B"
  and c = Network.species net "C" in
  Network.set_init net a a0;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] Rates.slow);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (b, 1) ] ~products:[ (c, 1) ] Rates.slow);
  net

(* X -> Y decay started above the population threshold: the run begins
   deterministic and must hand back to the exact simulator when X drains
   below threshold. *)
let decay_network x0 =
  let net = Network.create () in
  let x = Network.species net "X" and y = Network.species net "Y" in
  Network.set_init net x x0;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ] Rates.slow);
  net

(* a populous fast flip-flop (continuous) next to a small fast-draining
   discrete pool: the slow channel's expected events per substep is large,
   which forces the tau gear *)
let tau_network () =
  let net = Network.create () in
  let x = Network.species net "X"
  and y = Network.species net "Y"
  and f = Network.species net "F"
  and f' = Network.species net "F'" in
  Network.set_init net x 500.;
  Network.set_init net f 100_000.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (x, 1) ] ~products:[ (y, 1) ]
       (Rates.slow_scaled 10.));
  Network.add_reaction net
    (Reaction.make ~reactants:[ (f, 1) ] ~products:[ (f', 1) ] Rates.slow);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (f', 1) ] ~products:[ (f, 1) ] Rates.slow);
  net

let check_trace_valid ?(conserve = []) ?(rtol = 1e-3) trace =
  let n = Ode.Trace.length trace in
  for i = 0 to n - 1 do
    let st = Ode.Trace.state_at_index trace i in
    Array.iteri
      (fun s v ->
        if v < 0. then
          Alcotest.failf "negative population %g for species %d at sample %d" v
            s i)
      st;
    List.iter
      (fun (species, total) ->
        let sum = List.fold_left (fun acc s -> acc +. st.(s)) 0. species in
        if Float.abs (sum -. total) > rtol *. Float.max total 1. then
          Alcotest.failf "conservation violated at sample %d: %g <> %g" i sum
            total)
      conserve
  done

(* ------------------------------------------- bitwise Gillespie fallback *)

let test_discrete_bitwise_gillespie () =
  (* the catalog designs at default masses stay below the default
     population threshold, so the hybrid engine must never leave discrete
     mode — and must then reproduce pure Gillespie bit for bit *)
  let net = counter2 () in
  let g = Ssa.Gillespie.run ~seed:3L ~t1:20. net in
  let h = Hybrid.Engine.run ~seed:3L ~t1:20. net in
  Alcotest.(check (array (float 0.))) "same final" g.final h.final;
  Alcotest.(check int) "same event count" g.n_events h.n_events;
  Alcotest.(check int) "no mode switches" 0 h.stats.n_mode_switches;
  Alcotest.(check int) "no ODE steps" 0 h.stats.n_ode_steps;
  Alcotest.(check bool) "checkpoints ran" true (h.stats.n_repartitions > 0);
  Alcotest.(check (array (float 0.)))
    "same sample times"
    (Ode.Trace.times g.trace)
    (Ode.Trace.times h.trace);
  for i = 0 to Ode.Trace.length g.trace - 1 do
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "same state at sample %d" i)
      (Ode.Trace.state_at_index g.trace i)
      (Ode.Trace.state_at_index h.trace i)
  done

(* ------------------------------------------------- ODE agreement (fast) *)

let test_fast_chain_matches_ode () =
  let a0 = 1_000_000. in
  let net = chain_network a0 in
  let ode = Ode.Driver.final_state ~t1:1. net in
  let h =
    Hybrid.Engine.run ~seed:11L ~pop_threshold:100. ~prop_threshold:10. ~t1:1.
      net
  in
  Alcotest.(check bool) "integrated, not simulated" true
    (h.stats.n_ode_steps > 0);
  Alcotest.(check bool) "entered mixed mode" true
    (h.stats.n_mode_switches >= 1);
  (* B crosses the thresholds upward mid-run: both chain reactions end fast *)
  Alcotest.(check int) "both reactions fast at the end" 2 h.stats.final_n_fast;
  for s = 0 to 2 do
    let err = Float.abs (h.final.(s) -. ode.(s)) in
    Alcotest.(check bool)
      (Printf.sprintf "species %d within 1%% of ODE (err %g)" s err)
      true
      (err < 0.01 *. a0)
  done;
  check_trace_valid ~conserve:[ ([ 0; 1; 2 ], a0) ] h.trace

(* ------------------------------------------- threshold crossing downward *)

let test_crossing_downward_hands_back_to_ssa () =
  let x0 = 3000. in
  let net = decay_network x0 in
  let h =
    Hybrid.Engine.run ~seed:7L ~pop_threshold:500. ~prop_threshold:100. ~t1:8.
      net
  in
  (* starts deterministic (X = 3000 is above both thresholds), must demote
     and finish exact once X drains below 500 *)
  Alcotest.(check bool) "entered mixed mode" true
    (h.stats.n_mode_switches >= 2);
  Alcotest.(check bool) "finished in discrete mode" true
    (h.stats.final_n_fast = 0);
  Alcotest.(check bool) "exact events after the handback" true
    (h.stats.n_ssa_events > 0);
  (* rounding at the mode switch may move at most a molecule *)
  Alcotest.(check bool) "mass conserved within rounding" true
    (Float.abs (h.final.(0) +. h.final.(1) -. x0) <= 2.);
  Alcotest.(check bool) "decay essentially complete" true (h.final.(0) < 30.);
  check_trace_valid ~conserve:[ ([ 0; 1 ], x0) ] ~rtol:1e-3 h.trace

(* ------------------------------------------------------------- tau gear *)

let test_tau_gear_bulk_fires () =
  let net = tau_network () in
  let h =
    Hybrid.Engine.run ~seed:5L ~pop_threshold:1000. ~prop_threshold:1000.
      ~t1:2. net
  in
  Alcotest.(check bool) "tau substeps taken" true (h.stats.n_tau_leaps > 0);
  Alcotest.(check bool) "tau events fired" true (h.stats.n_tau_events > 0);
  (* X and Y are untouched by the fast partition: they stay integer and
     exactly conserved through the bulk firings *)
  Alcotest.(check (float 0.)) "X + Y exact" 500. (h.final.(0) +. h.final.(1));
  Alcotest.(check bool) "X drained" true (h.final.(0) < 10.);
  let ff = h.final.(2) +. h.final.(3) in
  Alcotest.(check bool) "F + F' conserved by the ODE" true
    (Float.abs (ff -. 100_000.) < 1.);
  check_trace_valid ~conserve:[ ([ 0; 1 ], 500.) ] h.trace

(* ------------------------------------------------- ensemble determinism *)

let test_ensemble_deterministic_across_jobs_and_chunks () =
  let net = decay_network 3000. in
  let model = Hybrid.Engine.compile_model Rates.default_env net in
  let finals ~jobs ~chunk =
    Ssa.Ensemble.map_with ~jobs ~chunk ~seed:9L
      ~init_worker:(fun () -> Hybrid.Engine.make_arena model)
      ~runs:8
      (fun arena _ s ->
        let r =
          Hybrid.Engine.run ~seed:s ~pop_threshold:500. ~prop_threshold:100.
            ~arena ~t1:4. net
        in
        r.final)
  in
  let reference = finals ~jobs:1 ~chunk:1 in
  List.iter
    (fun (jobs, chunk) ->
      let got = finals ~jobs ~chunk in
      for i = 0 to 7 do
        Alcotest.(check (array (float 0.)))
          (Printf.sprintf "run %d identical at jobs=%d chunk=%d" i jobs chunk)
          reference.(i) got.(i)
      done)
    [ (2, 1); (2, 3); (3, 2); (4, 8) ]

let test_mean_final_deterministic () =
  let net = counter2 () in
  let model = Hybrid.Engine.compile_model Rates.default_env net in
  let go jobs =
    Test_ensemble.mean_final ~jobs ~seed:42L ~runs:6
      ~arena:(fun () -> Hybrid.Engine.make_arena model)
      ~run:(fun arena seed ->
        (Hybrid.Engine.run ~seed ~arena ~t1:10. net).final)
      net "ctr.bit0"
  in
  let m1, s1 = go 1 and m2, s2 = go 3 in
  Alcotest.(check (float 0.)) "mean independent of jobs" m1 m2;
  Alcotest.(check (float 0.)) "std independent of jobs" s1 s2

(* --------------------------------------------------------------- pinned *)

(* Trajectories through the mixed gear, bit for bit, pinned before the
   engine's RK4 slice and sample clock were shared: the tau gear on a
   populous flip-flop, and a decay that starts mixed and hands back to
   the exact gear. *)
let test_mixed_digests () =
  List.iter
    (fun (name, run, want) ->
      let h : Hybrid.Engine.result = run () in
      Alcotest.(check bool)
        (name ^ ": integrated") true
        (h.stats.n_ode_steps > 0);
      Alcotest.(check string) name want (Test_ode.trace_digest h.trace))
    [
      ( "tau gear",
        (fun () ->
          Hybrid.Engine.run ~seed:5L ~pop_threshold:1000. ~prop_threshold:1000.
            ~t1:2. (tau_network ())),
        "2cfc3ec7ae265898a2e005995c1c893c" );
      ( "crossing down",
        (fun () ->
          Hybrid.Engine.run ~seed:7L ~pop_threshold:500. ~prop_threshold:100.
            ~t1:8. (decay_network 3000.)),
        "663b1fe992daf1dca64f1f500f7ea0e3" );
    ]

(* A discrete-mode run allocates no more minor words than when it
   mirrored Gillespie's loop instead of sharing its event. *)
let test_discrete_minor_words () =
  let net = counter2 () in
  let arena =
    Hybrid.Engine.make_arena (Hybrid.Engine.compile_model Rates.default_env net)
  in
  let h, words =
    Test_ssa.minor_words (fun () ->
        Hybrid.Engine.run ~seed:7L ~arena ~t1:20. net)
  in
  Alcotest.(check int) "discrete throughout" 0 h.stats.n_mode_switches;
  let bound = 7_126_567 in
  if words > bound then
    Alcotest.failf "%d minor words over %d events (%.2f/event), bound %d" words
      h.n_events
      (float_of_int words /. float_of_int h.n_events)
      bound

(* --------------------------------------------------------- error paths *)

let test_budget_error () =
  let net = counter2 () in
  match Hybrid.Engine.run_result ~max_events:100 ~t1:60. net with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error (Hybrid.Engine.Max_events_exceeded { max_events; _ }) ->
      Alcotest.(check int) "budget echoed" 100 max_events

let test_cancellation () =
  let net = chain_network 1_000_000. in
  Alcotest.check_raises "cancelled" Numeric.Cancel.Cancelled (fun () ->
      ignore
        (Hybrid.Engine.run
           ~cancel:(Numeric.Cancel.of_fun (fun () -> true))
           ~pop_threshold:100. ~prop_threshold:10. ~t1:1. net))

let test_invalid_args () =
  let net = counter2 () in
  List.iter
    (fun (msg, f) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (f ())))
    [
      ( "Hybrid.run: t1 must be positive",
        fun () -> Hybrid.Engine.run ~t1:0. net );
      ( "Hybrid.run: pop_threshold must be positive",
        fun () -> Hybrid.Engine.run ~pop_threshold:0. ~t1:1. net );
      ( "Hybrid.run: prop_threshold must be positive",
        fun () -> Hybrid.Engine.run ~prop_threshold:(-1.) ~t1:1. net );
      ( "Hybrid.run: repartition_every must be >= 1",
        fun () -> Hybrid.Engine.run ~repartition_every:0 ~t1:1. net );
      ( "Hybrid.run: epsilon must be in (0, 1)",
        fun () -> Hybrid.Engine.run ~epsilon:1.5 ~t1:1. net );
    ]

(* ------------------------------------------------------- property tests *)

let qcheck_tests =
  let open QCheck in
  [
    (* satellite property: below the population threshold the hybrid
       engine IS Gillespie, for every seed *)
    Test.make
      ~name:"hybrid: bitwise-identical to Gillespie below pop threshold"
      ~count:15
      (make Gen.(int_range 1 1_000_000))
      (fun seed ->
        let seed = Int64.of_int seed in
        let net = counter2 () in
        let g = Ssa.Gillespie.run ~seed ~t1:8. net in
        let h = Hybrid.Engine.run ~seed ~t1:8. net in
        g.final = h.final && g.n_events = h.n_events
        && h.stats.n_mode_switches = 0);
    Test.make
      ~name:"hybrid: fast mass-action endpoint tracks the ODE for random A0"
      ~count:10
      (make Gen.(pair (int_range 200_000 2_000_000) (int_range 1 10_000)))
      (fun (a0, seed) ->
        let a0 = float_of_int a0 in
        let net = chain_network a0 in
        let ode = Ode.Driver.final_state ~t1:1. net in
        let h =
          Hybrid.Engine.run ~seed:(Int64.of_int seed) ~pop_threshold:100.
            ~prop_threshold:10. ~t1:1. net
        in
        let ok = ref true in
        for s = 0 to 2 do
          if Float.abs (h.final.(s) -. ode.(s)) > 0.01 *. a0 then ok := false
        done;
        !ok);
    Test.make
      ~name:"hybrid: crossing runs conserve mass and stay non-negative"
      ~count:15
      (make Gen.(pair (int_range 600 5000) (int_range 1 10_000)))
      (fun (x0, seed) ->
        let x0 = float_of_int x0 in
        let net = decay_network x0 in
        let h =
          Hybrid.Engine.run ~seed:(Int64.of_int seed) ~pop_threshold:500.
            ~prop_threshold:100. ~t1:6. net
        in
        let ok = ref (Float.abs (h.final.(0) +. h.final.(1) -. x0) <= 2.) in
        for i = 0 to Ode.Trace.length h.trace - 1 do
          Array.iter
            (fun v -> if v < 0. then ok := false)
            (Ode.Trace.state_at_index h.trace i)
        done;
        !ok);
  ]

let suite =
  [
    ("discrete mode bitwise = Gillespie", `Quick, test_discrete_bitwise_gillespie);
    ("fast chain matches ODE", `Quick, test_fast_chain_matches_ode);
    ("crossing down hands back to SSA", `Quick, test_crossing_downward_hands_back_to_ssa);
    ("tau gear bulk-fires", `Quick, test_tau_gear_bulk_fires);
    ("ensemble deterministic across jobs/chunks", `Quick, test_ensemble_deterministic_across_jobs_and_chunks);
    ("mean_final deterministic", `Quick, test_mean_final_deterministic);
    ("work budget error", `Quick, test_budget_error);
    ("cancellation", `Quick, test_cancellation);
    ("invalid arguments", `Quick, test_invalid_args);
    ("mixed-mode trajectories pinned", `Quick, test_mixed_digests);
    ("discrete-mode minor words pinned", `Quick, test_discrete_minor_words);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
