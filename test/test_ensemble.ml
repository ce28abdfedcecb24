(* Tests for the incremental-propensity SSA engine and the multicore
   ensemble runner: the dependency graph must make incremental updates
   indistinguishable from full recompute, and parallel ensembles must be
   byte-identical to sequential ones. *)

open Crn

(* a deterministic pseudo-random network: [ns] species, [nr] reactions with
   0-2 distinct reactants and 0-2 products, coefficients 1-2 *)
let random_network rng ~ns ~nr =
  let net = Network.create () in
  let species =
    Array.init ns (fun i -> Network.species net (Printf.sprintf "S%d" i))
  in
  Array.iter
    (fun s ->
      Network.set_init net s (float_of_int (Numeric.Rng.int rng 40)))
    species;
  let side max_len =
    let len = Numeric.Rng.int rng (max_len + 1) in
    List.init len (fun _ ->
        (species.(Numeric.Rng.int rng ns), 1 + Numeric.Rng.int rng 2))
  in
  let added = ref 0 in
  while !added < nr do
    let reactants = side 2 and products = side 2 in
    if reactants <> [] || products <> [] then begin
      Network.add_reaction net
        (Reaction.make ~reactants ~products
           (Rates.slow_scaled (0.5 +. Numeric.Rng.float rng)));
      incr added
    end
  done;
  net

(* the ISSUE's qcheck property: maintain propensities incrementally through
   a random fireable event sequence, and after every event they must equal
   a full from-scratch recompute, exactly *)
let incremental_matches_full (net_seed, ev_seed) =
  let rng = Numeric.Rng.create (Int64.of_int net_seed) in
  let ns = 2 + Numeric.Rng.int rng 4 and nr = 1 + Numeric.Rng.int rng 8 in
  let net = random_network rng ~ns ~nr in
  let reactions = Ssa.Compiled.compile Rates.default_env net in
  let deps =
    Ssa.Dep_graph.build reactions ~n_species:(Network.n_species net)
  in
  let counts =
    Array.map
      (fun x -> int_of_float (Float.round x))
      (Network.initial_state net)
  in
  let m = Array.length reactions in
  let props = Array.map (fun r -> Ssa.Compiled.propensity r counts) reactions in
  let ev = Numeric.Rng.create (Int64.of_int ev_seed) in
  let ok = ref true in
  (try
     for _ = 1 to 60 do
       (* fire a uniformly chosen fireable reaction *)
       let fireable =
         Array.to_list
           (Array.of_seq
              (Seq.filter
                 (fun j -> props.(j) > 0.)
                 (Seq.init m (fun j -> j))))
       in
       if fireable = [] then raise Exit;
       let j =
         List.nth fireable (Numeric.Rng.int ev (List.length fireable))
       in
       Ssa.Compiled.apply reactions.(j) counts 1;
       Array.iter
         (fun i -> props.(i) <- Ssa.Compiled.propensity reactions.(i) counts)
         (Array.to_seq (Ssa.Dep_graph.affected deps j) |> Array.of_seq);
       (* every propensity — affected or not — must equal full recompute *)
       for i = 0 to m - 1 do
         if props.(i) <> Ssa.Compiled.propensity reactions.(i) counts then
           ok := false
       done;
       if not !ok then raise Exit
     done
   with Exit -> ());
  !ok

(* the ISSUE's other qcheck property: ensemble output is byte-identical
   across jobs in {1,2,3,7} x chunk in {1,4,whole-range}, with the
   parallel scheduler genuinely engaged via [oversubscribe] even on a
   1-core host; trial varies the root seed and the run count *)
let ensemble_jobs_chunk_identical (root, runs_m1) =
  let runs = 1 + runs_m1 in
  let seed = Int64.of_int root in
  let net = Designs.Catalog.build "counter2" in
  let model = Ssa.Gillespie.compile_model Rates.default_env net in
  let go ~jobs ~chunk =
    Ssa.Ensemble.map_with ~oversubscribe:true ~jobs ~chunk ~seed
      ~init_worker:(fun () -> Ssa.Gillespie.make_arena model)
      ~runs
      (fun arena _ s ->
        (Ssa.Gillespie.run ~seed:s ~arena ~t1:3. net).Ssa.Gillespie.final)
  in
  let seq = go ~jobs:1 ~chunk:runs in
  List.for_all
    (fun jobs ->
      List.for_all
        (fun chunk -> go ~jobs ~chunk = seq)
        [ 1; 4; runs ])
    [ 1; 2; 3; 7 ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"incremental propensities equal full recompute" ~count:100
      (make Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
      incremental_matches_full;
    Test.make ~name:"ensemble byte-identical across jobs x chunk" ~count:10
      (make Gen.(pair (int_range 0 1_000_000) (int_range 0 7)))
      ensemble_jobs_chunk_identical;
  ]

(* ------------------------------------------------------- dep graph *)

let test_dep_graph_decay_chain () =
  (* A -> B -> C: firing 0 affects both (consumes A, produces B); firing 1
     affects only itself (C is no reactant) *)
  let net = Network.create () in
  let a = Network.species net "A"
  and b = Network.species net "B"
  and c = Network.species net "C" in
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] Rates.slow);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (b, 1) ] ~products:[ (c, 1) ] Rates.slow);
  let reactions = Ssa.Compiled.compile Rates.default_env net in
  let g = Ssa.Dep_graph.build reactions ~n_species:3 in
  Alcotest.(check (array int)) "deps of A->B" [| 0; 1 |]
    (Ssa.Dep_graph.affected g 0);
  Alcotest.(check (array int)) "deps of B->C" [| 1 |]
    (Ssa.Dep_graph.affected g 1);
  Alcotest.(check int) "max degree" 2 (Ssa.Dep_graph.max_out_degree g)

let test_dep_graph_catalyst_no_edge () =
  (* X + E -> Y + E: E is a catalyst (zero net delta), so the E-consuming
     reaction 1 is not affected by firing reaction 0 through E — only
     through nothing at all (X down, Y up touch no reactant of 1) *)
  let net = Network.create () in
  let x = Network.species net "X"
  and e = Network.species net "E"
  and y = Network.species net "Y"
  and z = Network.species net "Z" in
  Network.add_reaction net
    (Reaction.make ~reactants:[ (x, 1); (e, 1) ] ~products:[ (y, 1); (e, 1) ]
       Rates.fast);
  Network.add_reaction net
    (Reaction.make ~reactants:[ (e, 1) ] ~products:[ (z, 1) ] Rates.slow);
  let reactions = Ssa.Compiled.compile Rates.default_env net in
  let g = Ssa.Dep_graph.build reactions ~n_species:4 in
  Alcotest.(check (array int)) "catalyst creates no edge" [| 0 |]
    (Ssa.Dep_graph.affected g 0)

(* ------------------------------------------- incremental vs naive runs *)

let test_refresh_every_one_is_full_recompute () =
  (* refresh_every:1 rebuilds everything after every event — the engine
     degenerates to the naive direct method; the trajectory must agree
     with the default incremental cadence *)
  let net = Designs.Catalog.build "counter2" in
  let a = Ssa.Gillespie.run ~seed:7L ~t1:20. ~refresh_every:1 net in
  let b = Ssa.Gillespie.run ~seed:7L ~t1:20. net in
  Alcotest.(check int) "same event count" a.Ssa.Gillespie.n_events
    b.Ssa.Gillespie.n_events;
  Alcotest.(check (array (float 0.))) "same final state" a.final b.final

let test_max_events_structured_error () =
  let net = Designs.Catalog.build "clock4" in
  (match Ssa.Gillespie.run_result ~seed:1L ~max_events:100 ~t1:50. net with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error (Ssa.Gillespie.Max_events_exceeded { max_events; t }) ->
      Alcotest.(check int) "budget" 100 max_events;
      Alcotest.(check bool) "stopped mid-run" true (t >= 0. && t < 50.));
  match Ssa.Gillespie.run ~seed:1L ~max_events:100 ~t1:50. net with
  | exception Ssa.Gillespie.Error (Ssa.Gillespie.Max_events_exceeded _) -> ()
  | _ -> Alcotest.fail "run should raise Gillespie.Error"

let test_tau_leap_structured_error () =
  let net = Designs.Catalog.build "clock4" in
  match Ssa.Tau_leap.run_result ~seed:1L ~max_steps:10 ~t1:50. net with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error (Ssa.Tau_leap.Max_steps_exceeded { max_steps; _ }) ->
      Alcotest.(check int) "budget" 10 max_steps

(* ------------------------------------------------------- ensemble *)

let test_ensemble_parallel_identical () =
  (* the ISSUE's acceptance property: ensemble output is byte-identical
     regardless of the job count *)
  let net = Designs.Catalog.build "clock4" in
  let go jobs =
    Ssa.Ensemble.map ~jobs ~seed:42L ~runs:6 (fun _ s ->
        (Ssa.Gillespie.run ~seed:s ~t1:10. net).Ssa.Gillespie.final)
  in
  let seq = go 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical to jobs=1" jobs)
        true
        (go jobs = seq))
    [ 2; 3; 6 ]

(* Mean and sample standard deviation of one species' final value over
   an ensemble: the model compiled once, one arena per worker domain. *)
let mean_final ~jobs ~seed ~runs ~arena ~run net species =
  let idx = Option.get (Network.find_species net species) in
  let xs =
    Ssa.Ensemble.map_with ~jobs ~seed ~init_worker:arena ~runs (fun a _ s ->
        (run a s : float array).(idx))
  in
  (Numeric.Stats.mean xs, Numeric.Stats.stddev xs)

let test_ensemble_mean_final_jobs_invariant () =
  let net = Designs.Catalog.build "clock4" in
  let model = Ssa.Gillespie.compile_model Rates.default_env net in
  let go jobs =
    mean_final ~jobs ~seed:9L ~runs:5
      ~arena:(fun () -> Ssa.Gillespie.make_arena model)
      ~run:(fun arena seed ->
        (Ssa.Gillespie.run ~seed ~arena ~t1:10. net).final)
      net "clk.P0"
  in
  let m1, s1 = go 1 and m4, s4 = go 4 in
  Alcotest.(check (float 0.)) "mean identical" m1 m4;
  Alcotest.(check (float 0.)) "std identical" s1 s4

let test_ensemble_trajectory_order () =
  (* results come back in trajectory order with the documented seeds *)
  let seeds = Ssa.Ensemble.seeds ~seed:5L ~runs:8 in
  let got = Ssa.Ensemble.map ~jobs:3 ~seed:5L ~runs:8 (fun i s -> (i, s)) in
  Alcotest.(check (array int)) "indices in order"
    (Array.init 8 (fun i -> i))
    (Array.map fst got);
  Array.iteri
    (fun i (_, s) ->
      Alcotest.(check int64) (Printf.sprintf "seed %d" i) seeds.(i) s)
    got

let test_ensemble_invalid_args () =
  Alcotest.check_raises "bad runs"
    (Invalid_argument "Ensemble.map: runs must be >= 1") (fun () ->
      ignore (Ssa.Ensemble.map ~runs:0 (fun _ _ -> ())));
  Alcotest.check_raises "bad jobs"
    (Invalid_argument "Ensemble.map: jobs must be >= 1") (fun () ->
      ignore (Ssa.Ensemble.map ~jobs:0 ~runs:2 (fun _ _ -> ())))

let test_ensemble_worker_exception_propagates () =
  match
    Ssa.Ensemble.map ~jobs:2 ~runs:4 (fun i _ ->
        if i = 3 then failwith "boom" else i)
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

(* ------------------------------------------------- arena reuse *)

let test_gillespie_arena_no_leakage () =
  (* the ISSUE's arena-reuse test: a run must be bitwise independent of
     the arena's prior contents — same seed gives the identical trace
     even after an interleaved run with a different seed *)
  let net = Designs.Catalog.build "clock4" in
  let model = Ssa.Gillespie.compile_model Rates.default_env net in
  let arena = Ssa.Gillespie.make_arena model in
  let fresh = Ssa.Gillespie.run ~seed:11L ~t1:5. net in
  let a = Ssa.Gillespie.run ~seed:11L ~arena ~t1:5. net in
  ignore (Ssa.Gillespie.run ~seed:99L ~arena ~t1:5. net);
  let b = Ssa.Gillespie.run ~seed:11L ~arena ~t1:5. net in
  Alcotest.(check int) "event count stable" a.Ssa.Gillespie.n_events
    b.Ssa.Gillespie.n_events;
  Alcotest.(check (array (float 0.))) "final state stable" a.final b.final;
  Alcotest.(check bool) "whole result stable" true (a = b);
  Alcotest.(check bool) "arena run = fresh-compile run" true (a = fresh)

let test_tau_leap_arena_no_leakage () =
  let net = Designs.Catalog.build "clock4" in
  let model = Ssa.Tau_leap.compile_model Rates.default_env net in
  let arena = Ssa.Tau_leap.make_arena model in
  let fresh = Ssa.Tau_leap.run ~seed:11L ~t1:5. net in
  let a = Ssa.Tau_leap.run ~seed:11L ~arena ~t1:5. net in
  ignore (Ssa.Tau_leap.run ~seed:99L ~arena ~t1:5. net);
  let b = Ssa.Tau_leap.run ~seed:11L ~arena ~t1:5. net in
  Alcotest.(check bool) "whole result stable" true (a = b);
  Alcotest.(check bool) "arena run = fresh-compile run" true (a = fresh)

let test_arena_wrong_network_rejected () =
  let net = Designs.Catalog.build "clock4" in
  (* a 2-species toy net: its species count cannot match clock4's *)
  let other = Network.create () in
  let a = Network.species other "A" and b = Network.species other "B" in
  Network.set_init other a 10.;
  Network.add_reaction other
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] Rates.slow);
  let arena =
    Ssa.Gillespie.make_arena (Ssa.Gillespie.compile_model Rates.default_env net)
  in
  Alcotest.check_raises "species count mismatch"
    (Invalid_argument "Gillespie.run: network does not match the compiled model")
    (fun () -> ignore (Ssa.Gillespie.run ~seed:1L ~arena ~t1:1. other))

let test_tau_leap_mean_final () =
  let net = Network.create () in
  let a = Network.species net "A" and b = Network.species net "B" in
  Network.set_init net a 4000.;
  Network.add_reaction net
    (Reaction.make ~reactants:[ (a, 1) ] ~products:[ (b, 1) ] Rates.slow);
  let model = Ssa.Tau_leap.compile_model Rates.default_env net in
  let go jobs =
    fst
      (mean_final ~jobs ~seed:3L ~runs:6
         ~arena:(fun () -> Ssa.Tau_leap.make_arena model)
         ~run:(fun arena seed ->
           (Ssa.Tau_leap.run ~seed ~arena ~t1:1. net).final)
         net "A")
  in
  let m1 = go 1 and m2 = go 3 in
  Alcotest.(check (float 0.)) "jobs invariant" m1 m2;
  (* 4000 e^-1 ~ 1472; generous statistical bound *)
  Alcotest.(check bool) "near analytic" true (Float.abs (m1 -. 1472.) < 150.)

let suite =
  [
    ("dep graph decay chain", `Quick, test_dep_graph_decay_chain);
    ("dep graph catalyst", `Quick, test_dep_graph_catalyst_no_edge);
    ("refresh_every=1 = full recompute", `Quick, test_refresh_every_one_is_full_recompute);
    ("max_events structured error", `Quick, test_max_events_structured_error);
    ("tau-leap structured error", `Quick, test_tau_leap_structured_error);
    ("parallel ensemble identical", `Slow, test_ensemble_parallel_identical);
    ("mean_final jobs invariant", `Quick, test_ensemble_mean_final_jobs_invariant);
    ("ensemble trajectory order", `Quick, test_ensemble_trajectory_order);
    ("ensemble invalid args", `Quick, test_ensemble_invalid_args);
    ("worker exception propagates", `Quick, test_ensemble_worker_exception_propagates);
    ("gillespie arena no leakage", `Quick, test_gillespie_arena_no_leakage);
    ("tau-leap arena no leakage", `Quick, test_tau_leap_arena_no_leakage);
    ("arena wrong network rejected", `Quick, test_arena_wrong_network_rejected);
    ("tau-leap mean_final", `Quick, test_tau_leap_mean_final);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
