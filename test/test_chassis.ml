(* Cross-chassis conformance battery: every sequential design family must
   produce the same logical output sequence on every registered clock
   chassis — under deterministic (ODE), stochastic (SSA) and hybrid
   execution. The chassis abstraction only earns its keep if a design
   synthesized against it cannot tell the clocks apart.

   Also here: the chassis knob property (random valid parameters on both
   chassis yield clocks whose phase species partition the total clock
   mass, certified by the exact tier and measured along the trajectory;
   a failure prints a replayable seed — rerun with
   CHASSIS_REPLAY_SEED=<seed>), and the regression tests pinning that
   phase naming flows through the chassis interface rather than being
   assumed by consumers. *)

let chassis_list = Molclock.Clock_chassis.all

let chassis_name c = c.Molclock.Clock_chassis.name

let on_chassis chassis f =
  let net = Crn.Network.create () in
  let d = Core.Sync_design.make ~chassis ~signal_mass:30. net in
  f net d

let for_each_chassis f = List.iter (fun c -> f (chassis_name c) c) chassis_list

(* ------------------------------------- deterministic (ODE) conformance *)

let counter_sequence chassis ~bits ~cycles =
  on_chassis chassis (fun _net d ->
      let ctr = Core.Counter.free_running d ~bits in
      let tr = Core.Sync_design.simulate ~cycles:(cycles + 1) d in
      List.init cycles (fun c -> Core.Counter.value_at ctr tr ~cycle:c))

let test_counter_conformance () =
  let want = List.init 8 (fun c -> Some ((c + 1) mod 4)) in
  for_each_chassis (fun name ch ->
      Alcotest.(check (list (option int)))
        (Printf.sprintf "counter2 sequence [%s]" name)
        want
        (counter_sequence ch ~bits:2 ~cycles:8))

let test_counter3_conformance () =
  let want = List.init 9 (fun c -> Some ((c + 1) mod 8)) in
  for_each_chassis (fun name ch ->
      Alcotest.(check (list (option int)))
        (Printf.sprintf "counter3 sequence [%s]" name)
        want
        (counter_sequence ch ~bits:3 ~cycles:9))

let test_gated_counter_conformance () =
  for_each_chassis (fun name ch ->
      on_chassis ch (fun _net d ->
          let ctr = Core.Counter.gated d ~bits:2 in
          let _, states =
            Core.Fsm.run ctr.Core.Counter.fsm ~symbols:[ 1; 1; 0; 1 ]
          in
          Alcotest.(check (list (option int)))
            (Printf.sprintf "gated counter counts only on 1s [%s]" name)
            [ Some 1; Some 2; Some 2; Some 3 ]
            states))

let test_lfsr_conformance () =
  List.iter
    (fun (bits, taps) ->
      let want = Core.Lfsr.reference ~bits ~taps ~seed:1 ~n:8 in
      for_each_chassis (fun name ch ->
          on_chassis ch (fun _net d ->
              let l = Core.Lfsr.make d ~bits ~taps ~seed:1 in
              let tr = Core.Sync_design.simulate ~cycles:9 d in
              let got =
                List.init 8 (fun c -> Core.Lfsr.state_at l tr ~cycle:c)
              in
              Alcotest.(check (list int))
                (Printf.sprintf "lfsr%d matches reference [%s]" bits name)
                want got)))
    [ (3, [ 1; 2 ]); (4, [ 2; 3 ]) ]

let test_filter_conformance () =
  let samples = [ 8.; 8.; 0.; 4. ] in
  for_each_chassis (fun name ch ->
      on_chassis ch (fun _net d ->
          let f = Core.Filter.moving_average d ~taps:2 in
          let got = Core.Filter.response f samples in
          let want = Core.Filter.reference_moving_average ~taps:2 samples in
          List.iter2
            (fun g w ->
              if Float.abs (g -. w) > 0.3 then
                Alcotest.failf "ma2 [%s]: got %g want %g" name g w)
            got want);
      on_chassis ch (fun _net d ->
          let f = Core.Filter.iir_smoother d in
          let got = Core.Filter.response f [ 8.; 8.; 8.; 0. ] in
          let want = Core.Filter.reference_iir [ 8.; 8.; 8.; 0. ] in
          List.iter2
            (fun g w ->
              if Float.abs (g -. w) > 0.35 then
                Alcotest.failf "iir [%s]: got %g want %g" name g w)
            got want))

let test_iterative_conformance () =
  for_each_chassis (fun name ch ->
      on_chassis ch (fun _net d ->
          let m = Core.Iterative.multiplier d ~a:3. ~count:4 in
          Alcotest.(check (float 0.4))
            (Printf.sprintf "3*4 [%s]" name)
            12. (Core.Iterative.run m));
      on_chassis ch (fun _net d ->
          let p = Core.Iterative.power2 d ~n:5 in
          let v = Core.Iterative.run p in
          Alcotest.(check bool)
            (Printf.sprintf "2^5 within 8%% [%s]" name)
            true
            (Float.abs (v -. 32.) < 2.6)))

let test_module_seq_conformance () =
  for_each_chassis (fun name ch ->
      on_chassis ch (fun _net d ->
          let m = Designs.Module_seq.make d in
          let tr = Core.Sync_design.simulate ~cycles:3 d in
          Alcotest.(check bool)
            (Printf.sprintf "all modules fired [%s]" name)
            true
            (Designs.Module_seq.completed tr m);
          Alcotest.(check (list int))
            (Printf.sprintf "modules occur in stage order [%s]" name)
            [ 0; 1; 2; 3 ]
            (Designs.Module_seq.completion_order tr m)))

(* ------------------------------------------- stochastic conformance *)

(* SSA clock periods are emergent (and chassis-specific), so decode via
   trace-derived cycle boundaries; the logical assertion — every decoded
   step advances the counter by exactly one — is the same on both
   chassis. The horizon is per-chassis only because stochastic periods
   are emergent: the absence clock's is about twice its deterministic
   one, the relaxation clock's about 2.5x (each re-ignition waits on a
   discrete seed arrival). *)
let ssa_horizon name = if name = "absence" then 120. else 150.

let test_ssa_counter_conformance () =
  for_each_chassis (fun name ch ->
      on_chassis ch (fun net d ->
          let ctr = Core.Counter.free_running d ~bits:2 in
          let { Ssa.Gillespie.trace; _ } =
            Ssa.Gillespie.run ~seed:5L ~sample_dt:0.05 ~t1:(ssa_horizon name)
              net
          in
          let states = Core.Stochastic.counter_states trace ctr in
          Alcotest.(check bool)
            (Printf.sprintf "several cycles decoded (%d) [%s]"
               (List.length states) name)
            true
            (List.length states >= 4);
          Alcotest.(check bool)
            (Printf.sprintf "every step increments by one [%s]" name)
            true
            (Core.Stochastic.increments_by_one states ~modulo:4)))

let test_ssa_module_seq_conformance () =
  for_each_chassis (fun name ch ->
      on_chassis ch (fun net d ->
          let m = Designs.Module_seq.make d in
          let { Ssa.Gillespie.trace; _ } =
            Ssa.Gillespie.run ~seed:11L ~sample_dt:0.05
              ~t1:(ssa_horizon name /. 2.)
              net
          in
          Alcotest.(check (list int))
            (Printf.sprintf "stage order survives discreteness [%s]" name)
            [ 0; 1; 2; 3 ]
            (Designs.Module_seq.completion_order trace m)))

(* ---------------------------------------------- hybrid conformance *)

(* Default thresholds keep these populations in discrete mode (bitwise
   Gillespie); lowered thresholds force the fast clock reactions onto
   the ODE partition, so the decode must survive genuine mixed-mode
   execution on both chassis. *)
let test_hybrid_counter_conformance () =
  for_each_chassis (fun name ch ->
      on_chassis ch (fun net d ->
          let ctr = Core.Counter.free_running d ~bits:2 in
          let r =
            Hybrid.Engine.run ~seed:5L ~sample_dt:0.05 ~pop_threshold:40.
              ~prop_threshold:100. ~t1:(ssa_horizon name) net
          in
          Alcotest.(check bool)
            (Printf.sprintf "mixed mode engaged [%s]" name)
            true
            (r.Hybrid.Engine.stats.Hybrid.Engine.n_ode_steps > 0);
          let states =
            Core.Stochastic.counter_states r.Hybrid.Engine.trace ctr
          in
          Alcotest.(check bool)
            (Printf.sprintf "several cycles decoded (%d) [%s]"
               (List.length states) name)
            true
            (List.length states >= 4);
          Alcotest.(check bool)
            (Printf.sprintf "every step increments by one [%s]" name)
            true
            (Core.Stochastic.increments_by_one states ~modulo:4)))

(* --------------------------------- checkpoint/resume on a relaxation clock *)

let check_traces what a b =
  Alcotest.(check int) (what ^ ": trace length") (Ode.Trace.length a)
    (Ode.Trace.length b);
  let same x y = Int64.bits_of_float x = Int64.bits_of_float y in
  for i = 0 to Ode.Trace.length a - 1 do
    let ta = (Ode.Trace.times a).(i) and tb = (Ode.Trace.times b).(i) in
    if not (same ta tb) then
      Alcotest.failf "%s: time[%d] differs: %h vs %h" what i ta tb;
    let xa = Ode.Trace.state_at_index a i
    and xb = Ode.Trace.state_at_index b i in
    Array.iteri
      (fun s va ->
        if not (same va xb.(s)) then
          Alcotest.failf "%s: state[%d][%d] differs: %h vs %h" what i s va
            xb.(s))
      xa
  done

(* a token that cancels forever after the Nth poll *)
let cancel_after n =
  let polls = ref 0 in
  Numeric.Cancel.of_fun (fun () ->
      incr polls;
      !polls > n)

(* interrupt an SSA run of the relaxation clock mid-trajectory, round-trip
   the checkpoint through its codec, resume, and demand the
   bitwise-identical trace — the service tier's checkpoints must not
   care which chassis generated the trajectory *)
let test_relaxation_resume_bitwise () =
  let module S = Service.Snapshot in
  let net = Designs.Catalog.build "rx-clock4" in
  let env = Crn.Rates.env_with_ratio 1000. in
  let t1 = 3. and seed = 9L in
  let full = Ssa.Gillespie.run ~env ~seed ~t1 net in
  let captured = ref None in
  match
    Ssa.Gillespie.run ~env ~seed ~cancel:(cancel_after 3)
      ~on_cancel:(fun ck -> captured := Some ck)
      ~t1 net
  with
  | _ -> Alcotest.fail "relaxation run finished before the token tripped"
  | exception Numeric.Cancel.Cancelled ->
      let ck =
        match !captured with
        | Some ck -> ck
        | None -> Alcotest.fail "cancelled without on_cancel"
      in
      let sc =
        S.decode_sim
          (S.encode_sim
             {
               S.sc_net = net;
               sc_env = env;
               sc_t1 = t1;
               sc_seed = seed;
               sc_params = [||];
               sc_state = S.Ssa_ck ck;
             })
      in
      let ck =
        match sc.S.sc_state with S.Ssa_ck c -> c | _ -> assert false
      in
      let resumed =
        Ssa.Gillespie.run ~env:sc.S.sc_env ~seed:sc.S.sc_seed ~resume:ck
          ~t1:sc.S.sc_t1 sc.S.sc_net
      in
      check_traces "relaxation ssa resume" full.Ssa.Gillespie.trace
        resumed.Ssa.Gillespie.trace

(* --------------------------------------------- chassis knob property *)

(* Build a bare clock on [chassis] with seed-derived valid knobs; return
   the network, the instance, and the exact-tier non-overlap witness. *)
let random_clock rng chassis =
  let name = chassis_name chassis in
  let n_phases =
    if name = "relaxation" then 4 + (2 * Random.State.int rng 2)
    else 3 + Random.State.int rng 4
  in
  let mass = 50. +. Random.State.float rng 150. in
  let net = Crn.Network.create () in
  let inst =
    Molclock.Clock_chassis.build chassis ~n_phases ~mass
      (Crn.Builder.scoped (Crn.Builder.on net) "clk")
  in
  (net, inst)

let witness_law view =
  match Exact.Invariant.find_clocks view with
  | [ c ] -> (
      match Exact.Invariant.phase_non_overlap view c with
      | Exact.Invariant.Proved l -> Some l
      | _ -> None)
  | _ -> None

(* structural half: on any valid knobs, the exact tier proves a
   nonnegative conservation law over the clock species whose total is
   exactly the requested mass — the phase species (plus bound forms)
   partition the clock mass as a theorem, not a measurement *)
let knob_partition_structural seed =
  let rng = Random.State.make [| seed |] in
  List.for_all
    (fun chassis ->
      let net, inst = random_clock rng chassis in
      let view = Crn.Exact_view.of_network net in
      match witness_law view with
      | None -> false
      | Some l ->
          Exact.Invariant.check_law view l.weights
          && Exact.Q.equal l.total
               (Exact.Q.of_float (Molclock.Clock_chassis.mass inst)))
    chassis_list

(* numeric half: simulate the same random clocks and check the witness
   weighting stays at the clock mass along the trajectory while
   non-adjacent phases never overlap beyond tolerance *)
let knob_partition_numeric seed =
  let rng = Random.State.make [| seed |] in
  List.for_all
    (fun chassis ->
      let net, inst = random_clock rng chassis in
      let mass = Molclock.Clock_chassis.mass inst in
      let view = Crn.Exact_view.of_network net in
      let weights =
        match witness_law view with
        | Some l -> Array.map Exact.Z.to_float l.Exact.Invariant.weights
        | None -> QCheck.Test.fail_reportf "seed %d: no witness law" seed
      in
      let trace =
        Ode.Driver.simulate ~method_:Ode.Driver.Rosenbrock
          ~env:(Crn.Rates.env_with_ratio 1000.) ~thin:5 ~t1:100. net
      in
      let partitions =
        let ok = ref true in
        for i = 0 to Ode.Trace.length trace - 1 do
          let x = Ode.Trace.state_at_index trace i in
          let total = ref 0. in
          Array.iteri (fun s w -> total := !total +. (w *. x.(s))) weights;
          if Float.abs (!total -. mass) > 1e-3 *. mass then ok := false
        done;
        !ok
      in
      let sustained =
        Molclock.Clock_analysis.is_sustained ~min_cycles:3 trace inst
      in
      let overlap =
        Molclock.Clock_analysis.worst_adjacent_overlap trace inst
      in
      if not (partitions && sustained && overlap < 0.05) then
        QCheck.Test.fail_reportf
          "seed %d [%s]: partition=%b sustained=%b worst overlap %.4f \
           (rerun with CHASSIS_REPLAY_SEED=%d)"
          seed (chassis_name chassis) partitions sustained overlap seed
      else true)
    chassis_list

let seeded_qcheck ~count name prop =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count ~name
       QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
       prop)

let test_knob_replay () =
  (* replay a printed counterexample deterministically, many times *)
  match Sys.getenv_opt "CHASSIS_REPLAY_SEED" with
  | None -> ()
  | Some s ->
      let seed = int_of_string s in
      for _ = 1 to 10 do
        ignore (knob_partition_structural seed : bool);
        ignore (knob_partition_numeric seed : bool)
      done

(* ------------------------------- phase naming flows through the chassis *)

(* Regression for the latent-assumption hunt: consumers must learn phase
   species from the instance, and the exact tier must recognize both
   chassis' rings — nothing outside lib/molclock may assume "P0"/"R"
   naming or a phase count. *)
let test_instance_is_source_of_truth () =
  for_each_chassis (fun name ch ->
      let net = Crn.Network.create () in
      let inst =
        Molclock.Clock_chassis.build ch
          (Crn.Builder.scoped (Crn.Builder.on net) "clk")
      in
      Alcotest.(check int)
        (Printf.sprintf "default phase count honoured [%s]" name)
        ch.Molclock.Clock_chassis.default_phases
        (Molclock.Clock_chassis.n_phases inst);
      (* every advertised phase name resolves to the advertised species *)
      List.iteri
        (fun k pname ->
          Alcotest.(check (option int))
            (Printf.sprintf "phase %d name binds [%s]" k name)
            (Some (Molclock.Clock_chassis.phase inst k))
            (Crn.Network.find_species net pname))
        (Molclock.Clock_chassis.phase_names inst);
      (* the exact tier detects the ring from the network alone *)
      let view = Crn.Exact_view.of_network net in
      match Exact.Invariant.find_clocks view with
      | [ c ] ->
          Alcotest.(check (list string))
            (Printf.sprintf "exact tier sees the same ring [%s]" name)
            (Molclock.Clock_chassis.phase_names inst)
            (List.map
               (fun s -> view.Exact.Net.species.(s))
               (Array.to_list c.Exact.Invariant.phases))
      | cs ->
          Alcotest.failf "[%s] exact tier found %d clocks" name
            (List.length cs))

let test_design_phases_from_chassis () =
  for_each_chassis (fun name ch ->
      on_chassis ch (fun _net d ->
          let inst = d.Core.Sync_design.clock in
          Alcotest.(check int)
            (Printf.sprintf "release is phase 0 [%s]" name)
            (Molclock.Clock_chassis.phase inst 0)
            (Core.Sync_design.release_phase d);
          Alcotest.(check int)
            (Printf.sprintf "capture is phase 2 [%s]" name)
            (Molclock.Clock_chassis.phase inst 2)
            (Core.Sync_design.capture_phase d);
          Alcotest.(check bool)
            (Printf.sprintf "inject before sample [%s]" name)
            true
            (Molclock.Clock_chassis.inject_fraction inst
            < Molclock.Clock_chassis.sample_fraction inst)))

(* chassis registry sanity: lookup, phase validation, obligations *)
let test_registry () =
  Alcotest.(check (list string))
    "registered chassis" [ "absence"; "relaxation" ]
    (Molclock.Clock_chassis.names ());
  Alcotest.(check bool) "find absence" true
    (Molclock.Clock_chassis.find "absence" <> None);
  Alcotest.(check bool) "find unknown" true
    (Molclock.Clock_chassis.find "nonesuch" = None);
  (match Molclock.Clock_chassis.find_exn "nonesuch" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find_exn should reject unknown chassis");
  let rx = Molclock.Clock_chassis.find_exn "relaxation" in
  Alcotest.(check bool) "relaxation rejects odd phase counts" true
    (not (rx.Molclock.Clock_chassis.valid_phases 5));
  (match rx.Molclock.Clock_chassis.exact_obligation with
  | Molclock.Clock_chassis.Ring_conservation_with_core_waiver _ -> ()
  | _ -> Alcotest.fail "relaxation must carry a core waiver");
  let ab = Molclock.Clock_chassis.find_exn "absence" in
  match ab.Molclock.Clock_chassis.exact_obligation with
  | Molclock.Clock_chassis.Full_conservation -> ()
  | _ -> Alcotest.fail "absence must demand full conservation"

let suite =
  [
    ("registry", `Quick, test_registry);
    ("instance is source of truth", `Quick, test_instance_is_source_of_truth);
    ("design phases from chassis", `Quick, test_design_phases_from_chassis);
    ("counter2 conformance", `Slow, test_counter_conformance);
    ("counter3 conformance", `Slow, test_counter3_conformance);
    ("gated counter conformance", `Slow, test_gated_counter_conformance);
    ("lfsr conformance", `Slow, test_lfsr_conformance);
    ("filter conformance", `Slow, test_filter_conformance);
    ("iterative conformance", `Slow, test_iterative_conformance);
    ("module sequencing conformance", `Slow, test_module_seq_conformance);
    ("ssa counter conformance", `Slow, test_ssa_counter_conformance);
    ("ssa module sequencing conformance", `Slow,
     test_ssa_module_seq_conformance);
    ("hybrid counter conformance", `Slow, test_hybrid_counter_conformance);
    ("relaxation checkpoint/resume bitwise", `Quick,
     test_relaxation_resume_bitwise);
    ("knob replay", `Quick, test_knob_replay);
  ]
  @ [
      seeded_qcheck ~count:25
        "chassis knobs: phase mass partition proved (the printed int is \
         the seed)"
        knob_partition_structural;
      seeded_qcheck ~count:3
        "chassis knobs: partition and non-overlap measured (the printed \
         int is the seed)"
        knob_partition_numeric;
    ]
