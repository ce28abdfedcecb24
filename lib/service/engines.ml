(* The engine registry: the four simulation engines, each wired in once.

   An entry owns everything the rest of the service needs to know about
   its engine — the request knobs it reads and their ranges, the one
   call into the engine, the result fields and work counters it
   reports, its ensemble worker, and its checkpoint tag, params and
   codec — so the daemon's handlers, the in-process path and the
   checkpoint format iterate this table instead of enumerating engines
   by name. *)

type model = {
  net : Crn.Network.t;
  env : Crn.Rates.env;
  sys : Ode.Deriv.t;
  ssa : Ssa.Gillespie.model;
}

let compile env net =
  {
    net;
    env;
    sys = Ode.Deriv.compile env net;
    ssa = Ssa.Gillespie.compile_model env net;
  }

type state =
  | Ode_ck of Ode.Driver.checkpoint
  | Ssa_ck of Ssa.Gillespie.checkpoint
  | Tau_ck of Ssa.Tau_leap.checkpoint
  | Hybrid_ck of Hybrid.Engine.checkpoint

type outcome = {
  final : Numeric.Vec.t;
  fields : (string * Json.t) list;
  counters : (string * Json.t) list;
}

type knobs = {
  seed : int64;
  params : (string * float) list;
  run :
    ?resume:state ->
    ?on_cancel:(state -> unit) ->
    ?on_sample:(float -> Numeric.Vec.t -> unit) ->
    cancel:Numeric.Cancel.t ->
    t1:float ->
    model ->
    outcome;
}

type use = Run | Trace | Ensemble

type entry = {
  name : string;
  tag : int;
  knobs : use -> Json.t -> knobs;
  restore : seed:int64 -> (string -> float option) -> state -> knobs;
  worker :
    (knobs -> cancel:Numeric.Cancel.t -> t1:float -> model -> unit ->
     int64 -> Numeric.Vec.t)
    option;
  write : Binio.writer -> state -> unit;
  read : Binio.reader -> state;
}

(* ---------- knobs ---------- *)

let bad fmt =
  Printf.ksprintf (fun msg -> Error.reject (Error.Bad_request msg)) fmt

(* A numeric knob: its wire name, whether it is an integer, and the
   engine's own bound on it ([None]: any value the engine takes). *)
type spec = {
  key : string;
  int : bool;
  bound : (string * (float -> bool)) option;
}

let positive key = { key; int = false; bound = Some ("> 0", fun v -> v > 0.) }

let at_least_one key =
  { key; int = true; bound = Some (">= 1", fun v -> v >= 1.) }

let unit_open key =
  { key; int = false; bound = Some ("in (0, 1)", fun v -> v > 0. && v < 1.) }
let any_float key = { key; int = false; bound = None }
let any_int key = { key; int = true; bound = None }

(* The knobs a request sets, range-checked, as (name, value) pairs in
   spec order — exactly what a checkpoint stores to rebuild them. *)
let read_specs specs lookup =
  List.filter_map
    (fun s ->
      Option.map
        (fun v ->
          match s.bound with
          | Some (what, ok) when not (ok v) -> bad "%S must be %s" s.key what
          | _ -> (s.key, v))
        (lookup s))
    specs

let of_request req s =
  Option.map
    (fun j ->
      let v =
        if s.int then Option.map float_of_int (Json.to_int j)
        else Json.to_float j
      in
      match v with
      | Some v -> v
      | None ->
          bad "%S must be %s" s.key
            (if s.int then "an integer" else "a number"))
    (Json.member s.key req)

let seed_of req =
  match Json.member "seed" req with
  | None -> 1L
  | Some j -> (
      match Json.to_int j with
      | Some s -> Int64.of_int s
      | None -> bad "\"seed\" must be an integer")

let lookup params key = List.assoc_opt key params
let lookup_int params key = Option.map int_of_float (lookup params key)

let mismatch name = invalid_arg (name ^ ": checkpoint of another engine")

(* a stochastic engine owns its sampling cadence: its finished trace is
   what a sample consumer sees *)
let replay on_sample tr =
  Option.iter
    (fun f ->
      let times = Ode.Trace.times tr in
      Array.iteri (fun i t -> f t (Ode.Trace.state_at_index tr i)) times)
    on_sample

let int_field k v = (k, Json.int v)

(* ---------- checkpoint codecs ---------- *)

let w_trace b tr =
  Binio.w_array Binio.w_string b (Ode.Trace.names tr);
  let times = Ode.Trace.times tr in
  Binio.w_int b (Array.length times);
  Array.iteri
    (fun i t ->
      Binio.w_f64 b t;
      Binio.w_f64_array b (Ode.Trace.state_at_index tr i))
    times

let r_trace r =
  let names = Binio.r_array Binio.r_string r in
  let len = Binio.r_int r in
  if len < 0 then raise (Binio.Corrupt "negative trace length");
  let tr =
    try Ode.Trace.create ~names
    with Invalid_argument msg -> raise (Binio.Corrupt msg)
  in
  for _ = 1 to len do
    let t = Binio.r_f64 r in
    let x = Binio.r_f64_array r in
    if Array.length x <> Array.length names then
      raise (Binio.Corrupt "trace state width mismatch");
    Ode.Trace.record tr t x
  done;
  tr

let w_engine_scratch b (st : Ssa.Prop_engine.state) =
  Binio.w_f64_array b st.Ssa.Prop_engine.s_props;
  Binio.w_f64_array b st.Ssa.Prop_engine.s_group_sum;
  Binio.w_f64_array b st.Ssa.Prop_engine.s_acc;
  Binio.w_int b st.Ssa.Prop_engine.s_since_refresh

let r_engine_scratch r : Ssa.Prop_engine.state =
  let s_props = Binio.r_f64_array r in
  let s_group_sum = Binio.r_f64_array r in
  let s_acc = Binio.r_f64_array r in
  let s_since_refresh = Binio.r_int r in
  { Ssa.Prop_engine.s_props; s_group_sum; s_acc; s_since_refresh }

let w_ode_ck b (ck : Ode.Driver.checkpoint) =
  (match ck.Ode.Driver.ck_method with
  | Ode.Driver.Ck_dopri5 c ->
      Binio.w_u8 b 0;
      Binio.w_f64 b c.Ode.Dopri5.ck_t;
      Binio.w_f64_array b c.Ode.Dopri5.ck_x;
      Binio.w_f64 b c.Ode.Dopri5.ck_h;
      Binio.w_f64_array b c.Ode.Dopri5.ck_k1;
      Binio.w_int b c.Ode.Dopri5.ck_steps;
      Binio.w_int b c.Ode.Dopri5.ck_rejected;
      Binio.w_int b c.Ode.Dopri5.ck_evals
  | Ode.Driver.Ck_rosenbrock c ->
      Binio.w_u8 b 1;
      Binio.w_f64 b c.Ode.Rosenbrock.ck_t;
      Binio.w_f64_array b c.Ode.Rosenbrock.ck_x;
      Binio.w_f64 b c.Ode.Rosenbrock.ck_h;
      Binio.w_int b c.Ode.Rosenbrock.ck_steps;
      Binio.w_int b c.Ode.Rosenbrock.ck_rejected;
      Binio.w_int b c.Ode.Rosenbrock.ck_factorizations;
      Binio.w_int b c.Ode.Rosenbrock.ck_jac_evals;
      Binio.w_int b c.Ode.Rosenbrock.ck_jac_reused;
      Binio.w_bool b c.Ode.Rosenbrock.ck_jac_fresh
  | Ode.Driver.Ck_fixed c ->
      Binio.w_u8 b 2;
      Binio.w_f64 b c.Ode.Fixed.ck_t;
      Binio.w_f64_array b c.Ode.Fixed.ck_x);
  Binio.w_int b ck.Ode.Driver.ck_countdown;
  w_trace b ck.Ode.Driver.ck_trace

let r_ode_ck r : Ode.Driver.checkpoint =
  let ck_method =
    match Binio.r_u8 r with
    | 0 ->
        let ck_t = Binio.r_f64 r in
        let ck_x = Binio.r_f64_array r in
        let ck_h = Binio.r_f64 r in
        let ck_k1 = Binio.r_f64_array r in
        let ck_steps = Binio.r_int r in
        let ck_rejected = Binio.r_int r in
        let ck_evals = Binio.r_int r in
        Ode.Driver.Ck_dopri5
          {
            Ode.Dopri5.ck_t;
            ck_x;
            ck_h;
            ck_k1;
            ck_steps;
            ck_rejected;
            ck_evals;
          }
    | 1 ->
        let ck_t = Binio.r_f64 r in
        let ck_x = Binio.r_f64_array r in
        let ck_h = Binio.r_f64 r in
        let ck_steps = Binio.r_int r in
        let ck_rejected = Binio.r_int r in
        let ck_factorizations = Binio.r_int r in
        let ck_jac_evals = Binio.r_int r in
        let ck_jac_reused = Binio.r_int r in
        let ck_jac_fresh = Binio.r_bool r in
        Ode.Driver.Ck_rosenbrock
          {
            Ode.Rosenbrock.ck_t;
            ck_x;
            ck_h;
            ck_steps;
            ck_rejected;
            ck_factorizations;
            ck_jac_evals;
            ck_jac_reused;
            ck_jac_fresh;
          }
    | 2 ->
        let ck_t = Binio.r_f64 r in
        let ck_x = Binio.r_f64_array r in
        Ode.Driver.Ck_fixed { Ode.Fixed.ck_t; ck_x }
    | _ -> raise (Binio.Corrupt "bad integrator checkpoint tag")
  in
  let ck_countdown = Binio.r_int r in
  let ck_trace = r_trace r in
  { Ode.Driver.ck_method; ck_countdown; ck_trace }

let w_ssa_ck b (ck : Ssa.Gillespie.checkpoint) =
  Binio.w_int_array b ck.Ssa.Gillespie.ck_counts;
  Binio.w_f64 b ck.Ssa.Gillespie.ck_t;
  Binio.w_f64 b ck.Ssa.Gillespie.ck_next_sample;
  Binio.w_int b ck.Ssa.Gillespie.ck_n_events;
  Binio.w_i64 b ck.Ssa.Gillespie.ck_rng;
  w_engine_scratch b ck.Ssa.Gillespie.ck_engine;
  w_trace b ck.Ssa.Gillespie.ck_trace

let r_ssa_ck r : Ssa.Gillespie.checkpoint =
  let ck_counts = Binio.r_int_array r in
  let ck_t = Binio.r_f64 r in
  let ck_next_sample = Binio.r_f64 r in
  let ck_n_events = Binio.r_int r in
  let ck_rng = Binio.r_i64 r in
  let ck_engine = r_engine_scratch r in
  let ck_trace = r_trace r in
  {
    Ssa.Gillespie.ck_counts;
    ck_t;
    ck_next_sample;
    ck_n_events;
    ck_rng;
    ck_engine;
    ck_trace;
  }

let w_tau_ck b (ck : Ssa.Tau_leap.checkpoint) =
  Binio.w_int_array b ck.Ssa.Tau_leap.ck_counts;
  Binio.w_f64 b ck.Ssa.Tau_leap.ck_t;
  Binio.w_f64 b ck.Ssa.Tau_leap.ck_next_sample;
  Binio.w_int b ck.Ssa.Tau_leap.ck_n_leaps;
  Binio.w_int b ck.Ssa.Tau_leap.ck_n_exact;
  Binio.w_int b ck.Ssa.Tau_leap.ck_steps;
  Binio.w_i64 b ck.Ssa.Tau_leap.ck_rng;
  w_trace b ck.Ssa.Tau_leap.ck_trace

let r_tau_ck r : Ssa.Tau_leap.checkpoint =
  let ck_counts = Binio.r_int_array r in
  let ck_t = Binio.r_f64 r in
  let ck_next_sample = Binio.r_f64 r in
  let ck_n_leaps = Binio.r_int r in
  let ck_n_exact = Binio.r_int r in
  let ck_steps = Binio.r_int r in
  let ck_rng = Binio.r_i64 r in
  let ck_trace = r_trace r in
  {
    Ssa.Tau_leap.ck_counts;
    ck_t;
    ck_next_sample;
    ck_n_leaps;
    ck_n_exact;
    ck_steps;
    ck_rng;
    ck_trace;
  }

let w_hybrid_ck b (ck : Hybrid.Engine.checkpoint) =
  Binio.w_bool b ck.Hybrid.Engine.ck_mixed;
  Binio.w_int_array b ck.Hybrid.Engine.ck_counts;
  Binio.w_f64_array b ck.Hybrid.Engine.ck_x;
  Binio.w_f64 b ck.Hybrid.Engine.ck_t;
  Binio.w_f64 b ck.Hybrid.Engine.ck_next_sample;
  Binio.w_f64 b ck.Hybrid.Engine.ck_g_int;
  Binio.w_f64 b ck.Hybrid.Engine.ck_target;
  Binio.w_i64 b ck.Hybrid.Engine.ck_rng;
  w_engine_scratch b ck.Hybrid.Engine.ck_engine;
  Binio.w_bool_array b ck.Hybrid.Engine.ck_fast;
  Binio.w_bool_array b ck.Hybrid.Engine.ck_continuous;
  Binio.w_int b ck.Hybrid.Engine.ck_n_fast;
  Binio.w_int_array b ck.Hybrid.Engine.ck_slow;
  Binio.w_int b ck.Hybrid.Engine.ck_n_ssa;
  Binio.w_int b ck.Hybrid.Engine.ck_n_tau_leaps;
  Binio.w_int b ck.Hybrid.Engine.ck_n_tau_events;
  Binio.w_int b ck.Hybrid.Engine.ck_n_ode;
  Binio.w_int b ck.Hybrid.Engine.ck_n_repart;
  Binio.w_int b ck.Hybrid.Engine.ck_n_switch;
  Binio.w_int b ck.Hybrid.Engine.ck_n_rejected;
  Binio.w_int b ck.Hybrid.Engine.ck_peak_fast;
  Binio.w_int b ck.Hybrid.Engine.ck_loop_count;
  Binio.w_bool b ck.Hybrid.Engine.ck_first;
  w_trace b ck.Hybrid.Engine.ck_trace

let r_hybrid_ck r : Hybrid.Engine.checkpoint =
  let ck_mixed = Binio.r_bool r in
  let ck_counts = Binio.r_int_array r in
  let ck_x = Binio.r_f64_array r in
  let ck_t = Binio.r_f64 r in
  let ck_next_sample = Binio.r_f64 r in
  let ck_g_int = Binio.r_f64 r in
  let ck_target = Binio.r_f64 r in
  let ck_rng = Binio.r_i64 r in
  let ck_engine = r_engine_scratch r in
  let ck_fast = Binio.r_bool_array r in
  let ck_continuous = Binio.r_bool_array r in
  let ck_n_fast = Binio.r_int r in
  let ck_slow = Binio.r_int_array r in
  let ck_n_ssa = Binio.r_int r in
  let ck_n_tau_leaps = Binio.r_int r in
  let ck_n_tau_events = Binio.r_int r in
  let ck_n_ode = Binio.r_int r in
  let ck_n_repart = Binio.r_int r in
  let ck_n_switch = Binio.r_int r in
  let ck_n_rejected = Binio.r_int r in
  let ck_peak_fast = Binio.r_int r in
  let ck_loop_count = Binio.r_int r in
  let ck_first = Binio.r_bool r in
  let ck_trace = r_trace r in
  {
    Hybrid.Engine.ck_mixed;
    ck_counts;
    ck_x;
    ck_t;
    ck_next_sample;
    ck_g_int;
    ck_target;
    ck_rng;
    ck_engine;
    ck_fast;
    ck_continuous;
    ck_n_fast;
    ck_slow;
    ck_n_ssa;
    ck_n_tau_leaps;
    ck_n_tau_events;
    ck_n_ode;
    ck_n_repart;
    ck_n_switch;
    ck_n_rejected;
    ck_peak_fast;
    ck_loop_count;
    ck_first;
    ck_trace;
  }

(* ---------- ode ---------- *)

let method_of = function
  | None -> Ode.Driver.Rosenbrock
  | Some (Json.Str "dopri5") -> Ode.Driver.Dopri5
  | Some (Json.Str "rosenbrock") -> Ode.Driver.Rosenbrock
  | Some (Json.Str s) -> (
      match float_of_string_opt s with
      | Some h when h > 0. -> Ode.Driver.Rk4 h
      | _ -> bad "\"method\" must be dopri5, rosenbrock, or an rk4 step size")
  | Some (Json.Num h) when h > 0. -> Ode.Driver.Rk4 h
  | Some _ -> bad "bad \"method\""

let ode_specs = [ any_float "rtol"; any_float "atol" ]

(* only a trace is thinned *)
let trace_specs = ode_specs @ [ at_least_one "thin" ]

(* The integrator is the one knob a checkpoint does not store by name:
   its method state names it, and an rk4 step size rides along as "h". *)
let ode_knobs method_ params =
  let params =
    match method_ with
    | Ode.Driver.Rk4 h -> params @ [ ("h", h) ]
    | _ -> params
  in
  let run ?resume ?on_cancel ?on_sample ~cancel ~t1 m =
    let resume =
      Option.map (function Ode_ck ck -> ck | _ -> mismatch "ode") resume
    in
    (* a checkpoint must carry every sample consumed so far, so a
       resumed trace is whole; a final-state run records nothing *)
    let trace =
      match (on_sample, on_cancel) with
      | Some _, Some _ ->
          Some (Ode.Trace.create ~names:(Crn.Network.species_names m.net))
      | _ -> None
    in
    let final, work =
      Ode.Driver.run ~method_ ?rtol:(lookup params "rtol")
        ?atol:(lookup params "atol") ~sys:m.sys ~cancel
        ?thin:(lookup_int params "thin") ?resume
        ?on_cancel:(Option.map (fun f ck -> f (Ode_ck ck)) on_cancel)
        ?trace ?on_sample ~t1 m.net
    in
    let counters =
      match work with
      | Ode.Driver.Dopri5_work s ->
          [
            int_field "steps" s.Ode.Dopri5.steps;
            int_field "evals" s.Ode.Dopri5.evals;
          ]
      | Ode.Driver.Rosenbrock_work s ->
          [
            int_field "steps" s.Ode.Rosenbrock.steps;
            int_field "factorizations" s.Ode.Rosenbrock.factorizations;
          ]
      | Ode.Driver.Fixed_work { steps } -> [ int_field "steps" steps ]
    in
    { final; fields = []; counters }
  in
  { seed = 0L; params; run }

let ode =
  {
    name = "ode";
    tag = 0;
    knobs =
      (fun use req ->
        ode_knobs
          (method_of (Json.member "method" req))
          (read_specs
             (if use = Trace then trace_specs else ode_specs)
             (of_request req)));
    restore =
      (fun ~seed:_ param st ->
        let params = read_specs trace_specs (fun s -> param s.key) in
        let method_ =
          match st with
          | Ode_ck { Ode.Driver.ck_method = Ode.Driver.Ck_dopri5 _; _ } ->
              Ode.Driver.Dopri5
          | Ode_ck { Ode.Driver.ck_method = Ode.Driver.Ck_rosenbrock _; _ } ->
              Ode.Driver.Rosenbrock
          | Ode_ck { Ode.Driver.ck_method = Ode.Driver.Ck_fixed _; _ } -> (
              match param "h" with
              | Some h when h > 0. -> Ode.Driver.Rk4 h
              | _ -> bad "rk4 checkpoint is missing its step size")
          | _ -> mismatch "ode"
        in
        ode_knobs method_ params);
    worker = None;
    write =
      (fun b -> function Ode_ck ck -> w_ode_ck b ck | _ -> mismatch "ode");
    read = (fun r -> Ode_ck (r_ode_ck r));
  }

(* ---------- stochastic engines ---------- *)

(* An engine sampled by its own clock, seeded, with an ensemble worker.
   [call] is the one call into the engine: [?arena] set for an ensemble
   trajectory, [?resume]/[?on_cancel] for a checkpointable run. The
   engine and trace ops read every knob in [specs]; the ensemble reads
   only the [ensemble] ones. *)
let stochastic ~name ~tag ~specs ~ensemble ~call ~arena ~report ~wrap ~unwrap
    ~write ~read =
  let ensemble_specs = List.filter (fun s -> List.mem s.key ensemble) specs in
  let make seed params =
    let run ?resume ?on_cancel ?on_sample ~cancel ~t1 m =
      let trace, final, fields, counters =
        report
          (call params ?arena:None
             ?resume:(Option.map unwrap resume)
             ?on_cancel:(Option.map (fun f ck -> f (wrap ck)) on_cancel)
             ~seed ~cancel ~t1 m)
      in
      replay on_sample trace;
      { final; fields; counters }
    in
    { seed; params; run }
  in
  let worker k ~cancel ~t1 m () =
    let arena = arena m in
    fun seed ->
      let _, final, _, _ =
        report
          (call k.params ?arena:(Some arena) ?resume:None ?on_cancel:None ~seed
             ~cancel ~t1 m)
      in
      final
  in
  {
    name;
    tag;
    knobs =
      (fun use req ->
        make (seed_of req)
          (read_specs
             (if use = Ensemble then ensemble_specs else specs)
             (of_request req)));
    restore =
      (fun ~seed param _ ->
        make seed (read_specs specs (fun s -> param s.key)));
    worker = Some worker;
    write = (fun b st -> write b (unwrap st));
    read = (fun r -> wrap (read r));
  }

let ssa =
  stochastic ~name:"ssa" ~tag:1
    ~specs:[ positive "sample_dt"; any_int "max_events" ]
    ~ensemble:[]
    ~call:(fun p ?arena ?resume ?on_cancel ~seed ~cancel ~t1 m ->
      Ssa.Gillespie.run ~env:m.env ~seed ?sample_dt:(lookup p "sample_dt")
        ?max_events:(lookup_int p "max_events") ~model:m.ssa ?arena ~cancel
        ?resume ?on_cancel ~t1 m.net)
    ~arena:(fun m -> Ssa.Gillespie.make_arena m.ssa)
    ~report:(fun (r : Ssa.Gillespie.result) ->
      ( r.trace,
        r.final,
        [ int_field "n_events" r.n_events ],
        [ int_field "events" r.n_events ] ))
    ~wrap:(fun ck -> Ssa_ck ck)
    ~unwrap:(function Ssa_ck ck -> ck | _ -> mismatch "ssa")
    ~write:w_ssa_ck ~read:r_ssa_ck

(* tau-leaping keeps no compiled model in the cache entry: a single run
   compiles its own, an ensemble worker compiles once per domain *)
let tau =
  stochastic ~name:"tau" ~tag:2
    ~specs:[ positive "sample_dt"; any_float "epsilon"; any_int "max_steps" ]
    ~ensemble:[]
    ~call:(fun p ?arena ?resume ?on_cancel ~seed ~cancel ~t1 m ->
      Ssa.Tau_leap.run ~env:m.env ~seed ?sample_dt:(lookup p "sample_dt")
        ?epsilon:(lookup p "epsilon") ?max_steps:(lookup_int p "max_steps")
        ?arena ~cancel ?resume ?on_cancel ~t1 m.net)
    ~arena:(fun m ->
      Ssa.Tau_leap.make_arena (Ssa.Tau_leap.compile_model m.env m.net))
    ~report:(fun (r : Ssa.Tau_leap.result) ->
      ( r.trace,
        r.final,
        [ int_field "n_leaps" r.n_leaps; int_field "n_exact" r.n_exact ],
        [ int_field "leaps" r.n_leaps; int_field "events" r.n_exact ] ))
    ~wrap:(fun ck -> Tau_ck ck)
    ~unwrap:(function Tau_ck ck -> ck | _ -> mismatch "tau")
    ~write:w_tau_ck ~read:r_tau_ck

(* the hybrid engine reuses both halves of the compiled model — the SSA
   compilation for the slow partition, the CSR ODE system for the fast
   one — so a warm-cache hybrid request compiles nothing *)
let hybrid =
  let model_of m = Hybrid.Engine.model_of ~ssa:m.ssa ~sys:m.sys in
  stochastic ~name:"hybrid" ~tag:3
    ~specs:
      [
        positive "sample_dt";
        positive "pop_threshold";
        positive "prop_threshold";
        at_least_one "repartition_every";
        unit_open "epsilon";
        any_int "max_events";
      ]
    ~ensemble:[ "pop_threshold"; "prop_threshold"; "repartition_every" ]
    ~call:(fun p ?arena ?resume ?on_cancel ~seed ~cancel ~t1 m ->
      Hybrid.Engine.run ~env:m.env ~seed ?sample_dt:(lookup p "sample_dt")
        ?pop_threshold:(lookup p "pop_threshold")
        ?prop_threshold:(lookup p "prop_threshold")
        ?repartition_every:(lookup_int p "repartition_every")
        ?epsilon:(lookup p "epsilon") ?max_events:(lookup_int p "max_events")
        ?model:(if Option.is_some arena then None else Some (model_of m))
        ?arena ~cancel ?resume ?on_cancel ~t1 m.net)
    ~arena:(fun m -> Hybrid.Engine.make_arena (model_of m))
    ~report:(fun (r : Hybrid.Engine.result) ->
      let s = r.stats in
      ( r.trace,
        r.final,
        [
          int_field "n_events" r.n_events;
          ( "stats",
            Json.Obj
              [
                int_field "ssa_events" s.n_ssa_events;
                int_field "tau_leaps" s.n_tau_leaps;
                int_field "tau_events" s.n_tau_events;
                int_field "ode_steps" s.n_ode_steps;
                int_field "repartitions" s.n_repartitions;
                int_field "mode_switches" s.n_mode_switches;
                int_field "rejected" s.n_rejected;
                int_field "final_n_fast" s.final_n_fast;
                int_field "final_n_slow" s.final_n_slow;
                int_field "peak_n_fast" s.peak_n_fast;
              ] );
        ],
        [
          int_field "events" r.n_events;
          int_field "tau_leaps" s.n_tau_leaps;
          int_field "ode_steps" s.n_ode_steps;
          int_field "repartitions" s.n_repartitions;
        ] ))
    ~wrap:(fun ck -> Hybrid_ck ck)
    ~unwrap:(function Hybrid_ck ck -> ck | _ -> mismatch "hybrid")
    ~write:w_hybrid_ck ~read:r_hybrid_ck

(* ---------- the table ---------- *)

let all = [ ode; ssa; tau; hybrid ]
let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all
let of_tag tag = List.find_opt (fun e -> e.tag = tag) all

let of_state = function
  | Ode_ck _ -> ode
  | Ssa_ck _ -> ssa
  | Tau_ck _ -> tau
  | Hybrid_ck _ -> hybrid
