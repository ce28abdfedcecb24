(* Binary codecs for the two persistent artifacts of the service layer:

   - model snapshots: a compiled-model cache entry — network, rate
     environment, CSR ODE system and SSA model — serialized so a
     restarted daemon skips synthesis and both compilers for every warm
     entry;
   - simulation checkpoints: a network plus run parameters plus one
     engine's loop-top mid-run state, self-contained so [crnsim
     --resume] (or a client retrying a deadline-cancelled request) can
     continue the trajectory bitwise. The engine's tag and state codec
     are its {!Engines} entry's.

   Every decoder converts [Invalid_argument] from the rebuild
   constructors (network interning, [Deriv.of_raw] shape checks, ...)
   into [Binio.Corrupt]: a payload that passed the CRC but fails
   semantic validation is corrupt for the caller's purposes, and callers
   rely on a single exception to implement skip-and-count. *)

let model_kind = "mrsc-model"

(* 2: the key is the network's binding digest, and the fingerprint
   field is gone. Version-1 files carry the old key and the old layout;
   the bump has the loader count them as version skew, not corruption. *)
let model_version = 2
let sim_kind = "mrsc-sim-checkpoint"
let sim_version = 1

exception Version_mismatch of { kind : string; found : int; expected : int }

let guarded f x =
  try f x with Invalid_argument msg -> raise (Binio.Corrupt msg)

(* ---------- rates and environments ---------- *)

let w_rate b (r : Crn.Rates.t) =
  (match r.Crn.Rates.category with
  | Crn.Rates.Fast -> Binio.w_u8 b 0
  | Crn.Rates.Slow -> Binio.w_u8 b 1);
  Binio.w_f64 b r.Crn.Rates.scale

let r_rate r : Crn.Rates.t =
  let category =
    match Binio.r_u8 r with
    | 0 -> Crn.Rates.Fast
    | 1 -> Crn.Rates.Slow
    | _ -> raise (Binio.Corrupt "bad rate category tag")
  in
  let scale = Binio.r_f64 r in
  { Crn.Rates.category; scale }

let w_env b (env : Crn.Rates.env) =
  Binio.w_f64 b env.Crn.Rates.k_fast;
  Binio.w_f64 b env.Crn.Rates.k_slow

let r_env r : Crn.Rates.env =
  let k_fast = Binio.r_f64 r in
  let k_slow = Binio.r_f64 r in
  { Crn.Rates.k_fast; k_slow }

(* ---------- networks ---------- *)

let w_side b (side : (int * int) list) =
  Binio.w_int b (List.length side);
  List.iter
    (fun (sp, co) ->
      Binio.w_int b sp;
      Binio.w_int b co)
    side

let r_side r =
  let n = Binio.r_int r in
  if n < 0 then raise (Binio.Corrupt "negative side length");
  List.init n (fun _ ->
      let sp = Binio.r_int r in
      let co = Binio.r_int r in
      (sp, co))

let w_reaction b (rx : Crn.Reaction.t) =
  w_side b rx.Crn.Reaction.reactants;
  w_side b rx.Crn.Reaction.products;
  w_rate b rx.Crn.Reaction.rate;
  Binio.w_option Binio.w_string b rx.Crn.Reaction.label

let r_reaction r =
  let reactants = r_side r in
  let products = r_side r in
  let rate = r_rate r in
  let label = Binio.r_option Binio.r_string r in
  guarded (fun () -> Crn.Reaction.make ?label ~reactants ~products rate) ()

let w_network b net =
  Binio.w_array Binio.w_string b (Crn.Network.species_names net);
  Binio.w_f64_array b (Crn.Network.initial_state net);
  Binio.w_array w_reaction b (Crn.Network.reactions net)

let r_network r =
  let names = Binio.r_array Binio.r_string r in
  let inits = Binio.r_f64_array r in
  if Array.length inits <> Array.length names then
    raise (Binio.Corrupt "network init/species length mismatch");
  let reactions = Binio.r_array r_reaction r in
  guarded
    (fun () ->
      let net = Crn.Network.create () in
      Array.iter (fun nm -> ignore (Crn.Network.species net nm)) names;
      if Crn.Network.n_species net <> Array.length names then
        raise (Binio.Corrupt "duplicate species names in snapshot");
      Array.iteri (fun i v -> Crn.Network.set_init net i v) inits;
      Array.iter (Crn.Network.add_reaction net) reactions;
      net)
    ()

(* ---------- compiled ODE system ---------- *)

let w_deriv b sys =
  let raw = Ode.Deriv.to_raw sys in
  Binio.w_int b raw.Ode.Deriv.raw_n;
  Binio.w_int b raw.Ode.Deriv.raw_nr;
  Binio.w_f64_array b raw.Ode.Deriv.raw_k;
  Binio.w_array w_rate b raw.Ode.Deriv.raw_rates;
  Binio.w_int_array b raw.Ode.Deriv.raw_r_off;
  Binio.w_int_array b raw.Ode.Deriv.raw_r_sp;
  Binio.w_int_array b raw.Ode.Deriv.raw_r_co;
  Binio.w_int_array b raw.Ode.Deriv.raw_s_off;
  Binio.w_int_array b raw.Ode.Deriv.raw_s_sp;
  Binio.w_f64_array b raw.Ode.Deriv.raw_s_co;
  Binio.w_int_array b raw.Ode.Deriv.raw_jac_rows;
  Binio.w_int_array b raw.Ode.Deriv.raw_jac_cols

let r_deriv r =
  let raw_n = Binio.r_int r in
  let raw_nr = Binio.r_int r in
  let raw_k = Binio.r_f64_array r in
  let raw_rates = Binio.r_array r_rate r in
  let raw_r_off = Binio.r_int_array r in
  let raw_r_sp = Binio.r_int_array r in
  let raw_r_co = Binio.r_int_array r in
  let raw_s_off = Binio.r_int_array r in
  let raw_s_sp = Binio.r_int_array r in
  let raw_s_co = Binio.r_f64_array r in
  let raw_jac_rows = Binio.r_int_array r in
  let raw_jac_cols = Binio.r_int_array r in
  guarded Ode.Deriv.of_raw
    {
      Ode.Deriv.raw_n;
      raw_nr;
      raw_k;
      raw_rates;
      raw_r_off;
      raw_r_sp;
      raw_r_co;
      raw_s_off;
      raw_s_sp;
      raw_s_co;
      raw_jac_rows;
      raw_jac_cols;
    }

(* ---------- compiled SSA model ---------- *)

let w_compiled_reaction b (rx : Ssa.Compiled.reaction) =
  Binio.w_f64 b rx.Ssa.Compiled.k;
  Binio.w_int_array b rx.Ssa.Compiled.reactant_species;
  Binio.w_int_array b rx.Ssa.Compiled.reactant_coeff;
  Binio.w_int_array b rx.Ssa.Compiled.delta_species;
  Binio.w_int_array b rx.Ssa.Compiled.delta

let r_compiled_reaction r : Ssa.Compiled.reaction =
  let k = Binio.r_f64 r in
  let reactant_species = Binio.r_int_array r in
  let reactant_coeff = Binio.r_int_array r in
  let delta_species = Binio.r_int_array r in
  let delta = Binio.r_int_array r in
  if
    Array.length reactant_species <> Array.length reactant_coeff
    || Array.length delta_species <> Array.length delta
  then raise (Binio.Corrupt "compiled reaction arrays disagree");
  { Ssa.Compiled.k; reactant_species; reactant_coeff; delta_species; delta }

let w_ssa_model b model =
  let reactions, deps = Ssa.Gillespie.model_parts model in
  Binio.w_int b (Ssa.Gillespie.model_n_species model);
  Binio.w_array w_compiled_reaction b reactions;
  Binio.w_array Binio.w_int_array b (Ssa.Dep_graph.to_arrays deps)

let r_ssa_model r =
  let n_species = Binio.r_int r in
  let reactions = Binio.r_array r_compiled_reaction r in
  let deps = Binio.r_array Binio.r_int_array r in
  guarded
    (fun () ->
      Ssa.Gillespie.model_of_parts ~n_species reactions
        (Ssa.Dep_graph.of_arrays deps))
    ()

(* ---------- model snapshots ---------- *)

type model_snapshot = {
  ms_key : string;
  ms_sources : string array;
  ms_compile_ms : float;
  ms_net : Crn.Network.t;
  ms_env : Crn.Rates.env;
  ms_sys : Ode.Deriv.t;
  ms_ssa : Ssa.Gillespie.model;
}

let encode_model ms =
  let b = Binio.writer () in
  Binio.w_string b ms.ms_key;
  Binio.w_array Binio.w_string b ms.ms_sources;
  Binio.w_f64 b ms.ms_compile_ms;
  w_network b ms.ms_net;
  w_env b ms.ms_env;
  w_deriv b ms.ms_sys;
  w_ssa_model b ms.ms_ssa;
  Binio.encode_file ~kind:model_kind ~version:model_version (Binio.contents b)

let check_header ~kind ~version (f : Binio.file) =
  if f.Binio.kind <> kind then
    raise
      (Binio.Corrupt
         (Printf.sprintf "wrong snapshot kind %S (wanted %S)" f.Binio.kind kind));
  if f.Binio.version <> version then
    raise
      (Version_mismatch
         { kind; found = f.Binio.version; expected = version })

let decode_model s =
  let f = Binio.decode_file s in
  check_header ~kind:model_kind ~version:model_version f;
  let r = Binio.reader f.Binio.payload in
  let ms_key = Binio.r_string r in
  let ms_sources = Binio.r_array Binio.r_string r in
  let ms_compile_ms = Binio.r_f64 r in
  let ms_net = r_network r in
  let ms_env = r_env r in
  let ms_sys = r_deriv r in
  let ms_ssa = r_ssa_model r in
  Binio.expect_end r;
  { ms_key; ms_sources; ms_compile_ms; ms_net; ms_env; ms_sys; ms_ssa }

let w_trace = Engines.w_trace
let r_trace = Engines.r_trace

(* ---------- self-contained simulation checkpoints ---------- *)

type engine_state = Engines.state =
  | Ode_ck of Ode.Driver.checkpoint
  | Ssa_ck of Ssa.Gillespie.checkpoint
  | Tau_ck of Ssa.Tau_leap.checkpoint
  | Hybrid_ck of Hybrid.Engine.checkpoint

type sim_checkpoint = {
  sc_net : Crn.Network.t;
  sc_env : Crn.Rates.env;
  sc_t1 : float;
  sc_seed : int64;
  sc_params : (string * float) array;
  sc_state : engine_state;
}

let engine_name st = (Engines.of_state st).Engines.name

let encode_sim sc =
  let b = Binio.writer () in
  w_network b sc.sc_net;
  w_env b sc.sc_env;
  Binio.w_f64 b sc.sc_t1;
  Binio.w_i64 b sc.sc_seed;
  Binio.w_array
    (fun b (k, v) ->
      Binio.w_string b k;
      Binio.w_f64 b v)
    b sc.sc_params;
  (* the engine tag and the state's codec come from the registry *)
  let e = Engines.of_state sc.sc_state in
  Binio.w_u8 b e.Engines.tag;
  e.Engines.write b sc.sc_state;
  Binio.encode_file ~kind:sim_kind ~version:sim_version (Binio.contents b)

let decode_sim s =
  let f = Binio.decode_file s in
  check_header ~kind:sim_kind ~version:sim_version f;
  let r = Binio.reader f.Binio.payload in
  let sc_net = r_network r in
  let sc_env = r_env r in
  let sc_t1 = Binio.r_f64 r in
  let sc_seed = Binio.r_i64 r in
  let sc_params =
    Binio.r_array
      (fun r ->
        let k = Binio.r_string r in
        let v = Binio.r_f64 r in
        (k, v))
      r
  in
  let sc_state =
    match Engines.of_tag (Binio.r_u8 r) with
    | Some e -> e.Engines.read r
    | None -> raise (Binio.Corrupt "bad engine tag")
  in
  Binio.expect_end r;
  { sc_net; sc_env; sc_t1; sc_seed; sc_params; sc_state }

let param sc name =
  Array.fold_left
    (fun acc (k, v) -> if k = name then Some v else acc)
    None sc.sc_params
