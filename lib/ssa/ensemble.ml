(* Multicore ensemble runner: fan independent trajectories across domains
   via the shared Numeric.Domain_pool.

   Determinism contract: trajectory i always receives seeds.(i), the i-th
   stream split off the root generator, and results are returned in
   trajectory order — so the output is byte-identical for every job
   count and chunk size. The worker-state variant (map_with) adds the
   compile-once / per-worker-arena pattern: the caller builds the
   immutable model once and shares it in the closure, while init_worker
   gives each participating domain its own mutable scratch, reused
   across every trajectory that lands on it. *)

let default_jobs = Numeric.Domain_pool.default_jobs

let seeds ~seed ~runs =
  let root = Numeric.Rng.create seed in
  Array.init runs (fun _ -> Numeric.Rng.split_seed root)

let validate ~runs ~jobs =
  if runs < 1 then invalid_arg "Ensemble.map: runs must be >= 1";
  match jobs with
  | Some j when j < 1 -> invalid_arg "Ensemble.map: jobs must be >= 1"
  | _ -> ()

let map_with ?pool ?jobs ?chunk ?oversubscribe ?(seed = 42L) ~init_worker
    ~runs f =
  validate ~runs ~jobs;
  let seeds = seeds ~seed ~runs in
  Numeric.Domain_pool.run_worker ?pool ?jobs ?chunk ?oversubscribe
    ~init_worker ~tasks:runs (fun w i -> f w i seeds.(i))

let map ?pool ?jobs ?chunk ?oversubscribe ?seed ~runs f =
  map_with ?pool ?jobs ?chunk ?oversubscribe ?seed
    ~init_worker:(fun () -> ())
    ~runs
    (fun () i s -> f i s)
