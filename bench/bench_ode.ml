(* ODE engine benchmark: throughput of the CSR flat RHS/Jacobian kernel
   and of the stiff path's LU, plus multicore scaling of the
   deterministic sweep engine.

   Emits machine-readable BENCH_ode.json in the current directory so the
   perf trajectory is tracked PR over PR:

     dune exec bench/bench_ode.exe                       # full suite
     dune exec bench/bench_ode.exe -- --quick            # CI smoke
     dune exec bench/bench_ode.exe -- --out path.json    # explicit output

   JSON schema (mrsc-bench-ode/4):
     kernel.networks[]: per-network RHS and in-place Jacobian evals/sec
       of the flat CSR kernel at a mid-trajectory state ("rhs_per_s",
       "jacobian_per_s"). The lu_ fields measure the stiff path's linear algebra
       at that state, W = I - gamma h J with h the last step Rosenbrock
       accepted before it: "lu_per_s" is one Lu.refactor plus two solves
       per iteration, "lu_nnz" the nonzeros of L + U, "lu_madds" the
       factorization's multiply-adds (Lu.madds), next to the dense
       loop's n (n - 1) (2n - 1) / 6 ("lu_dense_madds");
     sweep: wall time for the same rate-robustness sweep at jobs=1 and
       jobs=4, the scaling ratio, and whether the results were
       byte-identical across job counts (they must be). *)

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* run f in batches until [floor_s] of wall time is spent; returns
   (calls, wall) *)
let time_throughput ~floor_s ~batch f =
  let calls = ref 0 in
  let wall = ref 0. in
  while !wall < floor_s do
    let (), dt =
      time (fun () ->
          for _ = 1 to batch do
            f ()
          done)
    in
    calls := !calls + batch;
    wall := !wall +. dt
  done;
  (!calls, !wall)

type kernel_row = {
  network : string;
  n_species : int;
  n_reactions : int;
  jac_nnz : int;
  rhs_csr : float;  (* evals/sec *)
  jac_csr : float;
  lu_per_s : float;  (* refactor + two solves per second *)
  lu_nnz : int;
  lu_madds : int;
}

let gamma = 1. +. (1. /. sqrt 2.)

(* the state at t = 5 and the last step size Rosenbrock accepted
   before it *)
let state_and_step sys net =
  let prev = ref 0. and last = ref 0. in
  let x, _ =
    Ode.Rosenbrock.integrate ~t0:0. ~t1:5.
      ~on_sample:(fun t _ ->
        last := t -. !prev;
        prev := t)
      sys
      (Crn.Network.initial_state net)
  in
  (x, !last)

let dense_madds n = n * (n - 1) * ((2 * n) - 1) / 6

let bench_kernel ~quick ~name build =
  let net = build () in
  let env = Crn.Rates.default_env in
  let sys = Ode.Deriv.compile env net in
  let n = Ode.Deriv.dim sys in
  (* a mid-trajectory state, so fluxes are nonzero and representative *)
  let x, h = state_and_step sys net in
  let dx = Array.make n 0. in
  let jac = Numeric.Mat.create n n 0. in
  Ode.Deriv.jacobian_into sys x jac;
  let floor_s = if quick then 0.1 else 0.5 in
  let rhs_batch = 20_000 and jac_batch = 2_000 in
  let throughput ~batch f =
    let calls, wall = time_throughput ~floor_s ~batch f in
    float_of_int calls /. wall
  in
  (* warm up, then measure *)
  ignore (time_throughput ~floor_s:(floor_s /. 5.) ~batch:rhs_batch (fun () ->
      Ode.Deriv.f sys 0. x dx));
  let rhs_csr = throughput ~batch:rhs_batch (fun () -> Ode.Deriv.f sys 0. x dx) in
  let jac_csr =
    throughput ~batch:jac_batch (fun () -> Ode.Deriv.jacobian_into sys x jac)
  in
  let w =
    Numeric.Mat.init n n (fun i j ->
        (if i = j then 1. else 0.) -. (gamma *. h *. jac.(i).(j)))
  in
  let lu = Numeric.Lu.workspace n in
  let k1 = Array.make n 0. and k2 = Array.make n 0. in
  let lu_per_s =
    throughput ~batch:(jac_batch / 4) (fun () ->
        Numeric.Lu.refactor lu w;
        Numeric.Lu.solve_into lu dx k1;
        Numeric.Lu.solve_into lu k1 k2)
  in
  let row =
    {
      network = name;
      n_species = n;
      n_reactions = Ode.Deriv.n_reactions sys;
      jac_nnz = Ode.Deriv.jac_nnz sys;
      rhs_csr;
      jac_csr;
      lu_per_s;
      lu_nnz = Numeric.Lu.nnz lu;
      lu_madds = Numeric.Lu.madds lu;
    }
  in
  Printf.printf
    "%-10s n=%-3d R=%-3d   RHS %10.0f/s   | jacobian %8.0f/s   | LU %8.0f/s   \
     nnz %d   madds %d of %d dense\n%!"
    name n row.n_reactions rhs_csr jac_csr lu_per_s row.lu_nnz row.lu_madds
    (dense_madds n);
  row

(* One scaling-matrix row: the same sweep at one requested job count.
   Requests are clamped to the hardware, so an oversubscribed request
   documents that clamping makes it harmless (its wall time matches the
   effective job count's). [efficiency] is scaling / jobs_effective. *)
type sweep_row = {
  s_network : string;
  s_t1 : float;
  points : int;
  cores : int;
  jobs_requested : int;
  jobs_effective : int;
  chunk : int;
  wall_1 : float;
  wall_j : float;
  scaling : float;
  efficiency : float;
  oversubscribed : bool;
  identical : bool;
}

let bench_sweep ~quick ~name build =
  let net = build () in
  let t1 = if quick then 10. else 40. in
  let n_points = if quick then 4 else 8 in
  let ratios =
    Array.init n_points (fun i -> 100. *. (1.3 ** float_of_int i))
  in
  let go ~jobs ~chunk =
    time (fun () -> Ode.Sweep.final_states ~jobs ~chunk ~t1 net ~ratios)
  in
  let cores = Numeric.Domain_pool.default_jobs () in
  ignore (go ~jobs:1 ~chunk:n_points) (* warm-up *);
  let f1, wall_1 = go ~jobs:1 ~chunk:n_points in
  let requests = List.sort_uniq compare [ 1; 2; cores; 2 * cores ] in
  List.map
    (fun jobs_requested ->
      let jobs_effective = min jobs_requested cores in
      let chunk = max 1 (n_points / (2 * max 1 jobs_effective)) in
      let fj, wall_j = go ~jobs:jobs_requested ~chunk in
      let identical = f1 = fj in
      let scaling = wall_1 /. wall_j in
      let efficiency = scaling /. float_of_int (max 1 jobs_effective) in
      Printf.printf
        "sweep %-10s %d points: jobs=%d (eff %d/%d cores, chunk %d) %.2fs   \
         scaling %.2fx   efficiency %.2f   identical=%b\n%!"
        name n_points jobs_requested jobs_effective cores chunk wall_j scaling
        efficiency identical;
      {
        s_network = name;
        s_t1 = t1;
        points = n_points;
        cores;
        jobs_requested;
        jobs_effective;
        chunk;
        wall_1;
        wall_j;
        scaling;
        efficiency;
        oversubscribed = jobs_requested > cores;
        identical;
      })
    requests

(* ------------------------------------------------------------- JSON *)

let json_kernel_row b r =
  Buffer.add_string b
    (Printf.sprintf
       "    {\"network\": %S, \"n_species\": %d, \"n_reactions\": %d, \
        \"jac_nnz\": %d,\n\
       \     \"rhs_per_s\": %.1f, \"jacobian_per_s\": %.1f,\n\
       \     \"lu_per_s\": %.1f, \"lu_nnz\": %d, \"lu_madds\": %d, \
        \"lu_dense_madds\": %d}"
       r.network r.n_species r.n_reactions r.jac_nnz r.rhs_csr r.jac_csr
       r.lu_per_s r.lu_nnz r.lu_madds (dense_madds r.n_species))

let json_sweep_row b r =
  Buffer.add_string b
    (Printf.sprintf
       "    {\"network\": %S, \"t1\": %g, \"points\": %d, \"cores\": %d,\n\
       \     \"jobs_requested\": %d, \"jobs_effective\": %d, \"chunk\": %d,\n\
       \     \"jobs_1_wall_s\": %.4f, \"wall_s\": %.4f, \"scaling\": %.3f,\n\
       \     \"efficiency\": %.3f, \"oversubscribed\": %b, \
        \"identical\": %b}"
       r.s_network r.s_t1 r.points r.cores r.jobs_requested r.jobs_effective
       r.chunk r.wall_1 r.wall_j r.scaling r.efficiency r.oversubscribed
       r.identical)

let write_json ~path kernel_rows sweep_rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"mrsc-bench-ode/4\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"recommended_domains\": %d,\n  \"host\": %s,\n"
       (Numeric.Domain_pool.default_jobs ())
       (Bench_host.json ()));
  Buffer.add_string b "  \"kernel\": {\"networks\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      json_kernel_row b r)
    kernel_rows;
  Buffer.add_string b "\n  ]},\n  \"sweep\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      json_sweep_row b r)
    sweep_rows;
  Buffer.add_string b "\n  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* minimal CLI: [quick]/[--quick] shrinks workloads for CI smoke;
   [--out PATH] overrides the JSON destination (CI passes it explicitly
   so artifacts land where the workflow expects them) *)
let parse_args () =
  let quick =
    Array.exists (fun a -> a = "quick" || a = "--quick") Sys.argv
  in
  let out = ref "BENCH_ode.json" in
  Array.iteri
    (fun i a ->
      if a = "--out" then
        if i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1)
        else begin
          prerr_endline "bench_ode: --out needs a path";
          exit 2
        end)
    Sys.argv;
  (quick, !out)

let () =
  let quick, out = parse_args () in
  let catalog = [ "clock4"; "counter2"; "counter3"; "biquad" ] in
  let kernel_rows =
    List.map
      (fun name ->
        bench_kernel ~quick ~name (fun () -> Designs.Catalog.build name))
      catalog
  in
  let sweep_rows =
    bench_sweep ~quick ~name:"clock4" (fun () ->
        Designs.Catalog.build "clock4")
  in
  write_json ~path:out kernel_rows sweep_rows;
  let bad = List.filter (fun r -> not r.identical) sweep_rows in
  if bad <> [] then begin
    prerr_endline "FAIL: parallel sweep not identical to sequential";
    exit 1
  end
