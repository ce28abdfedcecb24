(* Host-speed reference for the end-to-end times.

   The shared host runs the same work at different speeds from one
   stretch of seconds to the next. Other tenants take its CPUs away
   (CPU steal of 1-36% in /proc/stat samples) and slow the rest, so a
   single-threaded pass over the ode-clocked designs took anywhere from
   7.3 to 11.5 s within five minutes of one process, and a served hot
   request's median from 4.2 to 8.4 ms between runs. Every timed run
   therefore also times a fixed reference computation, interleaved with
   its operations, made of the two shapes of work a Rosenbrock step is
   made of: dense LU factorizations (no pivoting; the matrices are
   diagonally dominant) of two fixed matrices, 40 x 40 and 64 x 64, and
   mass-action rate sweeps over a fixed network of 40 species and 160
   reactions, gathering and scattering through index arrays. The code
   is the benchmark's own and calls no library function, so a change to
   the program cannot move it; only the host can.

   A run's speed factor is the kernel's reference time over the mean of
   its samples, and every end-to-end time the workload measures is
   reported at the reference speed: raw time x factor. Samples are
   timed on the wall clock, so time taken by other tenants counts in
   them as it does in the workload's own times; the mean, not the
   median, so they follow the share of the run spent in each of the
   host's states, as the workload's times do. The raw times are kept in
   the run record (named_metrics) beside the scaled ones. *)

let matrix n =
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then float_of_int n +. 1.
          else float_of_int (((i * 7) + (j * 13)) mod 11) /. 11.))

let factor_in_place a =
  let n = Array.length a in
  for k = 0 to n - 1 do
    let pr = a.(k) in
    let p = pr.(k) in
    for i = k + 1 to n - 1 do
      let row = a.(i) in
      let l = row.(k) /. p in
      row.(k) <- l;
      for j = k + 1 to n - 1 do
        row.(j) <- row.(j) -. (l *. pr.(j))
      done
    done
  done

let lu n =
  let base = matrix n and work = Array.make_matrix n n 0. in
  fun reps ->
    let acc = ref 0. in
    for _ = 1 to reps do
      Array.iteri (fun i row -> Array.blit row 0 work.(i) 0 n) base;
      factor_in_place work;
      acc := !acc +. work.(n - 1).(n - 1)
    done;
    !acc

(* dx = sum over reactions of k x_a x_b, taken from reactants a, b and
   given to products c, d *)
let rates () =
  let ns = 40 and nr = 160 in
  let idx mul add = Array.init nr (fun r -> ((r * mul) + add) mod ns) in
  let a = idx 7 3 and b = idx 11 5 and c = idx 13 1 and d = idx 17 9 in
  let k = Array.init nr (fun r -> 0.5 +. (float_of_int (r mod 10) /. 10.)) in
  let x = Array.init ns (fun i -> 1. +. float_of_int (i mod 5)) in
  let dx = Array.make ns 0. in
  fun reps ->
    let acc = ref 0. in
    for _ = 1 to reps do
      Array.fill dx 0 ns 0.;
      for r = 0 to nr - 1 do
        let v = k.(r) *. x.(a.(r)) *. x.(b.(r)) in
        dx.(a.(r)) <- dx.(a.(r)) -. v;
        dx.(b.(r)) <- dx.(b.(r)) -. v;
        dx.(c.(r)) <- dx.(c.(r)) +. v;
        dx.(d.(r)) <- dx.(d.(r)) +. v
      done;
      acc := !acc +. dx.(0)
    done;
    !acc

(* One domain's kernel, its arrays allocated once so a call allocates
   nothing: about half its time in LU, half in rate sweeps. *)
let make_kernel () =
  let lu40 = lu 40 and lu64 = lu 64 and rates = rates () in
  fun () -> ignore (Sys.opaque_identity (lu40 50 +. lu64 12 +. rates 2500) : float)

(* Samples of one run. A sample runs the kernel on every domain of
   [kernels] at once -- the calling one and one spawned for each other
   -- each timed on its own, and keeps their mean. [reference_s] is the
   kernel's mean time on the reference host (2 vCPUs, Intel Xeon at
   2.0 GHz): only a scale, which cancels in any comparison of two runs
   of this benchmark. *)
type t = {
  reference_s : float;
  kernels : (unit -> unit) array;
  mutable samples : float list;
}

(* [domains] > 1 for a workload that keeps that many domains busy
   (stochastic-ensemble): their mean then also follows a host that
   takes one of its CPUs away and not the other. *)
let create ?(domains = 1) () =
  {
    reference_s = 0.008;
    kernels = Array.init domains (fun _ -> make_kernel ());
    samples = [];
  }

let sample t =
  let run k =
    let t0 = Unix.gettimeofday () in
    k ();
    Unix.gettimeofday () -. t0
  in
  let others =
    Array.to_list
      (Array.map
         (fun k -> Domain.spawn (fun () -> run k))
         (Array.sub t.kernels 1 (Array.length t.kernels - 1)))
  in
  let mine = run t.kernels.(0) in
  t.samples <- Common.mean (mine :: List.map Domain.join others) :: t.samples

(* One sample per started half second of the operation just timed, so
   the samples weigh the run's stretches by their length. *)
let sample_after t ~op_s =
  for _ = 1 to max 1 (int_of_float (Float.ceil (op_s /. 0.5))) do
    sample t
  done

let count t = List.length t.samples

(* reference time / mean sample: above 1 on a host faster than the
   reference, below on a slower one *)
let factor t =
  if t.samples = [] then nan else t.reference_s /. Common.mean t.samples
