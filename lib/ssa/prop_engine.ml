(* Incremental-propensity engine and the direct-method event on it, the
   one exact-SSA step of both Gillespie and the hybrid engine's discrete
   mode (see prop_engine.mli for the bitwise contract).

   The naive direct method recomputes every propensity and their full sum
   after each event — O(R) per event. Here the compiled network's
   dependency graph (Dep_graph) tells us which propensities an event can
   actually change, so each event costs O(|deps(j)|) propensity updates:

   - props.(i) always equals the from-scratch propensity of reaction i
     (affected entries are recomputed exactly, not patched), so the
     incremental state cannot drift from the full recompute;
   - the running total is maintained by compensated (Kahan) accumulation
     of the exact deltas, and both it and the per-group partial sums are
     rebuilt from scratch every [refresh_every] events to bound float
     drift;
   - selection replaces the flat linear scan with a two-level search:
     find the group by scanning ~sqrt(R) group sums, then scan inside the
     one group. If accumulated drift makes the drawn target land on a
     zero-propensity slot, we rebuild and re-search with the same uniform
     draw (no extra RNG consumption, so trajectories stay seed-stable). *)

let propensity = Compiled.propensity

(* [acc] packs the compensated running total — acc.(0) is the total,
   acc.(1) the Kahan compensation — in a float array so the hot loop's
   mutations stay unboxed (mutable float fields of a mixed record would
   allocate on every write). *)
type t = {
  reactions : Compiled.reaction array;
  deps : Dep_graph.t;
  props : float array;
  group_sum : float array;
  group_size : int;
  n_groups : int;
  acc : float array;
  mutable since_refresh : int;
}

let total e = Array.unsafe_get e.acc 0

let make reactions deps =
  let m = Array.length reactions in
  let group_size =
    max 1 (int_of_float (ceil (sqrt (float_of_int (max m 1)))))
  in
  let n_groups = max 1 ((m + group_size - 1) / group_size) in
  {
    reactions;
    deps;
    props = Array.make m 0.;
    group_sum = Array.make n_groups 0.;
    group_size;
    n_groups;
    acc = Array.make 2 0.;
    since_refresh = 0;
  }

type state = {
  s_props : float array;
  s_group_sum : float array;
  s_acc : float array;
  s_since_refresh : int;
}

let capture e =
  {
    s_props = Array.copy e.props;
    s_group_sum = Array.copy e.group_sum;
    s_acc = Array.copy e.acc;
    s_since_refresh = e.since_refresh;
  }

let restore e st =
  if
    Array.length st.s_props <> Array.length e.props
    || Array.length st.s_group_sum <> Array.length e.group_sum
    || Array.length st.s_acc <> 2
  then invalid_arg "Prop_engine.restore: state shape mismatch";
  Array.blit st.s_props 0 e.props 0 (Array.length e.props);
  Array.blit st.s_group_sum 0 e.group_sum 0 (Array.length e.group_sum);
  Array.blit st.s_acc 0 e.acc 0 2;
  e.since_refresh <- st.s_since_refresh

(* full rebuild: every propensity, the group partial sums, and the total *)
let refresh e counts =
  let m = Array.length e.props in
  Array.fill e.group_sum 0 e.n_groups 0.;
  let total = ref 0. in
  for i = 0 to m - 1 do
    let a = propensity e.reactions.(i) counts in
    e.props.(i) <- a;
    let g = i / e.group_size in
    e.group_sum.(g) <- e.group_sum.(g) +. a;
    total := !total +. a
  done;
  e.acc.(0) <- !total;
  e.acc.(1) <- 0.;
  e.since_refresh <- 0

(* after firing reaction j, recompute exactly the affected propensities;
   unsafe accesses are justified by Dep_graph/compile producing only
   in-range indices *)
let update e counts j =
  let aff = Dep_graph.affected e.deps j in
  for k = 0 to Array.length aff - 1 do
    let i = Array.unsafe_get aff k in
    let a = propensity (Array.unsafe_get e.reactions i) counts in
    let d = a -. Array.unsafe_get e.props i in
    if d <> 0. then begin
      Array.unsafe_set e.props i a;
      let g = i / e.group_size in
      Array.unsafe_set e.group_sum g (Array.unsafe_get e.group_sum g +. d);
      (* Kahan: acc.(0) += d with compensation in acc.(1) *)
      let y = d -. Array.unsafe_get e.acc 1 in
      let t = Array.unsafe_get e.acc 0 +. y in
      Array.unsafe_set e.acc 1 (t -. Array.unsafe_get e.acc 0 -. y);
      Array.unsafe_set e.acc 0 t
    end
  done;
  e.since_refresh <- e.since_refresh + 1

(* two-level search for the reaction at cumulative weight [target]; returns
   -1 when drift strands the target on an empty slot (caller refreshes) *)
let search e target =
  let m = Array.length e.props in
  let g = ref 0 and acc = ref 0. in
  while
    !g < e.n_groups - 1
    && !acc +. Array.unsafe_get e.group_sum !g <= target
  do
    acc := !acc +. Array.unsafe_get e.group_sum !g;
    incr g
  done;
  let lo = !g * e.group_size in
  let hi = min m (lo + e.group_size) in
  let i = ref lo in
  while !i < hi - 1 && !acc +. Array.unsafe_get e.props !i <= target do
    acc := !acc +. Array.unsafe_get e.props !i;
    incr i
  done;
  if Array.unsafe_get e.props !i > 0. then !i else -1

(* select with the uniform draw [u]; on a drift miss rebuild once and
   re-search, then fall back to the last positive propensity *)
let select e counts u =
  let j = search e (u *. total e) in
  if j >= 0 then j
  else begin
    refresh e counts;
    if total e <= 0. then -1
    else
      let j = search e (u *. total e) in
      if j >= 0 then j
      else begin
        let last = ref (-1) in
        Array.iteri (fun i a -> if a > 0. then last := i) e.props;
        !last
      end
  end

(* One direct-method event; [false] once the run is over. The clock is
   a flat float record, so advancing it allocates nothing. *)
let hold (clock : Ode.Trace.clock) sample =
  clock.now <- clock.t1;
  sample ();
  false

let event e rng counts ~refresh_every (clock : Ode.Trace.clock) ~sample =
  if e.since_refresh >= refresh_every then refresh e counts;
  (* the compensated total may have decayed to zero or drifted: rebuild
     before declaring the system dead *)
  if total e <= 0. then refresh e counts;
  if total e <= 0. then hold clock sample
  else begin
    clock.now <- clock.now +. Numeric.Rng.exponential rng (total e);
    if clock.now > clock.t1 then hold clock sample
    else begin
      sample ();
      let j = select e counts (Numeric.Rng.float rng) in
      if j < 0 then hold clock sample
      else begin
        Compiled.apply e.reactions.(j) counts 1;
        update e counts j;
        true
      end
    end
  end
