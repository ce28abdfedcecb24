(* Partial-pivoting LU that does only the nonzero work.

   The result is the textbook right-looking loop's, entry for entry:
   the same pivot (the first row of largest magnitude in the column),
   the same per-entry update order and the same [Singular] threshold.
   What it leaves out is arithmetic whose result is known: an update
   [a - f * u] with [f] or [u] zero and the other finite subtracts a
   signed zero, which can change at most the sign of a zero entry, and
   so is skipped. Where an operand is infinite or NaN the skip is not
   exact (0 * inf = NaN), so a non-finite multiplier or pivot row takes
   the full-row update, and the solves take every entry of a row once
   an earlier unknown is non-finite.

   Rows stay where they were written; [perm] says which row sits at
   each pivot position. Each row records, as elimination goes, the
   columns of its nonzero multipliers (its L pattern, at the front of
   [pat.(r)]) and, when it becomes the pivot row, its nonzero columns
   right of the diagonal (its U pattern, in the last [nu.(r)] slots),
   both ascending. A row has at most [n - 1] such columns, so both fit.
   The solves walk those patterns, and loading the next matrix zeroes
   only them. *)

type t = {
  n : int;
  a : Mat.t;
  perm : int array;
  mutable odd : bool;  (* an odd number of row swaps *)
  pat : int array array;
  nl : int array;
  nu : int array;
  nz : int array;  (* scratch: the rows to eliminate in one column *)
  mutable clean : bool;
      (* every nonzero of [a] lies on a recorded pattern or the
         diagonal *)
  mutable madds : int;
}

exception Singular

let workspace n =
  if n < 0 then invalid_arg "Lu.workspace: negative size";
  {
    n;
    a = Mat.create n n 0.;
    perm = Array.init n (fun i -> i);
    odd = false;
    pat = Array.init n (fun _ -> Array.make n 0);
    nl = Array.make n 0;
    nu = Array.make n 0;
    nz = Array.make n 0;
    clean = true;
    madds = 0;
  }

(* zero the matrix: after a factorization that completed, only its
   patterns and diagonal can be nonzero *)
let clear t =
  let n = t.n in
  if t.clean then
    for i = 0 to n - 1 do
      let r = t.perm.(i) in
      let ar = t.a.(r) and pr = t.pat.(r) in
      ar.(i) <- 0.;
      for q = 0 to t.nl.(r) - 1 do
        Array.unsafe_set ar (Array.unsafe_get pr q) 0.
      done;
      for q = n - t.nu.(r) to n - 1 do
        Array.unsafe_set ar (Array.unsafe_get pr q) 0.
      done
    done
  else Array.iter (fun row -> Array.fill row 0 n 0.) t.a

let factor t =
  let n = t.n in
  let a = t.a and perm = t.perm and pat = t.pat and nl = t.nl and nu = t.nu in
  let nz = t.nz in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  Array.fill nl 0 n 0;
  Array.fill nu 0 n 0;
  t.odd <- false;
  t.clean <- false;
  t.madds <- 0;
  for k = 0 to n - 1 do
    (* partial pivoting: the first row of largest magnitude in column k.
       A zero entry can neither win nor move the running maximum, so
       the scan also collects the rows that have something to
       eliminate (NaN counts as nonzero). *)
    let p = ref k and best = ref (Float.abs a.(perm.(k)).(k)) and m = ref 0 in
    for i = k to n - 1 do
      let r = Array.unsafe_get perm i in
      let v = Array.unsafe_get (Array.unsafe_get a r) k in
      if v <> 0. then begin
        Array.unsafe_set nz !m r;
        incr m;
        let u = Float.abs v in
        if u > !best then begin
          best := u;
          p := i
        end
      end
    done;
    let p = !p in
    if p <> k then begin
      let tp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tp;
      t.odd <- not t.odd
    end;
    let rk = perm.(k) in
    let ak = a.(rk) and pk = pat.(rk) in
    let pv = ak.(k) in
    if Float.abs pv < 1e-300 then raise Singular;
    (* the pivot row's nonzero columns right of k: its U pattern *)
    let cnt = ref 0 and finite = ref (Float.is_finite pv) in
    for j = n - 1 downto k + 1 do
      let v = Array.unsafe_get ak j in
      if v <> 0. then begin
        incr cnt;
        Array.unsafe_set pk (n - !cnt) j;
        if not (Float.is_finite v) then finite := false
      end
    done;
    let cnt = !cnt and finite = !finite in
    nu.(rk) <- cnt;
    (* Against a finite pivot row, a row with a zero entry has a zero
       multiplier and nothing to do: eliminate just the collected rows.
       Otherwise 0 * inf or 0 / NaN may be NaN, so take every row. *)
    let m =
      if finite then !m
      else begin
        for i = k + 1 to n - 1 do
          nz.(i - k - 1) <- perm.(i)
        done;
        n - k - 1
      end
    in
    for q = 0 to m - 1 do
      let r = nz.(q) in
      if r <> rk then begin
        let ar = a.(r) in
        let f = ar.(k) /. pv in
        ar.(k) <- f;
        if f <> 0. then begin
          pat.(r).(nl.(r)) <- k;
          nl.(r) <- nl.(r) + 1;
          t.madds <- t.madds + cnt
        end;
        if finite && Float.is_finite f then begin
          if f <> 0. then
            for q = n - cnt to n - 1 do
              let j = Array.unsafe_get pk q in
              Array.unsafe_set ar j
                (Array.unsafe_get ar j -. (f *. Array.unsafe_get ak j))
            done
        end
        else
          for j = k + 1 to n - 1 do
            ar.(j) <- ar.(j) -. (f *. ak.(j))
          done
      end
    done
  done;
  t.clean <- true

let refactor t a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Lu.refactor: matrix not square";
  if t.n <> n then invalid_arg "Lu.refactor: size mismatch";
  for i = 0 to n - 1 do
    Array.blit a.(i) 0 t.a.(i) 0 n
  done;
  factor t

let refactor_shifted t s m ~rows ~cols =
  let n = t.n in
  if Array.length m <> n then invalid_arg "Lu.refactor_shifted: size mismatch";
  if Array.length rows <> Array.length cols then
    invalid_arg "Lu.refactor_shifted: pattern arrays differ in length";
  let a = t.a in
  (* the dense expression, (if i = j then 1 else 0) - s * m(i)(j), on
     the diagonal and the pattern; everywhere else it is 0 - s * 0 = +0,
     which [clear] leaves, unless s is not finite *)
  if Float.is_finite s then begin
    clear t;
    for i = 0 to n - 1 do
      a.(i).(i) <- 1. -. (s *. m.(i).(i))
    done;
    for p = 0 to Array.length rows - 1 do
      let i = rows.(p) and j = cols.(p) in
      if i <> j then a.(i).(j) <- 0. -. (s *. m.(i).(j))
    done
  end
  else
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        a.(i).(j) <- (if i = j then 1. else 0.) -. (s *. m.(i).(j))
      done
    done;
  factor t

let solve_into t b x =
  let n = t.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Lu.solve: dimension mismatch";
  if b == x then invalid_arg "Lu.solve_into: aliased arrays";
  let a = t.a and perm = t.perm and pat = t.pat in
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* forward substitution: L y = P b. A skipped zero entry would have
     subtracted 0 * x(j), which is NaN once x(j) is not finite; from
     then on every row takes all its entries. *)
  let every = ref false in
  for i = 0 to n - 1 do
    let r = perm.(i) in
    let ar = a.(r) in
    let s = ref x.(i) in
    if !every then
      for j = 0 to i - 1 do
        s := !s -. (ar.(j) *. x.(j))
      done
    else begin
      let pr = pat.(r) in
      for q = 0 to t.nl.(r) - 1 do
        let j = Array.unsafe_get pr q in
        s := !s -. (Array.unsafe_get ar j *. Array.unsafe_get x j)
      done
    end;
    x.(i) <- !s;
    if not (Float.is_finite !s) then every := true
  done;
  (* back substitution: U x = y *)
  let every = ref false in
  for i = n - 1 downto 0 do
    let r = perm.(i) in
    let ar = a.(r) in
    let s = ref x.(i) in
    if !every then
      for j = i + 1 to n - 1 do
        s := !s -. (ar.(j) *. x.(j))
      done
    else begin
      let pr = pat.(r) in
      for q = n - t.nu.(r) to n - 1 do
        let j = Array.unsafe_get pr q in
        s := !s -. (Array.unsafe_get ar j *. Array.unsafe_get x j)
      done
    end;
    let v = !s /. ar.(i) in
    x.(i) <- v;
    if not (Float.is_finite v) then every := true
  done

let madds t = t.madds

let nnz t =
  let c = ref t.n in
  for r = 0 to t.n - 1 do
    c := !c + t.nl.(r) + t.nu.(r)
  done;
  !c

let perm t = Array.copy t.perm
let sign t = if t.odd then -1. else 1.
let entry t i j = t.a.(t.perm.(i)).(j)
