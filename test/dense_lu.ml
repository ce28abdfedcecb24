(* The textbook dense LU with partial pivoting: the oracle that
   [Numeric.Lu]'s nonzero-only factorization must equal entry for entry
   (test_lu.ml), and the one-shot helpers the numeric and exact tests
   use (solve, determinant, inverse, rank, null space). Every loop runs
   over all n^2 or n^3 index pairs, with no skipping of any kind. *)

open Numeric

type t = { lu : Mat.t; perm : int array; mutable sign : float }

let workspace n =
  if n < 0 then invalid_arg "Dense_lu.workspace: negative size";
  { lu = Mat.create n n 0.; perm = Array.init n (fun i -> i); sign = 1. }

let refactor t a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Lu.refactor: matrix not square";
  if Array.length t.perm <> n then invalid_arg "Lu.refactor: size mismatch";
  let lu = t.lu in
  for i = 0 to n - 1 do
    Array.blit a.(i) 0 lu.(i) 0 n;
    t.perm.(i) <- i
  done;
  t.sign <- 1.;
  for k = 0 to n - 1 do
    (* partial pivoting: pick the largest magnitude entry in column k *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.(i).(k) > Float.abs lu.(!pivot).(k) then pivot := i
    done;
    if !pivot <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      let tp = t.perm.(k) in
      t.perm.(k) <- t.perm.(!pivot);
      t.perm.(!pivot) <- tp;
      t.sign <- -.t.sign
    end;
    let pv = lu.(k).(k) in
    if Float.abs pv < 1e-300 then raise Lu.Singular;
    for i = k + 1 to n - 1 do
      let f = lu.(i).(k) /. pv in
      lu.(i).(k) <- f;
      for j = k + 1 to n - 1 do
        lu.(i).(j) <- lu.(i).(j) -. (f *. lu.(k).(j))
      done
    done
  done

let solve_into { lu; perm; _ } b x =
  let n = Array.length perm in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Lu.solve: dimension mismatch";
  if b == x then invalid_arg "Lu.solve_into: aliased arrays";
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* forward substitution: L y = P b *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done
  done;
  (* back substitution: U x = y *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.(i).(i)
  done

(* The updates of [refactor] with a nonzero multiplier and a nonzero
   pivot-row entry (NaN counts as nonzero). Column k's multipliers end
   up in L's column k and its pivot row in U's row k, so the count is
   read off the finished factor. *)
let useful_madds { lu; perm; _ } =
  let n = Array.length perm in
  let c = ref 0 in
  for k = 0 to n - 1 do
    let l = ref 0 and u = ref 0 in
    for i = k + 1 to n - 1 do
      if lu.(i).(k) <> 0. then incr l;
      if lu.(k).(i) <> 0. then incr u
    done;
    c := !c + (!l * !u)
  done;
  !c

let decompose a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Lu.decompose: matrix not square";
  let t = workspace n in
  refactor t a;
  t

let solve t b =
  let x = Array.make (Array.length t.perm) 0. in
  solve_into t b x;
  x

let solve_mat lu b =
  let bt = Mat.transpose b in
  Mat.transpose (Array.map (solve lu) bt)

let det { lu; sign; perm } =
  let n = Array.length perm in
  let d = ref sign in
  for i = 0 to n - 1 do
    d := !d *. lu.(i).(i)
  done;
  !d

let inverse lu =
  let n = Array.length lu.perm in
  solve_mat lu (Mat.identity n)

let solve_system a b = solve (decompose a) b

(* Row-echelon reduction shared by [rank] and [nullspace]. Returns the
   reduced matrix together with the list of pivot columns. *)
let row_echelon eps a =
  let m = Mat.copy a in
  let rows, cols = Mat.dims m in
  let pivots = ref [] in
  let r = ref 0 in
  let col = ref 0 in
  while !r < rows && !col < cols do
    let pivot = ref !r in
    for i = !r + 1 to rows - 1 do
      if Float.abs m.(i).(!col) > Float.abs m.(!pivot).(!col) then pivot := i
    done;
    if Float.abs m.(!pivot).(!col) <= eps then incr col
    else begin
      if !pivot <> !r then begin
        let tmp = m.(!r) in
        m.(!r) <- m.(!pivot);
        m.(!pivot) <- tmp
      end;
      let pv = m.(!r).(!col) in
      for j = 0 to cols - 1 do
        m.(!r).(j) <- m.(!r).(j) /. pv
      done;
      for i = 0 to rows - 1 do
        if i <> !r && Float.abs m.(i).(!col) > 0. then begin
          let f = m.(i).(!col) in
          for j = 0 to cols - 1 do
            m.(i).(j) <- m.(i).(j) -. (f *. m.(!r).(j))
          done
        end
      done;
      pivots := (!r, !col) :: !pivots;
      incr r;
      incr col
    end
  done;
  (m, List.rev !pivots)

let rank ?(eps = 1e-9) a =
  let _, pivots = row_echelon eps a in
  List.length pivots

let nullspace ?(eps = 1e-9) a =
  let _, cols = Mat.dims a in
  let m, pivots = row_echelon eps a in
  let pivot_cols = List.map snd pivots in
  let is_pivot j = List.mem j pivot_cols in
  let free_cols =
    List.filter (fun j -> not (is_pivot j)) (List.init cols (fun j -> j))
  in
  let basis_for free =
    let v = Array.make cols 0. in
    v.(free) <- 1.;
    List.iter (fun (r, c) -> v.(c) <- -.m.(r).(free)) pivots;
    v
  in
  List.map basis_for free_cols
