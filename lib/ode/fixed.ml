let euler_step sys t x h =
  let n = Deriv.dim sys in
  let dx = Array.make n 0. in
  Deriv.f sys t x dx;
  let y = Array.copy x in
  Numeric.Vec.axpy h dx y;
  y

(* Stage buffers, owned by the caller so a slice allocates nothing (the
   hybrid engine's fast partition runs one per arena). *)
type rk4_scratch = {
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  y : float array;
}

let rk4_scratch n =
  let v () = Array.make n 0. in
  { k1 = v (); k2 = v (); k3 = v (); k4 = v (); y = v () }

(* Mass-action fields are autonomous ([Deriv.f] ignores its time), so
   every stage evaluates at t = 0. *)
let rk4_slice { k1; k2; k3; k4; y } sys x h =
  let n = Array.length x in
  let h2 = 0.5 *. h and h6 = h /. 6. in
  Deriv.f sys 0. x k1;
  for i = 0 to n - 1 do
    y.(i) <- x.(i) +. (h2 *. k1.(i))
  done;
  Deriv.f sys 0. y k2;
  for i = 0 to n - 1 do
    y.(i) <- x.(i) +. (h2 *. k2.(i))
  done;
  Deriv.f sys 0. y k3;
  for i = 0 to n - 1 do
    y.(i) <- x.(i) +. (h *. k3.(i))
  done;
  Deriv.f sys 0. y k4;
  for i = 0 to n - 1 do
    x.(i) <-
      x.(i) +. (h6 *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i)))
  done

let rk4_step sys _t x h =
  let y = Array.copy x in
  rk4_slice (rk4_scratch (Deriv.dim sys)) sys y h;
  y

(* Loop-top mid-run state: the stepper is stateless between steps, so
   time and state are the whole story. *)
type checkpoint = { ck_t : float; ck_x : float array }

let integrate ?(cancel = Numeric.Cancel.never) ?resume ?on_cancel ~step ~h ~t0
    ~t1 ~on_sample sys x0 =
  if h <= 0. then invalid_arg "Fixed.integrate: step must be positive";
  if t1 < t0 then invalid_arg "Fixed.integrate: t1 < t0";
  let x = ref (Array.copy x0) in
  let t = ref t0 in
  (match resume with
  | None -> on_sample !t !x
  | Some ck ->
      if Array.length ck.ck_x <> Array.length !x then
        invalid_arg "Fixed.integrate: checkpoint dimension mismatch";
      x := Array.copy ck.ck_x;
      t := ck.ck_t);
  while !t < t1 -. 1e-12 do
    (try Numeric.Cancel.guard cancel
     with Numeric.Cancel.Cancelled ->
       (match on_cancel with
       | Some f -> f { ck_t = !t; ck_x = Array.copy !x }
       | None -> ());
       raise Numeric.Cancel.Cancelled);
    let hh = Float.min h (t1 -. !t) in
    let y = step sys !t !x hh in
    Numeric.Vec.clamp_nonneg y;
    x := y;
    t := !t +. hh;
    on_sample !t !x
  done;
  !x
