(* Samples are stored in chunks of flat row-major float arrays: one
   allocation per [rows_per_chunk] samples instead of one Array.copy per
   sample, and a recorded row is a blit into contiguous storage. The
   chunk size targets a few kilobytes of floats whatever the state
   width, so short traces stay small and long traces amortize. *)

type t = {
  names : string array;
  width : int;
  rows_per_chunk : int;
  mutable times : float array;
  mutable chunks : float array array;
  mutable len : int;
}

let target_chunk_floats = 4096

let create ~names =
  let width = Array.length names in
  {
    names;
    width;
    rows_per_chunk = max 1 (target_chunk_floats / max 1 width);
    times = Array.make 64 0.;
    chunks = [||];
    len = 0;
  }

let grow tr =
  let cap = Array.length tr.times in
  if tr.len = cap then begin
    let times = Array.make (2 * cap) 0. in
    Array.blit tr.times 0 times 0 cap;
    tr.times <- times
  end;
  let chunk = tr.len / tr.rows_per_chunk in
  if chunk = Array.length tr.chunks then begin
    let chunks = Array.make (max 4 (2 * chunk)) [||] in
    Array.blit tr.chunks 0 chunks 0 chunk;
    tr.chunks <- chunks
  end;
  if tr.chunks.(chunk) = [||] && tr.width > 0 then
    tr.chunks.(chunk) <- Array.make (tr.rows_per_chunk * tr.width) 0.

let record tr t x =
  if Array.length x <> tr.width then
    invalid_arg "Trace.record: state dimension mismatch";
  if tr.len > 0 && t < tr.times.(tr.len - 1) then
    invalid_arg "Trace.record: time went backwards";
  grow tr;
  tr.times.(tr.len) <- t;
  Array.blit x 0
    tr.chunks.(tr.len / tr.rows_per_chunk)
    (tr.len mod tr.rows_per_chunk * tr.width)
    tr.width;
  tr.len <- tr.len + 1

let length tr = tr.len
let names tr = tr.names
let times tr = Array.sub tr.times 0 tr.len

let check_index tr i =
  if i < 0 || i >= tr.len then invalid_arg "Trace: sample index out of range"

(* value of species [s] at sample [i]; bounds already validated *)
let get tr i s =
  tr.chunks.(i / tr.rows_per_chunk).((i mod tr.rows_per_chunk * tr.width) + s)

let state_at_index tr i =
  check_index tr i;
  Array.sub
    tr.chunks.(i / tr.rows_per_chunk)
    (i mod tr.rows_per_chunk * tr.width)
    tr.width

let column tr s =
  if s < 0 || s >= tr.width then
    invalid_arg "Trace.column: species index out of range";
  Array.init tr.len (fun i -> get tr i s)

let species_index tr name =
  let rec go i =
    if i >= Array.length tr.names then raise Not_found
    else if tr.names.(i) = name then i
    else go (i + 1)
  in
  go 0

let column_named tr name = column tr (species_index tr name)

let value_at tr ~species t =
  Numeric.Interp.at ~times:(times tr) ~values:(column tr species) t

let nonempty tr = if tr.len = 0 then invalid_arg "Trace: empty trace"

let last_time tr =
  nonempty tr;
  tr.times.(tr.len - 1)

let last_state tr =
  nonempty tr;
  state_at_index tr (tr.len - 1)

let final_value tr name =
  nonempty tr;
  get tr (tr.len - 1) (species_index tr name)

let to_csv tr =
  let buf = Buffer.create (tr.len * 32) in
  Buffer.add_string buf "time";
  Array.iter
    (fun n ->
      Buffer.add_char buf ',';
      Buffer.add_string buf n)
    tr.names;
  Buffer.add_char buf '\n';
  for i = 0 to tr.len - 1 do
    Buffer.add_string buf (Printf.sprintf "%.6g" tr.times.(i));
    for s = 0 to tr.width - 1 do
      Buffer.add_string buf (Printf.sprintf ",%.6g" (get tr i s))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let restrict tr keep =
  let indices = Array.of_list (List.map (species_index tr) keep) in
  let sub = create ~names:(Array.of_list keep) in
  let row = Array.make (Array.length indices) 0. in
  for i = 0 to tr.len - 1 do
    Array.iteri (fun j s -> row.(j) <- get tr i s) indices;
    record sub tr.times.(i) row
  done;
  sub

let copy tr =
  {
    tr with
    times = Array.copy tr.times;
    chunks = Array.map Array.copy tr.chunks;
  }

type clock = {
  mutable now : float;
  mutable next : float;
  every : float;
  t1 : float;
}

let clock ~who ?sample_dt t1 =
  let every =
    match sample_dt with
    | Some dt when dt > 0. -> dt
    | Some _ -> invalid_arg (who ^ ": sample_dt must be positive")
    | None -> t1 /. 500.
  in
  { now = 0.; next = 0.; every; t1 }

let record_due tr c state =
  while c.next <= c.now && c.next <= c.t1 +. 1e-12 do
    record tr c.next (state ());
    c.next <- c.next +. c.every
  done
