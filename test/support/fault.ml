(* Deterministic fault injection for the wire layer.

   A schedule is a list of faults pinned to byte offsets in one
   direction of a stream. [wrap] interposes the schedule between a
   {!Wire.transport} and its user: reads and writes are clipped so that
   no single call crosses a scheduled offset, which makes every fault
   land on exactly the byte it names — the same seed always produces the
   same torn frames, flipped bytes, resets and stalls, so any failure a
   randomized suite finds replays from its printed seed. *)

module Wire = Service.Wire

type fault =
  | Short of { at : int; cap : int }
  | Corrupt of { at : int; xor : int }
  | Reset of { at : int }
  | Stall of { at : int; ms : float }

type schedule = fault list

let offset_of = function
  | Short { at; _ } | Corrupt { at; _ } | Reset { at } | Stall { at; _ } -> at

let sort_schedule s =
  List.stable_sort (fun a b -> compare (offset_of a) (offset_of b)) s

let describe schedule =
  let one = function
    | Short { at; cap } -> Printf.sprintf "short@%d(cap %d)" at cap
    | Corrupt { at; xor } -> Printf.sprintf "corrupt@%d(xor %#x)" at xor
    | Reset { at } -> Printf.sprintf "reset@%d" at
    | Stall { at; ms } -> Printf.sprintf "stall@%d(%gms)" at ms
  in
  match schedule with
  | [] -> "(no faults)"
  | s -> String.concat ", " (List.map one (sort_schedule s))

(* --------------------------------------------------------- interposer *)

type side = { mutable pos : int; mutable pending : schedule }

let reset_exn = Unix.Unix_error (Unix.ECONNRESET, "fault", "injected reset")

(* Faults at the current position that act before any bytes move. *)
let rec fire_point_faults side =
  match side.pending with
  | Stall { at; ms } :: rest when at <= side.pos ->
      side.pending <- rest;
      Unix.sleepf (ms /. 1000.);
      fire_point_faults side
  | Reset { at } :: _ when at <= side.pos -> raise reset_exn
  | _ -> ()

(* Clip [len] so this call neither overruns a Short cap nor crosses the
   offset of a later fault (a Corrupt inside the transferred span is
   fine — it edits bytes in place — but Reset/Stall/Short must trigger
   exactly at their offset on a subsequent call). *)
let clip side len =
  let rec go len = function
    | [] -> len
    | Short { at; cap } :: rest ->
        if at <= side.pos then min len cap else go (min len (at - side.pos)) rest
    | Corrupt _ :: rest -> go len rest
    | (Reset { at } | Stall { at; _ }) :: rest ->
        if at <= side.pos then go len rest
        else go (min len (at - side.pos)) rest
  in
  if len <= 0 then len else max 1 (go len side.pending)

(* Drop point faults that this transfer has passed: a Short applies to
   the single call that reaches its offset, then retires. *)
let retire side n =
  let stop = side.pos + n in
  side.pending <-
    List.filter
      (fun f ->
        match f with
        | Short { at; _ } -> at >= stop
        | Corrupt { at; _ } -> at >= stop
        | Reset _ | Stall _ -> true)
      side.pending

let corrupt_span side buf off n =
  List.iter
    (fun f ->
      match f with
      | Corrupt { at; xor } when at >= side.pos && at < side.pos + n ->
          let i = off + (at - side.pos) in
          Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor xor land 0xff))
      | _ -> ())
    side.pending

let wrap ?(on_read = []) ?(on_write = []) (t : Wire.transport) =
  let rd = { pos = 0; pending = sort_schedule on_read } in
  let wr = { pos = 0; pending = sort_schedule on_write } in
  let read buf off len =
    fire_point_faults rd;
    let len = if rd.pending = [] then len else clip rd len in
    let n = t.Wire.read buf off len in
    if n > 0 then begin
      corrupt_span rd buf off n;
      retire rd n;
      rd.pos <- rd.pos + n
    end;
    n
  in
  let write buf off len =
    fire_point_faults wr;
    let len = if wr.pending = [] then len else clip wr len in
    (* corrupt a private copy: the caller's buffer must stay intact *)
    let slice = Bytes.sub buf off len in
    corrupt_span wr slice 0 len;
    let n = t.Wire.write slice 0 len in
    if n > 0 then begin
      retire wr n;
      wr.pos <- wr.pos + n
    end;
    n
  in
  { Wire.read; write }

let chop cap (t : Wire.transport) =
  if cap < 1 then invalid_arg "Fault.chop: cap must be >= 1";
  {
    Wire.read = (fun buf off len -> t.Wire.read buf off (min cap len));
    write = (fun buf off len -> t.Wire.write buf off (min cap len));
  }

(* ------------------------------------------------------------ schedules *)

let random_schedule ~rng ~len n =
  if len < 1 then invalid_arg "Fault.random_schedule: len must be >= 1";
  let fault () =
    let at = Numeric.Rng.int rng len in
    match Numeric.Rng.int rng 4 with
    | 0 -> Short { at; cap = 1 + Numeric.Rng.int rng 16 }
    | 1 -> Corrupt { at; xor = 1 + Numeric.Rng.int rng 255 }
    | 2 -> Reset { at }
    | _ -> Stall { at; ms = float_of_int (1 + Numeric.Rng.int rng 15) }
  in
  sort_schedule (List.init n (fun _ -> fault ()))

let benign = function Reset _ | Corrupt _ -> false | Short _ | Stall _ -> true

let lossless schedule = List.for_all benign schedule
