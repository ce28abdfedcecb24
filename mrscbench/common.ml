(* Shared helpers for the repository benchmark: clocks, order
   statistics, process memory, and the result record every workload
   returns. *)

module J = Service.Json

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a sorted array, the same definition
   as Python's statistics.quantiles(method="inclusive"). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = min (int_of_float pos) (n - 2) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* Nearest-rank percentile: the value below which [q] of the samples
   lie. [beyond] is how many samples exceed it, so a caller can insist
   on at least ten (a p99 needs a thousand samples). *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    (a.(rank - 1), n - rank)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Peak resident set (VmHWM) of a live process, in MB; [None] once the
   process is gone. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> Some (float_of_int kb /. 1024.))
                else scan ()
          in
          scan ())

let self_peak_rss_mb () = Option.value ~default:nan (peak_rss_mb "self")

(* Time a thunk: its result and its wall time in seconds. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What a workload run hands back to the entry point: operation counts,
   output-check verdict, the end-to-end metrics (measured with tracing
   off) or the per-layer ones (traced run), and a free-form block of
   configuration and details for the run record. *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed operations and failed checks *)
  checks_ok : bool;
  end_to_end : metric list;
  per_layer : metric list;
  named : metric list;
      (** the end-to-end figures under descriptive names, hot p99 included *)
  info : (string * J.t) list;
}

let jnum x = J.Num x
let jint n = J.int n
let jstr s = J.Str s

let metrics_json ms =
  J.Obj
    (List.map
       (fun { name; value; unit_ } ->
         (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit_) ]))
       ms)

(* Failures are collected, not raised, so one bad operation is counted
   and reported without hiding the rest of the run. *)
type failures = { mutable n : int; mutable msgs : string list }

let failures () = { n = 0; msgs = [] }

let fail fs fmt =
  Printf.ksprintf
    (fun msg ->
      fs.n <- fs.n + 1;
      if List.length fs.msgs < 20 then fs.msgs <- msg :: fs.msgs)
    fmt
