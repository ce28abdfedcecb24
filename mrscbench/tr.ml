(* Benchmark-side tracing. Spans (name, start, end, parent, operation
   id) are recorded around the benchmark's own calls into a library
   layer, kept in memory, and written out when the run ends.
   Disabled (the default), [span] is a single branch around the call,
   so the untraced runs measure the program, not the tracer. *)

let enabled = ref false

type span = {
  id : int;
  parent : int;
  name : string;
  op : int;
  t0 : float;
  t1 : float;
}

let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let op_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Tag the spans this domain records from now on with an operation id. *)
let set_op op = if !enabled then Domain.DLS.set op_key op

let push s = locked (fun () -> spans := s :: !spans)

let span name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set current parent;
      push { id; parent; name; op = Domain.DLS.get op_key; t0; t1 }
    in
    match f () with
    | x ->
        finish ();
        x
    | exception e ->
        finish ();
        raise e
  end

(* Record a span whose ends the caller timed itself (a served request,
   timed by the load generator). *)
let record name ~t0 ~t1 =
  if !enabled then
    push
      {
        id = Atomic.fetch_and_add next_id 1;
        parent = Domain.DLS.get current;
        name;
        op = Domain.DLS.get op_key;
        t0;
        t1;
      }

let named name = locked (fun () -> List.filter (fun s -> s.name = name) !spans)

(* Summed duration (s) and number of the spans called [name]. *)
let total name =
  List.fold_left (fun acc s -> acc +. (s.t1 -. s.t0)) 0. (named name)

let calls name = List.length (named name)

(* Mean span duration in ms, 0 when the layer was never entered. *)
let mean_ms name =
  let n = calls name in
  if n = 0 then 0. else total name *. 1000. /. float_of_int n

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let all = locked (fun () -> List.rev !spans) in
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \
             \"start\": %.6f, \"end\": %.6f}\n"
            s.id s.parent s.op s.name s.t0 s.t1)
        all)
