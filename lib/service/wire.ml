(* Length-prefixed framing over a stream socket: each frame is a 4-byte
   big-endian payload length followed by that many bytes of UTF-8 JSON.
   Writes emit the whole frame with one [write] sequence under the
   caller's lock; reads come in two flavors — a blocking reader for the
   simple synchronous client, and an incremental decoder the connection
   core feeds from its select loop so one slow connection can never stall
   the others.

   All frame I/O goes through a {!transport} — a pair of read/write
   functions with the [Unix.read]/[Unix.write] calling convention — so
   the tests' fault-injection shim (test/support/fault.ml) can sit
   between the framing layer and the socket unseen by either side. *)

let default_max_frame = 64 * 1024 * 1024
(* A defensive ceiling even when the caller sets no explicit limit: a
   64 MiB request/response is a bug, not a workload. The daemon
   configures a much smaller per-connection limit. *)

exception Framing_error of string

exception Oversized_frame of { len : int; limit : int }

let check_len ~max_frame len =
  if len < 0 then
    raise (Framing_error (Printf.sprintf "negative frame length %d" len))
  else if len > max_frame then raise (Oversized_frame { len; limit = max_frame })

(* ----------------------------------------------------------- transport *)

type transport = {
  read : Bytes.t -> int -> int -> int;
  write : Bytes.t -> int -> int -> int;
}

let of_fd fd = { read = Unix.read fd; write = Unix.write fd }

(* ------------------------------------------------------------- writing *)

let write_all t bytes =
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    let written = t.write bytes !off (n - !off) in
    if written <= 0 then raise (Framing_error "short write");
    off := !off + written
  done

let write_frame_t ?(max_frame = default_max_frame) t payload =
  let n = String.length payload in
  check_len ~max_frame n;
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string payload 0 frame 4 n;
  write_all t frame

let write_frame ?max_frame fd payload =
  write_frame_t ?max_frame (of_fd fd) payload

(* ------------------------------------------------------ blocking reads *)

let read_exact t buf off len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = t.read buf (off + !got) (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got = len

let read_frame_t ?(max_frame = default_max_frame) t =
  let header = Bytes.create 4 in
  (* EOF cleanly between frames is a closed connection, not an error *)
  let n = t.read header 0 4 in
  if n = 0 then None
  else begin
    if n < 4 && not (read_exact t header n (4 - n)) then
      raise (Framing_error "EOF inside frame header");
    let len = Int32.to_int (Bytes.get_int32_be header 0) in
    (* reject a hostile prefix before the payload allocation *)
    check_len ~max_frame len;
    let payload = Bytes.create len in
    if not (read_exact t payload 0 len) then
      raise (Framing_error "EOF inside frame payload");
    Some (Bytes.unsafe_to_string payload)
  end

let read_frame ?max_frame fd = read_frame_t ?max_frame (of_fd fd)

(* --------------------------------------------------- incremental decode *)

type decoder = { mutable buf : Bytes.t; mutable len : int; max_frame : int }

let decoder ?(max_frame = default_max_frame) () =
  { buf = Bytes.create 4096; len = 0; max_frame }

let buffered d = d.len

let feed d chunk chunk_len =
  let need = d.len + chunk_len in
  if need > Bytes.length d.buf then begin
    let cap = ref (Bytes.length d.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit d.buf 0 bigger 0 d.len;
    d.buf <- bigger
  end;
  Bytes.blit chunk 0 d.buf d.len chunk_len;
  d.len <- d.len + chunk_len

let next_frame d =
  if d.len < 4 then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_be d.buf 0) in
    (* the length prefix is validated as soon as it is complete — before
       any payload bytes are awaited or a payload buffer is allocated, so
       a hostile prefix can neither request a huge allocation nor make
       the decoder buffer megabytes of a frame it will reject anyway *)
    check_len ~max_frame:d.max_frame len;
    if d.len < 4 + len then None
    else begin
      let payload = Bytes.sub_string d.buf 4 len in
      let rest = d.len - 4 - len in
      Bytes.blit d.buf (4 + len) d.buf 0 rest;
      d.len <- rest;
      Some payload
    end
  end
