(* Dependency-free binary encoding for simulation checkpoints.

   Writers append to a [Buffer.t]; readers walk an immutable string with
   a cursor and raise [Corrupt] on any malformed input — truncation, a
   negative or absurd length prefix, a bad tag — so callers can treat
   every decode failure uniformly (one exception, never a crash).

   All integers are 64-bit big-endian (OCaml ints round-trip exactly;
   [w_int]/[r_int] are the only int codec, so there is no width
   confusion), floats travel as their IEEE-754 bit patterns
   ([Int64.bits_of_float]) so values — including NaNs, infinities and
   signed zeros — round-trip bitwise. *)

exception Corrupt of string

let fail msg = raise (Corrupt msg)

(* ---------- writers ---------- *)

type writer = Buffer.t

let writer () = Buffer.create 1024
let contents (b : writer) = Buffer.contents b
let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_i64 b (v : int64) = Buffer.add_int64_be b v
let w_int b n = Buffer.add_int64_be b (Int64.of_int n)
let w_f64 b x = Buffer.add_int64_be b (Int64.bits_of_float x)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_array f b a =
  w_int b (Array.length a);
  Array.iter (f b) a

let w_int_array b a = w_array w_int b a
let w_f64_array b a = w_array w_f64 b a
let w_bool_array b a = w_array w_bool b a

let w_option f b = function
  | None -> w_bool b false
  | Some v ->
      w_bool b true;
      f b v

(* ---------- readers ---------- *)

type reader = { buf : string; mutable pos : int }

let reader s = { buf = s; pos = 0 }

(* [r.pos + n] would wrap negative for a length prefix near [max_int]
   and pass the check; the remaining-bytes form cannot overflow *)
let need r n =
  if n < 0 || n > String.length r.buf - r.pos then fail "truncated input"

let r_u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_i64 r =
  need r 8;
  let v = String.get_int64_be r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r = Int64.to_int (r_i64 r)
let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with 0 -> false | 1 -> true | _ -> fail "bad boolean tag"

let r_string r =
  let n = r_int r in
  if n < 0 then fail "negative string length";
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_array f r =
  let n = r_int r in
  (* every element costs at least one byte, so a length prefix larger
     than the remaining input is corrupt — reject before allocating *)
  if n < 0 || n > String.length r.buf - r.pos then fail "bad array length";
  Array.init n (fun _ -> f r)

let r_int_array r = r_array r_int r
let r_f64_array r = r_array r_f64 r
let r_bool_array r = r_array r_bool r
let r_option f r = if r_bool r then Some (f r) else None
let at_end r = r.pos = String.length r.buf

let expect_end r =
  if not (at_end r) then fail "trailing garbage after payload"

(* ---------- CRC-32 (IEEE, reflected, poly 0xEDB88320) ---------- *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref (Int32.of_int i) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xffl) in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ---------- file container ---------- *)

let magic = "MRSCSNAP"

type file = { kind : string; version : int; payload : string }

let encode_file ~kind ~version payload =
  let b = writer () in
  Buffer.add_string b magic;
  w_string b kind;
  w_int b version;
  w_string b payload;
  w_i64 b (Int64.of_int32 (crc32 payload));
  contents b

let decode_file s =
  let r = reader s in
  need r (String.length magic);
  let m = String.sub r.buf r.pos (String.length magic) in
  if m <> magic then fail "bad magic";
  r.pos <- r.pos + String.length magic;
  let kind = r_string r in
  let version = r_int r in
  let payload = r_string r in
  let crc = Int64.to_int32 (r_i64 r) in
  expect_end r;
  if crc <> crc32 payload then fail "checksum mismatch";
  { kind; version; payload }

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Write-to-temp then rename: readers either see the complete old file
   or the complete new one, never a torn write. The temp name includes
   the pid so concurrent writers (several shards sharing a parent dir by
   misconfiguration) cannot clobber each other's partial output. *)
let write_raw_atomic path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

