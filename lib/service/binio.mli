(** Dependency-free binary encoding for simulation checkpoints.

    A tiny writer/reader pair plus a versioned, checksummed file
    container. Integers are 64-bit big-endian; floats travel as IEEE-754
    bit patterns, so every value — NaNs, infinities, signed zeros —
    round-trips bitwise, which the resume guarantees depend on. Readers
    raise {!Corrupt} on any malformed input (truncation, bad length
    prefix, bad tag, checksum mismatch), so callers can treat every
    decode failure uniformly: one exception, never a crash. *)

exception Corrupt of string

type writer

val writer : unit -> writer
val contents : writer -> string
val w_u8 : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_int : writer -> int -> unit
val w_f64 : writer -> float -> unit
val w_bool : writer -> bool -> unit
val w_string : writer -> string -> unit
val w_array : (writer -> 'a -> unit) -> writer -> 'a array -> unit
val w_int_array : writer -> int array -> unit
val w_f64_array : writer -> float array -> unit
val w_bool_array : writer -> bool array -> unit
val w_option : (writer -> 'a -> unit) -> writer -> 'a option -> unit

type reader

val reader : string -> reader
val r_u8 : reader -> int
val r_i64 : reader -> int64
val r_int : reader -> int
val r_f64 : reader -> float
val r_bool : reader -> bool
val r_string : reader -> string
val r_array : (reader -> 'a) -> reader -> 'a array
val r_int_array : reader -> int array
val r_f64_array : reader -> float array
val r_bool_array : reader -> bool array
val r_option : (reader -> 'a) -> reader -> 'a option

val expect_end : reader -> unit
(** Raise {!Corrupt} unless the cursor consumed the whole input —
    decoders call this last so trailing garbage is rejected. *)

type file = { kind : string; version : int; payload : string }
(** A decoded container: [kind] names the payload schema (e.g.
    ["mrsc-sim-checkpoint"]), [version] its format revision. *)

val encode_file : kind:string -> version:int -> string -> string
(** [encode_file ~kind ~version payload] wraps the payload in the
    magic + kind + version + CRC-32 container. *)

val decode_file : string -> file
(** Inverse of {!encode_file}. Raises {!Corrupt} on bad magic, torn
    input, trailing bytes, or checksum mismatch. The caller checks
    [kind]/[version] — an unknown version is {e not} a decode error
    here, so it can be counted separately from corruption. *)

val read_raw : string -> string
(** Whole-file contents, undecoded — for codecs that own the container
    string themselves. Raises [Sys_error] on I/O failure. *)

val write_raw_atomic : string -> string -> unit
(** Write raw bytes to [path ^ ".tmp.<pid>"], then atomically rename
    into place — concurrent readers see either the complete old file or
    the complete new one, never a torn write. *)
