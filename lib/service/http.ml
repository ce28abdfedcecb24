(* Minimal HTTP/1.1, just enough for the gateway's front door and for
   crnsim/bench to speak to it: an incremental server-side request
   parser (method + path + headers + Content-Length body), response
   serializers (fixed-length and chunked), and a blocking client.

   The JSON payloads themselves are exactly the wire protocol's frame
   payloads — HTTP here is an alternative framing, not an alternative
   protocol, which is what keeps gateway responses byte-identical to
   direct daemon responses. *)

exception Bad_request of string

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;  (* keys lowercased *)
  body : string;
}

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

(* ------------------------------------------------- server-side parsing *)

type reader = {
  rbuf : Buffer.t;
  max_body : int;
  mutable pending : (string * string * (string * string) list * int) option;
      (* parsed request line + headers waiting for [int] body bytes *)
}

let reader ?(max_body = 8 * 1024 * 1024) () =
  { rbuf = Buffer.create 4096; max_body; pending = None }

let feed r bytes n = Buffer.add_subbytes r.rbuf bytes 0 n
let buffered r = Buffer.length r.rbuf

let split_header line =
  match String.index_opt line ':' with
  | None -> raise (Bad_request (Printf.sprintf "malformed header %S" line))
  | Some i ->
      ( String.lowercase_ascii (String.sub line 0 i),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> raise (Bad_request "empty request head")
  | request_line :: header_lines -> (
      let strip s =
        if String.length s > 0 && s.[String.length s - 1] = '\r' then
          String.sub s 0 (String.length s - 1)
        else s
      in
      match String.split_on_char ' ' (strip request_line) with
      | [ meth; path; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
          let headers =
            List.filter_map
              (fun l ->
                let l = strip l in
                if l = "" then None else Some (split_header l))
              header_lines
          in
          (meth, path, headers)
      | _ ->
          raise
            (Bad_request
               (Printf.sprintf "malformed request line %S" request_line)))

(* index of "\r\n\r\n" in the buffered bytes, or None *)
let head_end buf =
  let s = Buffer.contents buf in
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let consume r n =
  let s = Buffer.contents r.rbuf in
  Buffer.clear r.rbuf;
  Buffer.add_substring r.rbuf s n (String.length s - n)

let next_request r =
  (match r.pending with
  | Some _ -> ()
  | None -> (
      match head_end r.rbuf with
      | None ->
          if Buffer.length r.rbuf > r.max_body then
            raise (Bad_request "request head too large")
      | Some i ->
          let meth, path, headers =
            parse_head (String.sub (Buffer.contents r.rbuf) 0 i)
          in
          let len =
            match List.assoc_opt "content-length" headers with
            | None -> 0
            | Some v -> (
                match int_of_string_opt (String.trim v) with
                | Some n when n >= 0 -> n
                | _ -> raise (Bad_request "bad Content-Length"))
          in
          if len > r.max_body then
            raise
              (Bad_request
                 (Printf.sprintf "body length %d exceeds the %d-byte limit"
                    len r.max_body));
          consume r (i + 4);
          r.pending <- Some (meth, path, headers, len)));
  match r.pending with
  | Some (meth, path, headers, len) when Buffer.length r.rbuf >= len ->
      let body = String.sub (Buffer.contents r.rbuf) 0 len in
      consume r len;
      r.pending <- None;
      Some { meth; path; headers; body }
  | _ -> None

(* --------------------------------------------------------- serializing *)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 422 -> "Unprocessable Entity"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

let render_headers b headers =
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers

let response ?(headers = []) ~status ~content_type body =
  let b = Buffer.create (String.length body + 256) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  render_headers b
    ([
       ("Content-Type", content_type);
       ("Content-Length", string_of_int (String.length body));
     ]
    @ headers);
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

let chunked_head ?(headers = []) ~status ~content_type () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  render_headers b
    ([ ("Content-Type", content_type); ("Transfer-Encoding", "chunked") ]
    @ headers);
  Buffer.add_string b "\r\n";
  Buffer.contents b

let chunk payload =
  Printf.sprintf "%x\r\n%s\r\n" (String.length payload) payload

let last_chunk = "0\r\n\r\n"

(* ------------------------------------------------------ blocking client *)

(* a tiny buffered input channel over a raw fd: Unix errors (including
   the EAGAIN of an armed SO_RCVTIMEO) propagate to the caller, EOF
   raises End_of_file *)
type ic = {
  fd : Unix.file_descr;
  ibuf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable total : int;  (* bytes ever read; lets a client tell "no
                           response bytes yet" (retryable) from "died
                           mid-response" (not) *)
}

let ic_of_fd fd = { fd; ibuf = Bytes.create 16384; pos = 0; len = 0; total = 0 }

let total_read ic = ic.total

let refill ic =
  let n = Unix.read ic.fd ic.ibuf 0 (Bytes.length ic.ibuf) in
  if n = 0 then raise End_of_file;
  ic.pos <- 0;
  ic.len <- n;
  ic.total <- ic.total + n

let read_byte ic =
  if ic.pos >= ic.len then refill ic;
  let c = Bytes.get ic.ibuf ic.pos in
  ic.pos <- ic.pos + 1;
  c

let read_line ic =
  let b = Buffer.create 128 in
  let rec go () =
    match read_byte ic with
    | '\n' -> Buffer.contents b
    | '\r' -> go ()
    | c ->
        Buffer.add_char b c;
        go ()
  in
  go ()

let read_exact ic n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if ic.pos >= ic.len then refill ic;
    let take = min (n - !filled) (ic.len - ic.pos) in
    Bytes.blit ic.ibuf ic.pos out !filled take;
    ic.pos <- ic.pos + take;
    filled := !filled + take
  done;
  Bytes.to_string out

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let write_request fd ?(meth = "POST") ~host ~path body =
  let head =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n\
       Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
      meth path host (String.length body)
  in
  write_all fd (head ^ body)

exception Bad_response of string

let read_status_headers ic =
  let status_line = read_line ic in
  let status =
    match String.split_on_char ' ' status_line with
    | _http :: code :: _ -> (
        match int_of_string_opt code with
        | Some s -> s
        | None -> raise (Bad_response ("bad status line: " ^ status_line)))
    | _ -> raise (Bad_response ("bad status line: " ^ status_line))
  in
  let rec headers acc =
    match read_line ic with
    | "" -> List.rev acc
    | line -> headers (split_header line :: acc)
  in
  (status, headers [])

let chunked headers =
  match List.assoc_opt "transfer-encoding" headers with
  | Some v -> String.lowercase_ascii (String.trim v) = "chunked"
  | None -> false

let read_chunk ic =
  let size_line = read_line ic in
  let size_line =
    match String.index_opt size_line ';' with
    | Some i -> String.sub size_line 0 i (* drop chunk extensions *)
    | None -> size_line
  in
  match int_of_string_opt ("0x" ^ String.trim size_line) with
  | None -> raise (Bad_response ("bad chunk size: " ^ size_line))
  | Some 0 ->
      let _trailer = read_line ic in
      None
  | Some n ->
      let data = read_exact ic n in
      let _crlf = read_line ic in
      Some data

let read_body ic headers =
  if chunked headers then begin
    let b = Buffer.create 4096 in
    let rec go () =
      match read_chunk ic with
      | Some data ->
          Buffer.add_string b data;
          go ()
      | None -> Buffer.contents b
    in
    go ()
  end
  else
    match List.assoc_opt "content-length" headers with
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 -> read_exact ic n
        | _ -> raise (Bad_response "bad Content-Length"))
    | None -> raise (Bad_response "response has no length")
