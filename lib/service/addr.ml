(* Service addresses: a Unix-domain socket path, a TCP host:port, or an
   HTTP endpoint (TCP transport, HTTP/1.1 framing instead of the wire
   protocol — the gateway's front door). *)

type t = Unix_sock of string | Tcp of string * int | Http of string * int

let to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Http (host, port) -> Printf.sprintf "http://%s:%d" host port

let host_port s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port > 0 && port < 65536 -> Some (host, port)
      | _ -> None)
  | None -> None

let of_string s =
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if String.length s > 0 && (s.[0] = '/' || s.[0] = '.') then
    Ok (Unix_sock s)
  else if String.length s > 7 && String.sub s 0 7 = "http://" then begin
    let rest = String.sub s 7 (String.length s - 7) in
    let rest =
      match String.index_opt rest '/' with
      | Some i -> String.sub rest 0 i (* tolerate a trailing "/" or path *)
      | None -> rest
    in
    match host_port rest with
    | Some (host, port) -> Ok (Http (host, port))
    | None -> (
        match rest with
        | "" -> Error (Printf.sprintf "bad address %S" s)
        | host -> Ok (Http (host, 80)))
  end
  else
    match host_port s with
    | Some (host, port) -> Ok (Tcp (host, port))
    | None ->
        Error
          (Printf.sprintf
             "bad address %S (expected unix:PATH, /PATH, HOST:PORT, or \
              http://HOST:PORT)" s)

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve host %S" host))

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) | Http (host, port) -> Unix.ADDR_INET (resolve host, port)

let domain = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ | Http _ -> Unix.PF_INET

let connect addr =
  let fd = Unix.socket ~cloexec:true (domain addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr addr)
   with e ->
     Unix.close fd;
     raise e);
  (match addr with
  | Tcp _ | Http _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
  | Unix_sock _ -> ());
  fd

let listen ?(backlog = 64) addr =
  (match addr with
  | Unix_sock path ->
      (* a stale socket file from a previous run would make bind fail *)
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | Tcp _ | Http _ -> ());
  let fd = Unix.socket ~cloexec:true (domain addr) Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Tcp _ | Http _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (sockaddr addr);
     Unix.listen fd backlog
   with e ->
     Unix.close fd;
     raise e);
  fd

let cleanup = function
  | Unix_sock path -> ( try Unix.unlink path with _ -> ())
  | Tcp _ | Http _ -> ()
