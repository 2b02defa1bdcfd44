type kind = Unix_socket | Tcp

let kind_name = function Unix_socket -> "unix" | Tcp -> "tcp"

type server = { kind : kind; fd : Unix.file_descr; addr : Unix.sockaddr }

let tune kind fd =
  match kind with
  | Tcp -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | Unix_socket -> ()

let listen kind =
  match kind with
  | Unix_socket ->
      (* temp_file reserves a unique name; bind wants the path free. *)
      let path = Filename.temp_file "eden-wire-" ".sock" in
      Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16;
      { kind; fd; addr = Unix.ADDR_UNIX path }
  | Tcp ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd 16;
      { kind; fd; addr = Unix.getsockname fd }

let accept s =
  let fd, _ = Unix.accept s.fd in
  tune s.kind fd;
  fd

let accept_within s timeout =
  match Unix.select [ s.fd ] [] [] timeout with
  | [], _, _ -> None
  | _ -> Some (accept s)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

let dial s =
  let domain = match s.kind with Unix_socket -> Unix.PF_UNIX | Tcp -> Unix.PF_INET in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd s.addr;
  tune s.kind fd;
  fd

let close_server s =
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  match s.addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ()
