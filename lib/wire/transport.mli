(** Socket plumbing for the multi-process cluster.

    Two interchangeable byte transports: a Unix-domain socket in the
    temp directory, and TCP on the loopback interface with an
    OS-assigned port (NODELAY set — frames are small and latency is
    the experiment).  The hub listens, each leaf dials.  Both sides
    get a blocking [file_descr] to drive with {!Frame.read}/
    {!Frame.write} or wrap in a {!Frame.conn}. *)

type kind = Unix_socket | Tcp

val kind_name : kind -> string
(** ["unix"] / ["tcp"]. *)

type server

val listen : kind -> server
val accept : server -> Unix.file_descr

val accept_within : server -> float -> Unix.file_descr option
(** [accept] if a connection arrives within the timeout (seconds). *)

val dial : server -> Unix.file_descr
(** Connect to [server]'s address; usable after [fork] in the child. *)

val close_server : server -> unit
(** Close the listening socket and unlink the Unix-socket path. *)
