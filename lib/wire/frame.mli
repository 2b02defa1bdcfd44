(** Length-prefixed wire frames.

    Layout (all integers big-endian), modeled on the ASoc RFC-0001
    framing (tiny fixed header, length first so a reader can always
    take exactly one frame off the socket):

    {v
    +--------+------+-------+-----+-----+--------+=========+
    | len:u32| kind | flags | src | dst | seq:u32| payload |
    +--------+------+-------+-----+-----+--------+=========+
        4       1      1      1     1       4      len - 8
    v}

    [len] counts every byte after the length word itself (header tail +
    payload), so the minimum frame is 12 bytes on the wire.  [src] and
    [dst] are shard indices — the hub (shard 0) routes leaf-to-leaf
    frames by [dst].  [seq] carries the request id for [Request]/[Reply]
    and a sender sequence number for one-way traffic.

    The handshake is two 28-byte frames: the leaf sends [Hello]
    (magic, protocol version, shard index, run nonce), the hub answers
    [Welcome] echoing the nonce.  A version or magic mismatch is a
    [Value.Protocol_error], not a hang.

    Every decoder error path — truncated header, hostile length, unknown
    kind, short handshake — raises [Value.Protocol_error]. *)

module Value = Eden_kernel.Value

type kind = Hello | Welcome | Request | Reply | Idle | Shutdown | Stats

val kind_name : kind -> string

val kind_code : kind -> int
(** The wire byte for the kind — also what {!Auth} MACs cover, so a
    frame cannot be replayed as a different kind. *)

type header = { kind : kind; flags : int; src : int; dst : int; seq : int }
type t = { hdr : header; payload : string }

val flag_oneway : int
(** Flag bit 0: set on [Request] frames that expect no [Reply]. *)

val flag_auth : int
(** Flag bit 1: a [Hello]/[Welcome] carrying the {!Auth} three-layer
    extension (community id, keyed MAC, session token) after the
    16-byte base handshake payload. *)

val flag_mac : int
(** Flag bit 2: the payload ends in an 8-byte keyed MAC trailer sealed
    by {!Auth.seal}; strip with {!Auth.open_} before parsing. *)

val header_bytes : int
(** Bytes of header after the length word (8). *)

val max_payload : int
(** Hard cap on payload bytes (16 MiB); a length prefix above
    [header_bytes + max_payload] is rejected before any allocation. *)

val make : kind:kind -> ?flags:int -> src:int -> dst:int -> ?seq:int -> string -> t
val size : t -> int
(** Total bytes on the wire including the length word. *)

val encode : t -> string

val decode : string -> t
(** Decode exactly one whole frame (length word included).
    @raise Value.Protocol_error on any malformation. *)

(** {1 Blocking socket IO, one whole frame per call}

    These move a {!t} and allocate per frame; the data path uses
    {!conn} below.  Neither side buffers past a frame boundary, so a
    descriptor can switch from these calls to a {!conn} between frames
    (the handshake runs on them). *)

val write : Unix.file_descr -> t -> unit
(** Write one whole frame; handles short writes. *)

val write_parts :
  Unix.file_descr ->
  kind:kind ->
  ?flags:int ->
  src:int ->
  dst:int ->
  ?seq:int ->
  Bin.part list ->
  unit
(** Gather send of a frame whose payload is a {!Bin.parts} list: one
    [writev] ({!Iov}) in which the flat framing strings are staged and
    each chunk payload is read by the kernel in place, with no
    userspace copy.  Byte-identical on the wire to
    [write (make ... (String.concat "" parts))]. *)

val write_value :
  Unix.file_descr ->
  kind:kind ->
  ?flags:int ->
  src:int ->
  dst:int ->
  ?seq:int ->
  Value.t ->
  unit
(** One frame carrying one value, gathered like {!write_parts}: no
    copy of any chunk payload. *)

val parts_size : Bin.part list -> int
(** Total wire bytes (length word included) [write_parts] will emit for
    this payload — what the fault layer and meters charge for it. *)

val value_size : Value.t -> int
(** Total wire bytes of the frame {!write_value} or {!send_value}
    emits for this value: [size (make ... (Bin.encode v))]. *)

val read : Unix.file_descr -> t
(** Read exactly one frame: the 12-byte header in one read, then the
    payload.
    @raise End_of_file on a clean close at a frame boundary.
    @raise Value.Protocol_error on a mid-frame close or malformed
    header; a hostile length is rejected before any payload
    allocation. *)

(** {1 Connections: the allocation-free data path}

    A [conn] owns a reusable gather list for sending and a reusable
    receive buffer.  Steady state, neither direction allocates
    payload-sized memory: a frame goes out as one [writev] with chunk
    payloads read in place, and comes in through the receive buffer,
    each read taking as much as the socket holds — small frames arrive
    several to a syscall — and the buffer growing only for a frame
    larger than any before it.  A payload is decoded straight from the
    receive buffer, which also lets a router pass a frame on untouched
    ({!relay}).  Once a descriptor is wrapped, read it only through its
    [conn]: bytes of later frames may already sit in the buffer. *)

type conn

val conn : Unix.file_descr -> conn
val fd : conn -> Unix.file_descr

val recv : conn -> header
(** The next frame, from the receive buffer or the socket; it replaces
    the previous one, whose payload must not be used after this.
    Errors as {!read}; the length is checked before the buffer may
    grow. *)

val pending : conn -> bool
(** Bytes of a further frame are already buffered, so {!recv} returns
    without waiting for the socket to become readable — a [select] on
    the descriptor would not see them. *)

val received_size : conn -> int
(** Wire bytes of the frame last received (length word included). *)

val received_payload : conn -> Iov.buffer * int * int
(** [(buf, pos, len)]: where the payload last received lies, for a
    reader that checks it in place (a MAC, say).  Valid until the next
    {!recv}. *)

val decode_received : ?trailer:int -> conn -> Value.t
(** {!Bin.decode_buffer} of the payload last received, less its last
    [trailer] bytes (default 0). *)

val receive_capacity : conn -> int
(** Current size of the receive buffer. *)

val send : conn -> t -> unit
(** One whole frame, staged and written with one [writev]. *)

val send_value :
  conn ->
  ?seal:(header -> Iov.buffer -> pos:int -> len:int -> int64) ->
  kind:kind ->
  ?flags:int ->
  src:int ->
  dst:int ->
  ?seq:int ->
  Value.t ->
  unit
(** One frame carrying one value, byte-identical to
    [send c (make ... (Bin.encode v))], with chunk payloads read by
    the kernel in place.  The caller still owns the chunks.

    With [seal], the payload is staged contiguously instead (chunk
    bytes copied once), [seal] computes an 8-byte trailer over it in
    place — given the header as sent, [flag_mac] set — and the frame
    goes out with [flag_mac] and the trailer appended ({!Auth}). *)

val relay : ?trailer:int64 -> into:conn -> conn -> unit
(** Write the frame last received on [from], header unchanged, to
    [into] straight from [from]'s receive buffer.  With [trailer], its
    last 8 bytes are replaced by the given ones (a MAC re-sealed for
    the next link). *)

(** {1 Handshake} *)

val magic : int32
val version : int

val hello : shard:int -> nonce:int64 -> t
val welcome : shard:int -> nonce:int64 -> t

val parse_handshake : expect:kind -> t -> int * int64
(** Validate a [Hello]/[Welcome] frame; returns (shard, nonce).
    @raise Value.Protocol_error on wrong kind, magic, version, or a
    short payload. *)
