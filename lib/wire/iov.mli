(** Gather lists: one frame's bytes, written with one [writev].

    Flat bytes (frame headers, codec tags and lengths, small values)
    are staged into a Bigarray that the list keeps and reuses across
    frames; payload slices (chunk segments, a receive buffer being
    relayed) are queued by reference and never copied.  Every segment
    lives in a Bigarray, whose data the GC never moves, so the syscall
    runs without the runtime lock.

    Typical use per frame: {!reset}, the [add_*] calls, {!write}. *)

type buffer = Eden_chunk.Chunk.buffer

type t

val create : unit -> t

val reset : t -> unit
(** Forget every queued segment (and the references they hold). *)

val length : t -> int
(** Bytes queued since the last {!reset}. *)

val add_uint8 : t -> int -> unit

val add_int32_be : t -> int -> unit
(** The low 32 bits, big-endian. *)

val add_int64_be : t -> int64 -> unit
val add_string : t -> string -> unit

val add_slice : t -> buffer -> pos:int -> len:int -> unit
(** Queue [buf[pos, pos+len)] by reference; the caller keeps it intact
    until {!write} returns.  Slices of at most 128 bytes are staged
    instead: an iovec entry costs more than copying them. *)

val staged : t -> int -> (t -> unit) -> buffer * int
(** [staged t n fill] runs [fill t], which must add exactly [n] bytes,
    with all of them staged contiguously — slices are copied too — and
    returns where they start, so the caller can read them in place (to
    MAC a sealed payload) before {!write}. *)

val add_chunk : t -> Eden_chunk.Chunk.t -> unit
(** {!add_slice} of every segment of the chunk, in stream order.
    @raise Eden_chunk.Chunk.Fault on a released chunk. *)

val write : t -> Unix.file_descr -> unit
(** Write everything queued, in order, then {!reset}.  Handles short
    writes, and waits for writability on a non-blocking descriptor. *)

val read : Unix.file_descr -> buffer -> pos:int -> len:int -> int
(** One [read] straight into [buf[pos, pos+len)]; 0 at end of file. *)

val buffer : int -> buffer
(** A fresh, uninitialised buffer. *)

val sub_string : buffer -> pos:int -> len:int -> string
(** A copy of [buf[pos, pos+len)]. *)
