module Value = Eden_kernel.Value

type kind = Hello | Welcome | Request | Reply | Idle | Shutdown | Stats

type header = { kind : kind; flags : int; src : int; dst : int; seq : int }
type t = { hdr : header; payload : string }

let flag_oneway = 1
let flag_auth = 2 (* handshake carries the RFC-0002 auth extension *)
let flag_mac = 4 (* payload ends in an 8-byte keyed MAC trailer *)
let header_bytes = 8
let max_payload = 16 * 1024 * 1024

let err fmt =
  Printf.ksprintf (fun m -> raise (Value.Protocol_error ("wire: " ^ m))) fmt

let kind_code = function
  | Hello -> 1
  | Welcome -> 2
  | Request -> 3
  | Reply -> 4
  | Idle -> 5
  | Shutdown -> 6
  | Stats -> 7

let kind_of_code = function
  | 1 -> Hello
  | 2 -> Welcome
  | 3 -> Request
  | 4 -> Reply
  | 5 -> Idle
  | 6 -> Shutdown
  | 7 -> Stats
  | c -> err "unknown frame kind %#x" c

let kind_name = function
  | Hello -> "hello"
  | Welcome -> "welcome"
  | Request -> "request"
  | Reply -> "reply"
  | Idle -> "idle"
  | Shutdown -> "shutdown"
  | Stats -> "stats"

let make ~kind ?(flags = 0) ~src ~dst ?(seq = 0) payload =
  { hdr = { kind; flags; src; dst; seq }; payload }

let size f = 4 + header_bytes + String.length f.payload

let encode f =
  let plen = String.length f.payload in
  if plen > max_payload then invalid_arg "Frame.encode: payload exceeds max_payload";
  let len = header_bytes + plen in
  let b = Buffer.create (4 + len) in
  Buffer.add_int32_be b (Int32.of_int len);
  Buffer.add_uint8 b (kind_code f.hdr.kind);
  Buffer.add_uint8 b (f.hdr.flags land 0xFF);
  Buffer.add_uint8 b (f.hdr.src land 0xFF);
  Buffer.add_uint8 b (f.hdr.dst land 0xFF);
  Buffer.add_int32_be b (Int32.of_int (f.hdr.seq land 0xFFFFFFFF));
  Buffer.add_string b f.payload;
  Buffer.contents b

let check_len len =
  if len < header_bytes then err "frame length %d below header size %d" len header_bytes;
  if len > header_bytes + max_payload then
    err "frame length %d exceeds cap %d" len (header_bytes + max_payload)

(* The 12-byte header (length word included) is the minimum frame, so
   one read of it never takes bytes of the next frame.  [get i] is
   header byte [i]; the length is checked before anything trusts it. *)
let frame_bytes = 4 + header_bytes

let header_of ~get =
  let len = (get 0 lsl 24) lor (get 1 lsl 16) lor (get 2 lsl 8) lor get 3 in
  check_len len;
  let seq = (get 8 lsl 24) lor (get 9 lsl 16) lor (get 10 lsl 8) lor get 11 in
  ( { kind = kind_of_code (get 4); flags = get 5; src = get 6; dst = get 7; seq },
    len - header_bytes )

let decode s =
  if String.length s < frame_bytes then err "truncated frame: %d bytes" (String.length s);
  let hdr, plen = header_of ~get:(fun i -> Char.code (String.unsafe_get s i)) in
  if String.length s <> frame_bytes + plen then
    err "frame length %d disagrees with %d bytes present" (header_bytes + plen)
      (String.length s - 4);
  { hdr; payload = String.sub s frame_bytes plen }

(* Blocking IO: exactly one frame per read, no inter-frame buffering, so
   the fault-injection layer can reason frame-at-a-time, and a
   descriptor can move from these whole-frame calls to a {!conn}
   between frames (the handshake does). *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

let write fd f =
  let s = encode f in
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

let stage_header out ~kind ~flags ~src ~dst ~seq ~plen =
  if plen > max_payload then invalid_arg "Frame: payload exceeds max_payload";
  Iov.reset out;
  Iov.add_int32_be out (header_bytes + plen);
  Iov.add_uint8 out (kind_code kind);
  Iov.add_uint8 out flags;
  Iov.add_uint8 out src;
  Iov.add_uint8 out dst;
  Iov.add_int32_be out seq

let parts_size ps = 4 + header_bytes + Bin.parts_length ps
let value_size v = 4 + header_bytes + Bin.encoded_length v

let write_parts fd ~kind ?(flags = 0) ~src ~dst ?(seq = 0) ps =
  let out = Iov.create () in
  stage_header out ~kind ~flags ~src ~dst ~seq ~plen:(Bin.parts_length ps);
  List.iter
    (function Bin.Flat s -> Iov.add_string out s | Bin.Payload c -> Iov.add_chunk out c)
    ps;
  Iov.write out fd

let write_value fd ~kind ?(flags = 0) ~src ~dst ?(seq = 0) v =
  let out = Iov.create () in
  stage_header out ~kind ~flags ~src ~dst ~seq ~plen:(Bin.encoded_length v);
  Bin.gather out v;
  Iov.write out fd

(* [read pos n] reads at most [n] bytes to [pos] of some buffer. *)
let rec read_exact read pos n ~at_boundary =
  if n > 0 then begin
    let r = read pos n in
    if r = 0 then
      if at_boundary then raise End_of_file
      else err "peer closed mid-frame (%d bytes short)" n;
    read_exact read (pos + r) (n - r) ~at_boundary:false
  end

let read fd =
  let h = Bytes.create frame_bytes in
  read_exact (Unix.read fd h) 0 frame_bytes ~at_boundary:true;
  let hdr, plen = header_of ~get:(fun i -> Char.code (Bytes.unsafe_get h i)) in
  let payload = Bytes.create plen in
  read_exact (Unix.read fd payload) 0 plen ~at_boundary:false;
  { hdr; payload = Bytes.unsafe_to_string payload }

(* --- Connections: the allocation-free data path ---------------------- *)

type conn = {
  fd : Unix.file_descr;
  out : Iov.t;
  mutable rbuf : Iov.buffer;
  mutable rpos : int;  (** where the frame last received starts *)
  mutable rlen : int;  (** its payload bytes *)
  mutable rnext : int;  (** the first byte after it *)
  mutable rend : int;  (** the end of the bytes read so far *)
}

let receive_bytes = 16 * 1024

let conn fd =
  {
    fd;
    out = Iov.create ();
    rbuf = Iov.buffer receive_bytes;
    rpos = 0;
    rlen = 0;
    rnext = 0;
    rend = 0;
  }

let fd c = c.fd
let receive_capacity c = Bigarray.Array1.dim c.rbuf
let pending c = c.rend > c.rnext

(* Make [n] bytes from [rnext] readable, taking as much as the socket
   holds with each read.  Unread bytes move to the front (or into a
   larger buffer, for a frame bigger than any before) only when the
   frame would not fit in the rest of the buffer. *)
let fill c n =
  let dim = Bigarray.Array1.dim c.rbuf in
  if c.rnext + n > dim then begin
    let keep = c.rend - c.rnext in
    let into = if n > dim then Iov.buffer (max n (2 * dim)) else c.rbuf in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub c.rbuf c.rnext keep)
      (Bigarray.Array1.sub into 0 keep);
    c.rbuf <- into;
    c.rnext <- 0;
    c.rend <- keep
  end;
  while c.rend - c.rnext < n do
    let r = Iov.read c.fd c.rbuf ~pos:c.rend ~len:(Bigarray.Array1.dim c.rbuf - c.rend) in
    if r = 0 then
      if c.rend = c.rnext then raise End_of_file
      else err "peer closed mid-frame (%d bytes short)" (n - (c.rend - c.rnext));
    c.rend <- c.rend + r
  done

let recv c =
  fill c frame_bytes;
  (* The length is checked inside [header_of], before the buffer may
     grow: a hostile prefix costs nothing. *)
  let at = c.rnext in
  let hdr, plen =
    header_of ~get:(fun i -> Char.code (Bigarray.Array1.unsafe_get c.rbuf (at + i)))
  in
  fill c (frame_bytes + plen);
  c.rpos <- c.rnext;
  c.rlen <- plen;
  c.rnext <- c.rnext + frame_bytes + plen;
  hdr

let received_size c = frame_bytes + c.rlen
let received_payload c = (c.rbuf, c.rpos + frame_bytes, c.rlen)

let decode_received ?(trailer = 0) c =
  Bin.decode_buffer c.rbuf ~pos:(c.rpos + frame_bytes) ~len:(c.rlen - trailer)

let send c f =
  let h = f.hdr in
  stage_header c.out ~kind:h.kind ~flags:h.flags ~src:h.src ~dst:h.dst ~seq:h.seq
    ~plen:(String.length f.payload);
  Iov.add_string c.out f.payload;
  Iov.write c.out c.fd

let send_value c ?seal ~kind ?(flags = 0) ~src ~dst ?(seq = 0) v =
  let plen = Bin.encoded_length v in
  match seal with
  | None ->
      stage_header c.out ~kind ~flags ~src ~dst ~seq ~plen;
      Bin.gather c.out v;
      Iov.write c.out c.fd
  | Some mac ->
      let flags = flags lor flag_mac in
      stage_header c.out ~kind ~flags ~src ~dst ~seq ~plen:(plen + 8);
      let buf, pos = Iov.staged c.out plen (fun out -> Bin.gather out v) in
      Iov.add_int64_be c.out (mac { kind; flags; src; dst; seq } buf ~pos ~len:plen);
      Iov.write c.out c.fd

let relay ?trailer ~into from =
  Iov.reset into.out;
  (match trailer with
  | None -> Iov.add_slice into.out from.rbuf ~pos:from.rpos ~len:(received_size from)
  | Some mac ->
      Iov.add_slice into.out from.rbuf ~pos:from.rpos ~len:(received_size from - 8);
      Iov.add_int64_be into.out mac);
  Iov.write into.out into.fd

(* Handshake.  16-byte payload: magic u32, version u16, shard u8,
   pad u8, nonce u64 — a 28-byte frame each way. *)

let magic = 0x4544454El (* "EDEN" *)
let version = 1

let handshake_payload ~shard ~nonce =
  let b = Buffer.create 16 in
  Buffer.add_int32_be b magic;
  Buffer.add_uint16_be b version;
  Buffer.add_uint8 b (shard land 0xFF);
  Buffer.add_uint8 b 0;
  Buffer.add_int64_be b nonce;
  Buffer.contents b

let hello ~shard ~nonce =
  make ~kind:Hello ~src:shard ~dst:0 (handshake_payload ~shard ~nonce)

let welcome ~shard ~nonce =
  make ~kind:Welcome ~src:0 ~dst:shard (handshake_payload ~shard ~nonce)

let parse_handshake ~expect f =
  if f.hdr.kind <> expect then
    err "expected %s frame, got %s" (kind_name expect) (kind_name f.hdr.kind);
  let p = f.payload in
  if String.length p <> 16 then err "handshake payload %d bytes, want 16" (String.length p);
  let m = String.get_int32_be p 0 in
  if not (Int32.equal m magic) then err "bad handshake magic %#lx" m;
  let v = String.get_uint16_be p 4 in
  if v <> version then err "protocol version %d, want %d" v version;
  let shard = Char.code p.[6] in
  let nonce = String.get_int64_be p 8 in
  (shard, nonce)
