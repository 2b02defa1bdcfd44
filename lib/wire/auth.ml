module Value = Eden_kernel.Value

let err fmt = Printf.ksprintf (fun m -> raise (Value.Protocol_error ("auth: " ^ m))) fmt

(* --- SipHash-2-4 ---------------------------------------------------- *)

(* Every frame on an authenticated link pays one MAC over its whole
   payload on each side, and the hub two more when it relays, so the
   compression loop is C (wire_stubs.c): unboxed 64-bit lanes, no
   allocation, no per-byte bounds checks. *)
external sip : string -> string -> string -> int -> int -> (int64[@unboxed])
  = "eden_wire_siphash_byte" "eden_wire_siphash"
  [@@noalloc]

(* The same loop over a Bigarray slice: a payload in a receive buffer
   or a connection's stage, hashed where it lies. *)
external sip_buffer :
  string -> string -> Iov.buffer -> int -> int -> (int64[@unboxed])
  = "eden_wire_siphash_byte" "eden_wire_siphash"
  [@@noalloc]

let check_key key =
  if String.length key <> 16 then invalid_arg "Auth.siphash: key must be 16 bytes"

let siphash ~key msg =
  check_key key;
  sip key "" msg 0 (String.length msg)

(* --- Communities ---------------------------------------------------- *)

type community = { id : int64; key : string }

let community ~id ~key =
  if String.length key <> 16 then invalid_arg "Auth.community: key must be 16 bytes";
  { id; key }

(* --- Handshake ------------------------------------------------------ *)

(* Authenticated handshake payload, 40 bytes: the 16-byte base
   (magic u32, version u16, shard u8, pad, nonce u64), then
   community id u64, session token u64, MAC u64.  The MAC covers the
   frame kind and routing bytes plus everything before itself, under
   the community key — layer 2 sealing layers 1 and 3. *)

let auth_payload_bytes = 40

let handshake_mac c ~kind ~src ~dst body32 =
  let b = Buffer.create 36 in
  Buffer.add_uint8 b (Frame.kind_code kind);
  Buffer.add_uint8 b (src land 0xFF);
  Buffer.add_uint8 b (dst land 0xFF);
  Buffer.add_string b body32;
  siphash ~key:c.key (Buffer.contents b)

let handshake c ~kind ~src ~dst ~shard ~nonce ~token =
  let b = Buffer.create auth_payload_bytes in
  Buffer.add_int32_be b Frame.magic;
  Buffer.add_uint16_be b Frame.version;
  Buffer.add_uint8 b (shard land 0xFF);
  Buffer.add_uint8 b 0;
  Buffer.add_int64_be b nonce;
  Buffer.add_int64_be b c.id;
  Buffer.add_int64_be b token;
  let body32 = Buffer.contents b in
  Buffer.add_int64_be b (handshake_mac c ~kind ~src ~dst body32);
  Frame.make ~kind ~flags:Frame.flag_auth ~src ~dst (Buffer.contents b)

let hello c ~shard ~nonce =
  handshake c ~kind:Frame.Hello ~src:shard ~dst:0 ~shard ~nonce ~token:0L

let welcome c ~shard ~nonce ~token =
  handshake c ~kind:Frame.Welcome ~src:0 ~dst:shard ~shard ~nonce ~token

let mint_token c ~shard ~nonce =
  let b = Buffer.create 17 in
  Buffer.add_string b "session.";
  Buffer.add_uint8 b (shard land 0xFF);
  Buffer.add_int64_be b nonce;
  siphash ~key:c.key (Buffer.contents b)

(* Shared field parse for both directions; every failure is a result,
   never an exception — a hostile handshake must not crash the shard. *)
let parse_auth_handshake ~expect f =
  let { Frame.kind; flags; src; dst; seq = _ } = f.Frame.hdr in
  let p = f.Frame.payload in
  if kind <> expect then Error (Printf.sprintf "expected %s frame" (Frame.kind_name expect))
  else if flags land Frame.flag_auth = 0 then Error "unauthenticated handshake"
  else if String.length p <> auth_payload_bytes then
    Error (Printf.sprintf "auth handshake payload %d bytes, want %d" (String.length p)
             auth_payload_bytes)
  else if not (Int32.equal (String.get_int32_be p 0) Frame.magic) then Error "bad magic"
  else if String.get_uint16_be p 4 <> Frame.version then Error "bad version"
  else
    let shard = Char.code p.[6] in
    let nonce = String.get_int64_be p 8 in
    let cid = String.get_int64_be p 16 in
    let token = String.get_int64_be p 24 in
    let mac = String.get_int64_be p 32 in
    Ok (src, dst, shard, nonce, cid, token, mac, String.sub p 0 32)

let verify_hello ~lookup f =
  match parse_auth_handshake ~expect:Frame.Hello f with
  | Error _ as e -> e
  | Ok (src, dst, shard, nonce, cid, _token, mac, body32) -> (
      match lookup cid with
      | None -> Error (Printf.sprintf "unknown community %Ld" cid)
      | Some c ->
          if not (Int64.equal mac (handshake_mac c ~kind:Frame.Hello ~src ~dst body32))
          then Error "hello MAC mismatch"
          else Ok (shard, nonce, c))

let verify_welcome c ~expect_nonce f =
  match parse_auth_handshake ~expect:Frame.Welcome f with
  | Error _ as e -> e
  | Ok (src, dst, _shard, nonce, cid, token, mac, body32) ->
      if not (Int64.equal cid c.id) then Error "welcome for another community"
      else if not (Int64.equal mac (handshake_mac c ~kind:Frame.Welcome ~src ~dst body32))
      then Error "welcome MAC mismatch"
      else if not (Int64.equal nonce expect_nonce) then Error "welcome nonce mismatch"
      else Ok token

(* --- Data-frame sealing --------------------------------------------- *)

type session = {
  skey : string;
  token : int64;
  mutable send_ctr : int;
  mutable recv_ctr : int;
}

let session c ~token = { skey = c.key; token; send_ctr = 0; recv_ctr = 0 }
let sent s = s.send_ctr
let received s = s.recv_ctr

(* 24-byte prefix (a whole number of sip words), so the payload is
   hashed in place rather than copied into a scratch buffer.  [h] is the
   header without [flag_mac]. *)
let mac_prefix s ~ctr (h : Frame.header) =
  let b = Bytes.create 24 in
  Bytes.set_int64_be b 0 s.token;
  Bytes.set_int64_be b 8 (Int64.of_int ctr);
  Bytes.set_uint8 b 16 (Frame.kind_code h.kind);
  Bytes.set_uint8 b 17 (h.flags land lnot Frame.flag_mac land 0xFF);
  Bytes.set_uint8 b 18 (h.src land 0xFF);
  Bytes.set_uint8 b 19 (h.dst land 0xFF);
  Bytes.set_int32_be b 20 (Int32.of_int h.seq);
  Bytes.unsafe_to_string b

let frame_mac s ~ctr (f : Frame.t) =
  let p = f.Frame.payload in
  sip s.skey (mac_prefix s ~ctr f.Frame.hdr) p 0 (String.length p)

let buffer_mac s ~ctr h buf ~pos ~len = sip_buffer s.skey (mac_prefix s ~ctr h) buf pos len

let next_send s =
  let c = s.send_ctr in
  s.send_ctr <- c + 1;
  c

let seal s f =
  let mac = frame_mac s ~ctr:(next_send s) f in
  let plen = String.length f.Frame.payload in
  let b = Bytes.create (plen + 8) in
  Bytes.blit_string f.Frame.payload 0 b 0 plen;
  Bytes.set_int64_be b plen mac;
  {
    Frame.hdr = { f.Frame.hdr with flags = f.Frame.hdr.flags lor Frame.flag_mac };
    payload = Bytes.unsafe_to_string b;
  }

let replay_window = 64

(* [mac_at ctr] is the MAC the frame would carry under counter [ctr]. *)
let accept s ~mac mac_at =
  if Int64.equal mac (mac_at s.recv_ctr) then s.recv_ctr <- s.recv_ctr + 1
  else begin
    (* Distinguish a replay (MAC good under an earlier counter) from
       corruption or forgery: the meters and the operator want to know. *)
    let lo = max 0 (s.recv_ctr - replay_window) in
    let rec scan c =
      if c >= s.recv_ctr then err "frame MAC mismatch"
      else if Int64.equal mac (mac_at c) then
        err "replayed frame (counter %d, expected %d)" c s.recv_ctr
      else scan (c + 1)
    in
    scan lo
  end

let check_sealed (h : Frame.header) plen =
  if h.flags land Frame.flag_mac = 0 then err "unsealed frame on an authenticated link";
  if plen < 8 then err "sealed frame too short for its MAC trailer";
  { h with flags = h.flags land lnot Frame.flag_mac }

let open_ s f =
  let plen = String.length f.Frame.payload in
  let hdr = check_sealed f.Frame.hdr plen in
  let stripped = { Frame.hdr; payload = String.sub f.Frame.payload 0 (plen - 8) } in
  accept s ~mac:(String.get_int64_be f.Frame.payload (plen - 8)) (fun ctr ->
      frame_mac s ~ctr stripped);
  stripped

(* --- The data path on a {!Frame.conn}: MACs computed in place -------- *)

let send_value s conn ~kind ~src ~dst ~seq v =
  Frame.send_value conn ~kind ~src ~dst ~seq v ~seal:(fun h buf ~pos ~len ->
      buffer_mac s ~ctr:(next_send s) h buf ~pos ~len)

let get_int64_be buf i =
  let byte k = Int64.of_int (Char.code (Bigarray.Array1.get buf (i + k))) in
  let r = ref 0L in
  for k = 0 to 7 do
    r := Int64.logor (Int64.shift_left !r 8) (byte k)
  done;
  !r

let verify_received s conn h =
  let buf, pos, plen = Frame.received_payload conn in
  let hdr = check_sealed h plen in
  let len = plen - 8 in
  accept s ~mac:(get_int64_be buf (pos + len)) (fun ctr ->
      buffer_mac s ~ctr hdr buf ~pos ~len);
  hdr

let relay s h ~into from =
  let buf, pos, plen = Frame.received_payload from in
  let mac = buffer_mac s ~ctr:(next_send s) h buf ~pos ~len:(plen - 8) in
  Frame.relay ~into from ~trailer:mac
