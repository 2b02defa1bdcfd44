module Value = Eden_kernel.Value
module Uid = Eden_kernel.Uid
module Chunk = Eden_chunk.Chunk

let max_depth = 200

(* Tags.  One byte each; sizes chosen so [String.length (encode v) =
   Value.size v + tags], keeping the simulated cost model honest. *)
let tag_unit = 0x00
let tag_bool = 0x01
let tag_int = 0x02
let tag_float = 0x03
let tag_str = 0x04
let tag_uid = 0x05
let tag_list = 0x06
let tag_chunk = 0x07

let err fmt =
  Printf.ksprintf (fun m -> raise (Value.Protocol_error ("wire: " ^ m))) fmt

(* One encoder, three sinks: a flat [Buffer], a gather list whose
   chunk payloads stay references ({!Iov}), and the [parts] list. *)
module type SINK = sig
  type t

  val u8 : t -> int -> unit
  val i32 : t -> int -> unit
  val i64 : t -> int64 -> unit
  val str : t -> string -> unit
  val chunk : t -> Chunk.t -> unit
end

module Encoder (S : SINK) = struct
  let rec value b v =
    match v with
    | Value.Unit -> S.u8 b tag_unit
    | Value.Bool x ->
        S.u8 b tag_bool;
        S.u8 b (if x then 1 else 0)
    | Value.Int n ->
        S.u8 b tag_int;
        S.i64 b (Int64.of_int n)
    | Value.Float f ->
        S.u8 b tag_float;
        S.i64 b (Int64.bits_of_float f)
    | Value.Str s ->
        if String.length s > 0x3FFFFFFF then invalid_arg "Bin.encode: string too long";
        S.u8 b tag_str;
        S.i32 b (String.length s);
        S.str b s
    | Value.Uid u ->
        let tag, serial = Uid.to_wire u in
        S.u8 b tag_uid;
        S.i64 b tag;
        S.i64 b (Int64.of_int serial)
    | Value.List vs ->
        if List.compare_length_with vs 0x3FFFFFFF > 0 then
          invalid_arg "Bin.encode: list too long";
        S.u8 b tag_list;
        S.i32 b (List.length vs);
        List.iter (value b) vs
    | Value.Chunk c ->
        let len = Chunk.length c in
        if len > 0x3FFFFFFF then invalid_arg "Bin.encode: chunk too long";
        S.u8 b tag_chunk;
        S.i32 b len;
        S.chunk b c
end

module To_buffer = Encoder (struct
  type t = Buffer.t

  let u8 = Buffer.add_uint8
  let i32 b x = Buffer.add_int32_be b (Int32.of_int x)
  let i64 = Buffer.add_int64_be
  let str = Buffer.add_string
  let chunk b c = Buffer.add_string b (Chunk.to_string c)
end)

module To_iov = Encoder (struct
  type t = Iov.t

  let u8 = Iov.add_uint8
  let i32 = Iov.add_int32_be
  let i64 = Iov.add_int64_be
  let str = Iov.add_string
  let chunk = Iov.add_chunk
end)

let to_buffer = To_buffer.value
let gather = To_iov.value

let encode v =
  let b = Buffer.create 64 in
  to_buffer b v;
  Buffer.contents b

let rec encoded_length = function
  | Value.Unit -> 1
  | Value.Bool _ -> 2
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 5 + String.length s
  | Value.Uid _ -> 17
  | Value.Chunk c -> 5 + Chunk.length c
  | Value.List vs -> List.fold_left (fun acc v -> acc + encoded_length v) 5 vs

(* The gather-encoding of a value as a list: header bytes as flat
   strings, chunk payloads as live references. *)

type part = Flat of string | Payload of Chunk.t

let part_length = function
  | Flat s -> String.length s
  | Payload c -> Chunk.length c

let parts_length ps = List.fold_left (fun acc p -> acc + part_length p) 0 ps

type parts_sink = { flat : Buffer.t; mutable acc : part list }

module To_parts = Encoder (struct
  type t = parts_sink

  let u8 p = Buffer.add_uint8 p.flat
  let i32 p x = Buffer.add_int32_be p.flat (Int32.of_int x)
  let i64 p = Buffer.add_int64_be p.flat
  let str p = Buffer.add_string p.flat

  let chunk p c =
    p.acc <- Payload c :: Flat (Buffer.contents p.flat) :: p.acc;
    Buffer.clear p.flat
end)

let parts v =
  let p = { flat = Buffer.create 64; acc = [] } in
  To_parts.value p v;
  List.rev
    (List.filter
       (function Flat "" -> false | _ -> true)
       (Flat (Buffer.contents p.flat) :: p.acc))

(* Decoding: an explicit cursor over an immutable string or a
   Bigarray view.  Every read checks the remaining byte count first;
   lengths and list counts are additionally bounded by the remaining
   bytes so a hostile header can never trigger a large allocation (a
   list element costs >= 1 byte, a string byte costs 1). *)

type src = String_src of string | Buffer_src of Chunk.buffer
type cursor = { src : src; mutable pos : int; limit : int }

let need c n what =
  if c.limit - c.pos < n then
    err "truncated %s: need %d bytes, have %d" what n (c.limit - c.pos)

let byte c i =
  match c.src with
  | String_src s -> Char.code (String.unsafe_get s i)
  | Buffer_src b -> Char.code (Bigarray.Array1.unsafe_get b i)

let u8 c what =
  need c 1 what;
  let x = byte c c.pos in
  c.pos <- c.pos + 1;
  x

let u32 c what =
  need c 4 what;
  let p = c.pos in
  c.pos <- p + 4;
  (byte c p lsl 24) lor (byte c (p + 1) lsl 16) lor (byte c (p + 2) lsl 8) lor byte c (p + 3)

let i64 c what =
  need c 8 what;
  let hi = u32 c what in
  let lo = u32 c what in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

(* [len] payload bytes, already checked against the remaining bytes. *)
let take_string c len =
  let s =
    match c.src with
    | String_src s -> String.sub s c.pos len
    | Buffer_src b -> Iov.sub_string b ~pos:c.pos ~len
  in
  c.pos <- c.pos + len;
  s

let take_chunk c len =
  let ch =
    match c.src with
    | String_src s -> Chunk.of_substring s ~pos:c.pos ~len
    | Buffer_src b -> Chunk.of_buffer b ~pos:c.pos ~len
  in
  c.pos <- c.pos + len;
  ch

let rec value c depth =
  if depth > max_depth then err "nesting exceeds depth %d" max_depth;
  let tag = u8 c "tag" in
  if tag = tag_unit then Value.Unit
  else if tag = tag_bool then
    match u8 c "bool" with
    | 0 -> Value.Bool false
    | 1 -> Value.Bool true
    | b -> err "bool byte %#x" b
  else if tag = tag_int then begin
    let n = i64 c "int" in
    if Int64.compare n (Int64.of_int max_int) > 0
       || Int64.compare n (Int64.of_int min_int) < 0
    then err "int %Ld outside native range" n;
    Value.Int (Int64.to_int n)
  end
  else if tag = tag_float then Value.Float (Int64.float_of_bits (i64 c "float"))
  else if tag = tag_str then begin
    let len = u32 c "string length" in
    if len > c.limit - c.pos then
      err "string length %d exceeds %d remaining bytes" len (c.limit - c.pos);
    Value.Str (take_string c len)
  end
  else if tag = tag_uid then begin
    let tag64 = i64 c "uid tag" in
    let serial = i64 c "uid serial" in
    if Int64.compare serial 0L < 0 || Int64.compare serial (Int64.of_int max_int) > 0
    then err "uid serial %Ld outside native range" serial;
    Value.Uid (Uid.of_wire ~tag:tag64 ~serial:(Int64.to_int serial))
  end
  else if tag = tag_chunk then begin
    (* Same hostile-input discipline as strings: the length is bounded
       by the remaining bytes before any allocation, so a forged header
       (negative lengths arrive as huge unsigned ones) is rejected for
       the cost of the bounded diagnostic alone.  Decoding is the one
       payload copy on the receive side, into a pooled root owned by
       the decoder's consumer. *)
    let len = u32 c "chunk length" in
    if len > c.limit - c.pos then
      err "chunk length %d exceeds %d remaining bytes" len (c.limit - c.pos);
    Value.Chunk (take_chunk c len)
  end
  else if tag = tag_list then begin
    let count = u32 c "list count" in
    if count > c.limit - c.pos then
      err "list count %d exceeds %d remaining bytes" count (c.limit - c.pos);
    let rec elements k acc =
      if k = 0 then List.rev acc else elements (k - 1) (value c (depth + 1) :: acc)
    in
    Value.List (elements count [])
  end
  else err "unknown tag %#x" tag

let decode_prefix s ~pos =
  if pos < 0 || pos > String.length s then invalid_arg "Bin.decode_prefix";
  let c = { src = String_src s; pos; limit = String.length s } in
  let v = value c 0 in
  (v, c.pos)

let whole c =
  let v = value c 0 in
  if c.pos <> c.limit then err "%d trailing bytes after value" (c.limit - c.pos);
  v

let decode s = whole { src = String_src s; pos = 0; limit = String.length s }

let decode_buffer b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim b then
    invalid_arg "Bin.decode_buffer: range outside buffer";
  whole { src = Buffer_src b; pos; limit = pos + len }
