module Chunk = Eden_chunk.Chunk

type buffer = Chunk.buffer

external writev :
  Unix.file_descr -> buffer array -> int array -> int array -> int -> int -> int
  = "eden_wire_writev_byte" "eden_wire_writev"

external read_into : Unix.file_descr -> buffer -> int -> int -> int = "eden_wire_read"

(* Plain memcpy primitives; they live in chunk_stubs.c. *)
external unsafe_blit_string_ba : string -> int -> buffer -> int -> int -> unit
  = "eden_chunk_blit_string_ba"
  [@@noalloc]

external unsafe_blit_ba_ba : buffer -> int -> buffer -> int -> int -> unit
  = "eden_chunk_blit_ba_ba"
  [@@noalloc]

external unsafe_blit_ba_bytes : buffer -> int -> Bytes.t -> int -> int -> unit
  = "eden_chunk_blit_ba_bytes"
  [@@noalloc]

let buffer n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let sub_string buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim buf then
    invalid_arg "Iov.sub_string: range outside buffer";
  let b = Bytes.create len in
  unsafe_blit_ba_bytes buf pos b 0 len;
  Bytes.unsafe_to_string b
let stage_bytes = 4096
let copy_below = 128

type t = {
  mutable stage : buffer;
  mutable spos : int;
  mutable open_at : int;  (** start of the flat segment being staged, or -1 *)
  mutable bufs : buffer array;
  mutable offs : int array;
  mutable lens : int array;
  mutable n : int;
  mutable total : int;
  mutable copy_all : bool;  (** inside {!staged}: slices are staged too *)
}

let create () =
  let stage = buffer stage_bytes in
  {
    stage;
    spos = 0;
    open_at = -1;
    bufs = Array.make 8 stage;
    offs = Array.make 8 0;
    lens = Array.make 8 0;
    n = 0;
    total = 0;
    copy_all = false;
  }

let length t = t.total

let reset t =
  Array.fill t.bufs 0 t.n t.stage;
  t.spos <- 0;
  t.open_at <- -1;
  t.n <- 0;
  t.total <- 0;
  t.copy_all <- false

let push t buf pos len =
  if t.n = Array.length t.bufs then begin
    let grow a = Array.append a a in
    t.bufs <- grow t.bufs;
    t.offs <- grow t.offs;
    t.lens <- grow t.lens
  end;
  t.bufs.(t.n) <- buf;
  t.offs.(t.n) <- pos;
  t.lens.(t.n) <- len;
  t.n <- t.n + 1

let close_flat t =
  if t.open_at >= 0 then begin
    if t.spos > t.open_at then push t t.stage t.open_at (t.spos - t.open_at);
    t.open_at <- -1
  end

(* Room for [k] more flat bytes, returning where they go.  A full stage
   is never grown in place: its bytes may already be queued, so a
   larger one takes over and the old one lives until the write. *)
let reserve t k =
  if t.spos + k > Bigarray.Array1.dim t.stage then begin
    close_flat t;
    t.stage <- buffer (max k (2 * Bigarray.Array1.dim t.stage));
    t.spos <- 0
  end;
  if t.open_at < 0 then t.open_at <- t.spos;
  let at = t.spos in
  t.spos <- at + k;
  t.total <- t.total + k;
  at

let set t i x = Bigarray.Array1.unsafe_set t.stage i (Char.unsafe_chr (x land 0xFF))

let add_uint8 t x = set t (reserve t 1) x

let add_int32_be t x =
  let at = reserve t 4 in
  set t at (x lsr 24);
  set t (at + 1) (x lsr 16);
  set t (at + 2) (x lsr 8);
  set t (at + 3) x

let add_int64_be t x =
  let at = reserve t 8 in
  for i = 0 to 7 do
    set t (at + i) (Int64.to_int (Int64.shift_right_logical x (56 - (8 * i))))
  done

let add_string t s =
  let len = String.length s in
  let at = reserve t len in
  unsafe_blit_string_ba s 0 t.stage at len

let add_slice t buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim buf then
    invalid_arg "Iov.add_slice: range outside buffer";
  if len <= copy_below || t.copy_all then begin
    let at = reserve t len in
    unsafe_blit_ba_ba buf pos t.stage at len
  end
  else begin
    close_flat t;
    push t buf pos len;
    t.total <- t.total + len
  end

let staged t n fill =
  if t.spos + n > Bigarray.Array1.dim t.stage then begin
    close_flat t;
    t.stage <- buffer (max n (2 * Bigarray.Array1.dim t.stage));
    t.spos <- 0
  end;
  let stage = t.stage and start = t.spos in
  t.copy_all <- true;
  fill t;
  t.copy_all <- false;
  if t.stage != stage || t.spos - start <> n then
    invalid_arg "Iov.staged: fill did not add exactly the announced bytes";
  (stage, start)

let add_chunk t c =
  Chunk.fold_slices c ~init:() ~f:(fun () buf ~pos ~len -> add_slice t buf ~pos ~len)

let rec writev_retrying fd t i =
  match writev fd t.bufs t.offs t.lens i (t.n - i) with
  | k -> k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> writev_retrying fd t i
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ fd ] [] (-1.0));
      writev_retrying fd t i

let write t fd =
  close_flat t;
  let i = ref 0 in
  while !i < t.n do
    (* Skip the segments this write finished, then trim the one it
       stopped inside. *)
    let k = ref (writev_retrying fd t !i) in
    while !i < t.n && !k >= t.lens.(!i) do
      k := !k - t.lens.(!i);
      incr i
    done;
    if !k > 0 then begin
      t.offs.(!i) <- t.offs.(!i) + !k;
      t.lens.(!i) <- t.lens.(!i) - !k
    end
  done;
  reset t

let rec read fd buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim buf then
    invalid_arg "Iov.read: range outside buffer";
  match read_into fd buf pos len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read fd buf ~pos ~len
