(* Physical floors and the codec replay, measured in the traced run so
   every MB/s has a denominator and every wire layer its own line. *)

module Value = Eden_kernel.Value
module Chunk = Eden_chunk.Chunk
module Bin = Eden_wire.Bin
module Frame = Eden_wire.Frame
module Transport = Eden_wire.Transport

let mb bytes seconds = float_of_int bytes /. 1e6 /. seconds

let median_of reps f = Harness.median (List.init reps (fun _ -> f ()))
let memcpy_reps = 5
let pump_reps = 3
let replay_reps = 5

(* Copying [volume] bytes out of a chunk root, [frame] bytes at a time:
   the cheapest move of a payload the chunk plane can make. *)
let memcpy_mb_s ~volume ~frame =
  let frame = max 1 frame in
  let src = Chunk.alloc frame in
  let dst = Bytes.create frame in
  let count = max 1 (volume / frame) in
  let r =
    median_of memcpy_reps (fun () ->
        let t0 = Harness.now () in
        for _ = 1 to count do
          Chunk.blit_to_bytes src ~src_pos:0 dst ~dst_pos:0 ~len:frame
        done;
        mb (count * frame) (Harness.now () -. t0))
  in
  Chunk.release src;
  r

(* Raw frames of [frame] payload bytes from this process to a forked
   reader over the cluster's unix-socket transport, with no codec, no
   kernel and no relay: the floor under every wire MB/s. *)
let pump_mb_s ~volume ~frame =
  let frame = max 1 frame in
  let count = max 1 (volume / frame) in
  let f = Frame.make ~kind:Frame.Request ~src:0 ~dst:1 (String.make frame 'x') in
  let once () =
    let server = Transport.listen Transport.Unix_socket in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let fd = Transport.dial server in
            let rec drain () =
              match (Frame.read fd).Frame.hdr.Frame.kind with
              | Frame.Shutdown -> ()
              | _ -> drain ()
            in
            drain ();
            Frame.write fd (Frame.make ~kind:Frame.Reply ~src:1 ~dst:0 "");
            0
          with _ -> 2
        in
        Unix._exit code
    | pid ->
        let fd = Transport.accept server in
        let t0 = Harness.now () in
        for _ = 1 to count do
          Frame.write fd f
        done;
        Frame.write fd (Frame.make ~kind:Frame.Shutdown ~src:0 ~dst:1 "");
        ignore (Frame.read fd);
        let dt = Harness.now () -. t0 in
        Unix.close fd;
        Transport.close_server server;
        (match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith "pump floor: reader failed");
        mb (count * frame) dt
  in
  median_of pump_reps once

let rec release_chunks = function
  | Value.Chunk c -> Chunk.release c
  | Value.List vs -> List.iter release_chunks vs
  | _ -> ()

type replay = {
  codec_us_per_item : float;
  frame_us_per_item : float;
  frame_bytes_per_payload_byte : float;
}

(* Replays the workload's own protocol messages through the wire codec
   ([Bin]) and the framing ([Frame]) as the real path would: encode,
   frame, unframe, decode.  [items] and [payload] are the data items and
   payload bytes the messages carry. *)
let replay (s : Harness.shm) (msgs : Value.t array) ~items ~payload =
  let reps = replay_reps in
  let codec = ref [] and framing = ref [] and wire_bytes = ref 0 in
  for _ = 1 to reps do
    let tc = ref 0.0 and tf = ref 0.0 in
    wire_bytes := 0;
    Array.iter
      (fun m ->
        let t0 = Harness.now () in
        let enc = Bin.encode m in
        let t1 = Harness.now () in
        let fr = Frame.make ~kind:Frame.Reply ~src:1 ~dst:0 enc in
        let bytes = Frame.encode fr in
        let back = Frame.decode bytes in
        let t2 = Harness.now () in
        let v = Bin.decode back.Frame.payload in
        let t3 = Harness.now () in
        release_chunks v;
        wire_bytes := !wire_bytes + String.length bytes;
        tc := !tc +. (t1 -. t0) +. (t3 -. t2);
        tf := !tf +. (t2 -. t1);
        Harness.span s ~lane:0 Harness.Codec ~parent:Harness.no_parent t0 t1;
        Harness.span s ~lane:0 Harness.Frame_codec ~parent:Harness.no_parent t1 t2;
        Harness.span s ~lane:0 Harness.Codec ~parent:Harness.no_parent t2 t3)
      msgs;
    codec := (!tc *. 1e6 /. float_of_int items) :: !codec;
    framing := (!tf *. 1e6 /. float_of_int items) :: !framing
  done;
  {
    codec_us_per_item = Harness.median !codec;
    frame_us_per_item = Harness.median !framing;
    frame_bytes_per_payload_byte = float_of_int !wire_bytes /. float_of_int payload;
  }
