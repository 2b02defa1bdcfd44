(* The allocation-free wire data path: gather writes (Frame.send_value,
   write_parts, relay) are byte-identical to the flat encoder, the
   reusable receive buffer survives frames of any size and hostile
   lengths, short writes resume where they stopped, the hub's fault
   layer charges the frame sizes it always did, the sender gives back
   the chunks it serialised, and the accept phase of a wire run ends
   in bounded time.

   Several cases fork (a writer child, or wire cluster leaves), so this
   suite runs before any domain is spawned; see main.ml. *)

module Bin = Eden_wire.Bin
module Frame = Eden_wire.Frame
module Faults = Eden_wire.Faults
module Auth = Eden_wire.Auth
module Transport = Eden_wire.Transport
module Chunk = Eden_chunk.Chunk
module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module Net = Eden_net.Net
module Cluster = Eden_par.Cluster
module Stage = Eden_transput.Stage
module Transform = Eden_transput.Transform
module Proto = Eden_transput.Proto
module Flowctl = Eden_flowctl.Flowctl

let check = Alcotest.check

let gauges () = (Chunk.live_roots (), Chunk.live_bytes (), Chunk.live_views ())

let rec release_chunks = function
  | Value.Chunk c -> Chunk.release c
  | Value.List vs -> List.iter release_chunks vs
  | _ -> ()

(* Runs [writer] on one end of a socketpair in a child process while
   [reader] drains the other end here, so frames larger than the
   socket buffer cannot deadlock the test. *)
let across ?(tune = fun _ -> ()) writer reader =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close b;
      let rc =
        try
          tune a;
          writer a;
          0
        with e ->
          prerr_endline (Printexc.to_string e);
          2
      in
      Unix.close a;
      Unix._exit rc
  | pid ->
      Unix.close a;
      Fun.protect
        ~finally:(fun () -> Unix.close b)
        (fun () ->
          let r = reader b in
          let _, status = Unix.waitpid [] pid in
          check Alcotest.bool "writer exited cleanly" true (status = Unix.WEXITED 0);
          r)

let rec read_n fd b pos n =
  if n > 0 then begin
    let r = Unix.read fd b pos n in
    if r = 0 then Alcotest.failf "socket closed %d bytes short" n;
    read_n fd b (pos + r) (n - r)
  end

let read_string fd n =
  let b = Bytes.create n in
  read_n fd b 0 n;
  Bytes.unsafe_to_string b

let flat ~seq v = Frame.encode (Frame.make ~kind:Frame.Request ~src:3 ~dst:5 ~seq (Bin.encode v))

(* Values that exercise the gather list: chunks chained over several
   roots (segments both below and above the staging threshold),
   zero-length parts, and a payload well past 64 KiB. *)
let gather_values () =
  let pattern n k = String.init n (fun i -> Char.chr (97 + ((i + k) mod 26))) in
  let roots = List.map Chunk.of_string [ pattern 40 0; pattern 3000 1; pattern 7 2; pattern 70_000 3 ] in
  let multi = Chunk.concat roots in
  let halves = [ Chunk.of_string (pattern 90_000 4); Chunk.of_string (pattern 50_000 5) ] in
  let big = Chunk.concat halves in
  let vals =
    [
      Value.List [ Value.Str "envelope"; Value.Chunk multi ];
      Value.List [ Value.Chunk (Chunk.empty ()); Value.Str ""; Value.List []; Value.Unit ];
      Value.List [ Value.Int 7; Value.Chunk big; Value.Chunk (Chunk.of_string "tail") ];
      Value.Str (pattern 100_000 6);
    ]
  in
  (vals, fun () -> List.iter Chunk.release (roots @ halves); List.iter release_chunks vals)

let test_gather_byte_identical () =
  let vals, dispose = gather_values () in
  let expected = List.mapi (fun seq v -> flat ~seq v) vals in
  let got =
    across
      (fun fd ->
        let c = Frame.conn fd in
        List.iteri (fun seq v -> Frame.send_value c ~kind:Frame.Request ~src:3 ~dst:5 ~seq v) vals;
        List.iteri (fun seq v -> Frame.write_value fd ~kind:Frame.Request ~src:3 ~dst:5 ~seq v) vals;
        List.iteri
          (fun seq v -> Frame.write_parts fd ~kind:Frame.Request ~src:3 ~dst:5 ~seq (Bin.parts v))
          vals)
      (fun fd -> List.init 3 (fun _ -> List.map (fun e -> read_string fd (String.length e)) expected))
  in
  List.iteri
    (fun path frames ->
      List.iteri
        (fun i (e, g) ->
          check Alcotest.bool
            (Printf.sprintf "%s: value %d byte-identical to encode"
               (List.nth [ "send_value"; "write_value"; "write_parts" ] path) i)
            true (String.equal e g))
        (List.combine expected frames))
    got;
  List.iter
    (fun v ->
      check Alcotest.int "value_size = size of the flat frame"
        (String.length (flat ~seq:0 v)) (Frame.value_size v))
    vals;
  dispose ()

let test_large_then_small () =
  let base = gauges () in
  let big = Value.Chunk (Chunk.of_string (String.make 300_000 'B')) in
  let smalls = [ Value.Str "one"; Value.Int 2; Value.List [ Value.Chunk (Chunk.of_string "three") ] ] in
  let decoded =
    across
      (fun fd ->
        let c = Frame.conn fd in
        List.iter (Frame.send_value c ~kind:Frame.Reply ~src:1 ~dst:0) (big :: smalls))
      (fun fd ->
        let c = Frame.conn fd in
        let before = Frame.receive_capacity c in
        let vs =
          List.map
            (fun _ ->
              let hdr = Frame.recv c in
              check Alcotest.bool "kind survives" true (hdr.Frame.kind = Frame.Reply);
              Frame.decode_received c)
            (big :: smalls)
        in
        check Alcotest.bool "receive buffer grew for the large frame" true
          (Frame.receive_capacity c > before && Frame.receive_capacity c >= 300_000);
        (match Frame.recv c with
        | _ -> Alcotest.fail "expected end of file"
        | exception End_of_file -> ());
        vs)
  in
  List.iter2
    (fun want got -> check Alcotest.bool "decoded value equal" true (Value.equal want got))
    (big :: smalls) decoded;
  List.iter release_chunks decoded;
  List.iter release_chunks (big :: smalls);
  check Alcotest.(triple int int int) "gauges balance" base (gauges ())

let test_read_ahead () =
  (* Frames that are already in the socket arrive together: the first
     recv buffers the rest, which then come without a read — and
     [pending] says so, since select on the descriptor cannot. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let out = Frame.conn a and inp = Frame.conn b in
  List.iter (fun i -> Frame.send_value out ~kind:Frame.Reply ~src:1 ~dst:0 ~seq:i (Value.Int i)) [ 1; 2; 3 ];
  check Alcotest.bool "nothing buffered before the first recv" false (Frame.pending inp);
  List.iter
    (fun i ->
      let hdr = Frame.recv inp in
      check Alcotest.int "frames in order" i hdr.Frame.seq;
      check Alcotest.bool "payload decodes" true (Value.equal (Value.Int i) (Frame.decode_received inp));
      check Alcotest.bool "pending until the last" (i < 3) (Frame.pending inp))
    [ 1; 2; 3 ];
  Unix.close a;
  Unix.close b

let test_short_writes () =
  (* A non-blocking writer with a tiny send buffer: every writev stops
     partway, and the gather list must resume mid-segment. *)
  let vals, dispose = gather_values () in
  let expected = String.concat "" (List.mapi (fun seq v -> flat ~seq v) vals) in
  let got =
    across
      ~tune:(fun fd ->
        Unix.setsockopt_int fd Unix.SO_SNDBUF 4096;
        Unix.set_nonblock fd)
      (fun fd ->
        let c = Frame.conn fd in
        List.iteri (fun seq v -> Frame.send_value c ~kind:Frame.Request ~src:3 ~dst:5 ~seq v) vals)
      (fun fd ->
        Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
        let b = Bytes.create (String.length expected) in
        let pos = ref 0 in
        while !pos < Bytes.length b do
          (* Small reads keep the writer's buffer full most of the time. *)
          let r = Unix.read fd b !pos (min 1500 (Bytes.length b - !pos)) in
          if r = 0 then Alcotest.fail "writer closed early";
          pos := !pos + r
        done;
        Bytes.unsafe_to_string b)
  in
  check Alcotest.bool "stream byte-identical despite short writes" true (String.equal expected got);
  dispose ()

let test_hostile_length () =
  let reject name header =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let c = Frame.conn b in
    let cap = Frame.receive_capacity c in
    ignore (Unix.write_substring a header 0 (String.length header));
    (match Frame.recv c with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Value.Protocol_error _ -> ());
    check Alcotest.int (name ^ ": receive buffer untouched") cap (Frame.receive_capacity c);
    Unix.close a;
    Unix.close b
  in
  let len32 n = String.init 4 (fun i -> Char.chr ((n lsr (24 - (8 * i))) land 0xFF)) in
  reject "0xFFFFFFFF" ("\xff\xff\xff\xff" ^ "\x03\x00\x00\x00\x00\x00\x00\x00");
  reject "one past the cap"
    (len32 (Frame.header_bytes + Frame.max_payload + 1) ^ "\x03\x00\x00\x00\x00\x00\x00\x00");
  reject "below the header" (len32 3 ^ "\x03\x00\x00\x00\x00\x00\x00\x00")

(* The sealed path stages and MACs in place: same bytes as sealing a
   flat frame, a relay re-sealed for the next link, and a tampered
   payload still refused. *)
let test_sealed_in_place () =
  let comm = Auth.community ~id:7L ~key:"0123456789abcdef" in
  let session token = Auth.session comm ~token in
  let body = Chunk.concat [ Chunk.of_string (String.make 3000 'x'); Chunk.of_string "tail" ] in
  let v = Value.List [ Value.Str "sealed"; Value.Chunk body ] in
  let sealed token =
    Frame.encode
      (Auth.seal (session token)
         (Frame.make ~kind:Frame.Request ~src:1 ~dst:2 ~seq:9 (Bin.encode v)))
  in
  let a1, a2 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let b1, b2 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let leaf = Frame.conn a1 and hub_in = Frame.conn a2 and hub_out = Frame.conn b1 in
  Auth.send_value (session 3L) leaf ~kind:Frame.Request ~src:1 ~dst:2 ~seq:9 v;
  let hdr = Auth.verify_received (session 3L) hub_in (Frame.recv hub_in) in
  check Alcotest.int "MAC flag stripped" 0 (hdr.Frame.flags land Frame.flag_mac);
  let back = Frame.decode_received ~trailer:8 hub_in in
  check Alcotest.bool "decoded in place" true (Value.equal v back);
  release_chunks back;
  Auth.relay (session 4L) hdr ~into:hub_out hub_in;
  let want = sealed 4L in
  check Alcotest.bool "relay = the frame sealed for the next link" true
    (String.equal want (read_string b2 (String.length want)));
  (* Byte-identical to sealing the flat frame, and a flipped payload
     byte fails the MAC. *)
  Auth.send_value (session 3L) leaf ~kind:Frame.Request ~src:1 ~dst:2 ~seq:9 v;
  let want = sealed 3L in
  let got = read_string a2 (String.length want) in
  check Alcotest.bool "send_value = seal of the flat frame" true (String.equal want got);
  let bad = Bytes.of_string got in
  Bytes.set bad 40 (Char.chr (Char.code (Bytes.get bad 40) lxor 1));
  ignore (Unix.write a1 bad 0 (Bytes.length bad));
  (match Auth.verify_received (session 3L) hub_in (Frame.recv hub_in) with
  | _ -> Alcotest.fail "tampered frame accepted"
  | exception Value.Protocol_error _ -> ());
  List.iter Unix.close [ a1; a2; b1; b2 ];
  Chunk.release body

(* --- Fault charging and egress ownership on a live cluster --------- *)

let community () = Auth.community ~id:0xF4A3EL ~key:"frame-io-key-016"

let wire ?auth ?faults tr =
  Cluster.Wire { Cluster.wire_transport = tr; wire_faults = faults; wire_auth = auth }

let echo k =
  Kernel.create_eject k ~type_name:"echo" (fun _ctx ~passive:_ -> [ ("echo", fun v -> v) ])

let request_size ~auth ~target arg =
  Frame.size
    (Frame.make ~kind:Frame.Request ~src:0 ~dst:1
       (Bin.encode (Value.List [ Value.Uid target; Value.Str "echo"; arg ])))
  + if auth then 8 else 0

let reply_size ~auth v =
  Frame.size
    (Frame.make ~kind:Frame.Reply ~src:0 ~dst:1 (Bin.encode (Value.List [ Value.Bool true; v ])))
  + if auth then 8 else 0

let payload = String.init 70_000 (fun i -> Char.chr (32 + (i mod 90)))

let test_fault_charges () =
  List.iter
    (fun auth ->
      let tag = if auth then "authenticated" else "plain" in
      (* Hub-originated frames: the first request is delayed, the
         second dropped.  Both charge the flat frame's size, and both
         give their chunk back. *)
      let faults = Faults.of_script [ Faults.Slow 0.001; Faults.Lose ] in
      let base = gauges () in
      let c =
        Cluster.create
          (wire ?auth:(if auth then Some (community ()) else None) ~faults Transport.Unix_socket)
          ~shards:2 ()
      in
      let target = echo (Cluster.kernel c 1) in
      let proxy = Cluster.proxy c ~shard:0 ~ops:[ "echo" ] ~target:(1, target) in
      let echoed = ref "" in
      Cluster.driver c 0 (fun ctx ->
          (match Kernel.invoke ctx proxy ~op:"echo" (Value.Chunk (Chunk.of_string payload)) with
          | Ok (Value.Chunk ch) ->
              echoed := Chunk.to_string ch;
              Chunk.release ch
          | _ -> Alcotest.fail "echo failed");
          (* Dropped: this fiber stays blocked, as under simulated loss. *)
          ignore (Kernel.invoke ctx proxy ~op:"echo" (Value.Chunk (Chunk.of_string payload))));
      Cluster.run c;
      check Alcotest.bool (tag ^ ": delayed request delivered") true (String.equal payload !echoed);
      let m = Faults.meter faults in
      let size =
        let ch = Chunk.of_string payload in
        let s = request_size ~auth ~target (Value.Chunk ch) in
        Chunk.release ch;
        s
      in
      check Alcotest.int (tag ^ ": offered") 2 m.Net.sent;
      check Alcotest.int (tag ^ ": delivered") 1 m.Net.delivered;
      check Alcotest.int (tag ^ ": dropped") 1 m.Net.dropped_loss;
      check Alcotest.int (tag ^ ": bytes charged") (2 * size) m.Net.bytes;
      check Alcotest.(triple int int int) (tag ^ ": hub chunks given back") base (gauges ());
      (* Relayed frames: leaf 1 calls leaf 2; the request and the reply
         both cross the hub and are charged at their flat size. *)
      let faults = Faults.of_script [ Faults.Slow 0.001; Faults.Ok ] in
      let c =
        Cluster.create
          (wire ?auth:(if auth then Some (community ()) else None) ~faults Transport.Unix_socket)
          ~shards:3 ()
      in
      let target = echo (Cluster.kernel c 2) in
      let proxy = Cluster.proxy c ~shard:1 ~ops:[ "echo" ] ~target:(2, target) in
      let arg = Value.List [ Value.Str "relayed"; Value.Int 42 ] in
      Cluster.driver c 1 (fun ctx ->
          match Kernel.invoke ctx proxy ~op:"echo" arg with
          | Ok v when Value.equal v arg -> ()
          | _ -> failwith "relayed echo failed");
      Cluster.run c;
      let m = Faults.meter faults in
      check Alcotest.int (tag ^ ": relayed frames offered") 2 m.Net.sent;
      check Alcotest.int (tag ^ ": relayed bytes charged")
        (request_size ~auth ~target arg + reply_size ~auth arg)
        m.Net.bytes)
    [ false; true ]

(* Chunked F2 with the source and the sink on the hub, so the hub both
   serialises chunks (source replies) and decodes them (sink input). *)
let hub_f2 mode ~doc =
  let c = Cluster.create mode ~shards:3 () in
  let k0 = Cluster.kernel c 0 in
  let cuts = [ 0; 1000; 1017; 70_000; 70_001; 140_000; String.length doc ] in
  let pieces = ref (List.combine (List.rev (List.tl (List.rev cuts))) (List.tl cuts)) in
  let gen () =
    match !pieces with
    | [] -> None
    | (a, b) :: rest ->
        pieces := rest;
        Some (Value.Chunk (Chunk.of_substring doc ~pos:a ~len:(b - a)))
  in
  let out = Buffer.create (String.length doc) in
  let consume = function
    | Value.Chunk ch ->
        Buffer.add_string out (Chunk.to_string ch);
        Chunk.release ch
    | v -> Alcotest.failf "sink got %s" (Value.preview v)
  in
  let flowctl = Flowctl.chunked ~chunk_bytes:4096 () in
  let prev = ref (0, Stage.source_ro k0 ~name:"source" ~capacity:4 gen) in
  for j = 1 to 3 do
    let shard = 1 + ((j - 1) mod 2) in
    let upstream = Cluster.proxy c ~shard ~ops:[ Proto.transfer_op ] ~target:!prev in
    prev :=
      ( shard,
        Stage.filter_ro (Cluster.kernel c shard) ~capacity:4 ~flowctl ~upstream Transform.identity )
  done;
  let upstream = Cluster.proxy c ~shard:0 ~ops:[ Proto.transfer_op ] ~target:!prev in
  Kernel.poke k0 (Stage.sink_ro k0 ~name:"sink" ~flowctl ~upstream consume);
  Cluster.run c;
  Buffer.contents out

let test_egress_releases () =
  let doc = String.init 150_000 (fun i -> Char.chr (48 + (i * 7 mod 75))) in
  List.iter
    (fun (tr, auth) ->
      let tag =
        Printf.sprintf "%s/%s" (Transport.kind_name tr) (if auth then "authenticated" else "plain")
      in
      let views = Chunk.live_views () and roots = Chunk.live_roots () in
      let got = hub_f2 (wire ?auth:(if auth then Some (community ()) else None) tr) ~doc in
      check Alcotest.bool (tag ^ ": stream intact") true (String.equal doc got);
      check Alcotest.int (tag ^ ": hub live views back at baseline") views (Chunk.live_views ());
      check Alcotest.int (tag ^ ": hub live roots back at baseline") roots (Chunk.live_roots ()))
    [
      (Transport.Unix_socket, false);
      (Transport.Unix_socket, true);
      (Transport.Tcp, false);
      (Transport.Tcp, true);
    ]

(* --- Bounded accept --------------------------------------------------- *)

let expect_failure name ~mentions f =
  let t0 = Unix.gettimeofday () in
  (match f () with
  | _ -> Alcotest.failf "%s: returned" name
  | exception Failure m ->
      List.iter
        (fun s ->
          let n = String.length s and k = String.length m in
          let rec found i = i + n <= k && (String.sub m i n = s || found (i + 1)) in
          if not (found 0) then Alcotest.failf "%s: %S does not mention %S" name m s)
        mentions);
  Unix.gettimeofday () -. t0

let test_bounded_accept () =
  let srv = Transport.listen Transport.Unix_socket in
  Fun.protect
    ~finally:(fun () -> Transport.close_server srv)
    (fun () ->
      let never _ = Alcotest.fail "nobody dials, so no hello can arrive" in
      let took =
        expect_failure "nobody dials" ~mentions:[ "shards 1, 2"; "never said hello" ] (fun () ->
            Cluster.await_hellos srv ~shards:3 ~within:0.3 ~exited:(fun _ -> None) ~hello:never)
      in
      check Alcotest.bool "gives up at the deadline" true (took >= 0.3 && took < 3.0);
      (* A leaf seen to have exited fails the phase at once. *)
      let took =
        expect_failure "leaf exited" ~mentions:[ "shards 1, 2"; "shard 2 exited 2" ] (fun () ->
            Cluster.await_hellos srv ~shards:3 ~within:30.0
              ~exited:(fun i -> if i = 2 then Some "exited 2" else None)
              ~hello:never)
      in
      check Alcotest.bool "an exited leaf ends the wait early" true (took < 3.0);
      (* A peer that connects and never finishes its hello is held to
         the deadline too. *)
      let fd = Transport.dial srv in
      let took =
        expect_failure "silent peer" ~mentions:[ "shard 1 "; "never said hello" ] (fun () ->
            Cluster.await_hellos srv ~shards:2 ~within:0.3 ~exited:(fun _ -> None)
              ~hello:(fun fd -> fst (Frame.parse_handshake ~expect:Frame.Hello (Frame.read fd))))
      in
      Unix.close fd;
      check Alcotest.bool "a silent peer cannot stall the accept phase" true (took < 3.0))

let suite =
  [
    Alcotest.test_case "gather writes byte-identical to encode" `Quick test_gather_byte_identical;
    Alcotest.test_case "large frame then small frames" `Quick test_large_then_small;
    Alcotest.test_case "buffered frames need no further read" `Quick test_read_ahead;
    Alcotest.test_case "short writes resume mid-segment" `Quick test_short_writes;
    Alcotest.test_case "hostile length rejected before allocation" `Quick test_hostile_length;
    Alcotest.test_case "sealed frames staged and checked in place" `Quick test_sealed_in_place;
    Alcotest.test_case "drop and delay charge flat frame sizes" `Quick test_fault_charges;
    Alcotest.test_case "egress releases chunks: hub gauges at baseline" `Quick test_egress_releases;
    Alcotest.test_case "bounded accept names missing shards" `Quick test_bounded_accept;
  ]
