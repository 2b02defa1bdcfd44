(* The three workloads.  Each drives the system only through public entry
   points (Cluster/Stage, Transform and lib/filters, Chunk, Kernel and
   its Meter) and loads one layer that the others barely touch. *)

module Value = Eden_kernel.Value
module Kernel = Eden_kernel.Kernel
module T = Eden_transput
module Stage = Eden_transput.Stage
module Cluster = Eden_par.Cluster
module Cat = Eden_filters.Catalog
module Chunk = Eden_chunk.Chunk
module Flowctl = Eden_flowctl.Flowctl
module Credit = Eden_flowctl.Credit
module Prng = Eden_util.Prng
module Sched = Eden_sched.Sched
module H = Harness

(* --- Inputs ------------------------------------------------------------ *)

let words =
  [| "the"; "quick"; "Brown"; "fox"; "jumps"; "over"; "lazy"; "Dog"; "stream"; "eject";
     "Transfer"; "deposit"; "Eden"; "filter"; "pipe"; "datum"; "channel"; "read-only";
     "write-only"; "invocation"; "42"; "x" |]

(* One seeded line of 3-12 words, handed to [out] piece by piece; about
   a quarter end in blanks so that trim_trailing has work. *)
let gen_line g out =
  for w = 0 to Prng.int_in g 3 12 - 1 do
    if w > 0 then out " ";
    out words.(Prng.int g (Array.length words))
  done;
  if Prng.int g 4 = 0 then out (String.make (Prng.int_in g 1 6) ' ');
  out "\n"

(* Seeded lines until [stop], written in place: a first pass over a copy
   of the seeded stream sizes the document, so no buffer grows (a
   doubling would make peak_heap_mb depend on the seed).  Inputs are one
   flat string plus flat offset arrays: no per-line OCaml structure is
   alive when a wire cluster forks. *)
let document g ~stop =
  let size = ref 0 and lines = ref 0 in
  let sizing = Prng.copy g in
  while not (stop ~lines:!lines ~bytes:!size) do
    gen_line sizing (fun piece -> size := !size + String.length piece);
    incr lines
  done;
  let b = Bytes.create !size and pos = ref 0 in
  for _ = 1 to !lines do
    gen_line g (fun piece ->
        Bytes.blit_string piece 0 b !pos (String.length piece);
        pos := !pos + String.length piece)
  done;
  Bytes.unsafe_to_string b

let lines_doc g ~lines = document g ~stop:(fun ~lines:l ~bytes:_ -> l >= lines)
let bytes_doc g ~bytes = document g ~stop:(fun ~lines:_ ~bytes:b -> b >= bytes)

(* Start offset of every line, plus the document length at the end. *)
let line_starts doc =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) doc;
  let a = Array.make (!n + 1) 0 in
  let k = ref 1 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        a.(!k) <- i + 1;
        incr k
      end)
    doc;
  a

(* Oracles for the line filters, written apart from lib/filters so that
   the check does not share the code it checks. *)
let rot13 =
  String.map (fun c ->
      if c >= 'a' && c <= 'z' then Char.chr (((Char.code c - 97 + 13) mod 26) + 97)
      else if c >= 'A' && c <= 'Z' then Char.chr (((Char.code c - 65 + 13) mod 26) + 65)
      else c)

let rstrip l =
  let i = ref (String.length l) in
  while !i > 0 && (l.[!i - 1] = ' ' || l.[!i - 1] = '\t') do
    decr i
  done;
  String.sub l 0 !i

(* --- Pipelines ---------------------------------------------------------- *)

(* How a pipeline workload is wired.  [build] creates the stages on a
   fresh cluster and pokes the pump; [wrap ~lane] is identity on untimed
   passes and the span/timer wrapper on traced ones. *)
type pipeline = {
  mode : Cluster.mode;
  shards : int;
  local_links : int;
  cross_links : int;
  build :
    Cluster.t ->
    wrap:(lane:int -> T.Transform.t -> T.Transform.t) ->
    gen:Stage.gen ->
    consume:Stage.consume ->
    on_done:(unit -> unit) ->
    unit;
}

(* The generated items and the sink stream they must produce. *)
type inputs = {
  n : int;
  item : int -> Value.t;  (** generator item [i] *)
  payload_bytes : int;  (** payload bytes over all items *)
  expected : string;  (** the sink's byte stream *)
  exp_end : int array;  (** where item [i] ends in [expected] *)
  messages : unit -> Value.t array;  (** protocol messages for the codec replay *)
  frame_payload : int;  (** typical payload bytes per wire message *)
}

let unix_wire =
  Cluster.Wire
    { Cluster.wire_transport = Eden_wire.Transport.Unix_socket; wire_faults = None;
      wire_auth = None }

(* Raw per-pass values; [speed] is the pass's {!H.host_speed}. *)
type pass = {
  speed : float;
  setup : float;
  mb_s : float;
  cpu_us : float;
  invocations : float;
  attempted : int;
  errors : int;
  leaked : int * int;  (** chunk views and roots this process held after the pass *)
  layer : (string * float) list;
}

let transfer_reply items = T.Proto.transfer_reply { T.Proto.eos = false; items }

let chunk_inputs doc ~cuts =
  let n = Array.length cuts - 1 in
  let len i = cuts.(i + 1) - cuts.(i) in
  {
    n;
    item = (fun i -> Value.Chunk (Chunk.of_substring doc ~pos:cuts.(i) ~len:(len i)));
    payload_bytes = String.length doc;
    expected = doc;
    exp_end = Array.sub cuts 1 n;
    messages =
      (fun () -> Array.init n (fun i ->
          transfer_reply [ Value.Chunk (Chunk.of_substring doc ~pos:cuts.(i) ~len:(len i)) ]));
    frame_payload = (if n > 0 then String.length doc / n else 0);
  }

(* Lines through the oracle [f]; [batch] items per replayed message. *)
let line_inputs doc ~f ~batch ~deposit =
  let starts = line_starts doc in
  let n = Array.length starts - 1 in
  let line i = String.sub doc starts.(i) (starts.(i + 1) - starts.(i) - 1) in
  let b = Buffer.create (String.length doc) in
  let exp_end =
    Array.init n (fun i ->
        Buffer.add_string b (f (line i));
        Buffer.add_char b '\n';
        Buffer.length b)
  in
  let batches = (n + batch - 1) / batch in
  let messages () =
    Array.init batches (fun k ->
        let items =
          List.init (min batch (n - (k * batch))) (fun j -> Value.Str (line ((k * batch) + j)))
        in
        if deposit then T.Proto.deposit_request T.Channel.output ~eos:false items
        else transfer_reply items)
  in
  {
    n;
    item = (fun i -> Value.Str (line i));
    payload_bytes = String.length doc - n;
    expected = Buffer.contents b;
    exp_end;
    messages;
    frame_payload = String.length doc / batches;
  }

(* Items whose byte range in [recv] differs from [expected], plus items
   past the expected end.  [recv] is exactly as long as [expected]. *)
let count_errors inp recv ~recv_len ~recv_items ~overflow =
  if (not overflow) && recv_len = Bytes.length recv && recv_items = inp.n
     && String.equal (Bytes.unsafe_to_string recv) inp.expected
  then 0
  else begin
    let bad = ref 0 in
    for i = 0 to inp.n - 1 do
      let e = inp.exp_end.(i) and s = if i = 0 then 0 else inp.exp_end.(i - 1) in
      if e > recv_len || Bytes.sub_string recv s (e - s) <> String.sub inp.expected s (e - s)
      then incr bad
    done;
    !bad + (if overflow then 1 else 0) + max 0 (recv_items - inp.n)
  end

let ops_sum ops names =
  List.fold_left (fun a (op, k) -> if List.mem op names then a + k else a) 0 ops

(* Runs one pass on a fresh cluster.  Timestamps go to preallocated
   unboxed arrays; [recv] is preallocated too, so the sink only blits. *)
let pipeline_pass p inp ~seed ~shm ~created ~arrived ~recv ~lat ~traced ~keep =
  let n = inp.n in
  let gen_i = ref 0 and next_arrival = ref 0 in
  let recv_len = ref 0 and recv_items = ref 0 and overflow = ref false and eos = ref 0 in
  H.reset_accumulators shm;
  Gc.full_major ();
  let speed = H.host_speed () in
  let views0 = Chunk.live_views () and roots0 = Chunk.live_roots () in
  let cpu_s0 = H.cpu_self () and cpu_c0 = H.cpu_children () in
  let live0 = if traced then (Gc.stat ()).Gc.live_words else 0 in
  let t_create = H.now () in
  let pass_span = if traced then H.span_open shm ~lane:0 H.Pass ~parent:H.no_parent t_create else H.no_parent in
  let c = Cluster.create ~seed:(Int64.of_int seed) p.mode ~shards:p.shards () in
  let make_item =
    if traced then (fun i ->
      let t0 = H.now () in
      let v = inp.item i in
      let t1 = H.now () in
      Float.Array.set created i t0;
      shm.{H.acc 0 H.a_gen_busy} <- shm.{H.acc 0 H.a_gen_busy} +. (t1 -. t0);
      H.span shm ~lane:0 H.Gen ~parent:pass_span t0 t1;
      v)
    else fun i ->
      Float.Array.set created i (H.now ());
      inp.item i
  in
  let gen () =
    let i = !gen_i in
    if i >= n then None
    else begin
      gen_i := i + 1;
      Some (make_item i)
    end
  in
  let fits len =
    let ok = !recv_len + len <= Bytes.length recv in
    if not ok then overflow := true;
    ok
  in
  let deliver () =
    let t = H.now () in
    incr recv_items;
    while !next_arrival < n && inp.exp_end.(!next_arrival) <= !recv_len do
      Float.Array.set arrived !next_arrival t;
      incr next_arrival
    done
  in
  let consume_raw v =
    match v with
    | Value.Chunk ch ->
        let len = Chunk.length ch in
        if fits len then begin
          Chunk.blit_to_bytes ch ~src_pos:0 recv ~dst_pos:!recv_len ~len;
          recv_len := !recv_len + len
        end;
        Chunk.release ch;
        deliver ()
    | Value.Str s ->
        let len = String.length s in
        if fits (len + 1) then begin
          Bytes.blit_string s 0 recv !recv_len len;
          Bytes.set recv (!recv_len + len) '\n';
          recv_len := !recv_len + len + 1
        end;
        deliver ()
    | _ ->
        overflow := true;
        deliver ()
  in
  let consume =
    if traced then (fun v ->
      let t0 = H.now () in
      consume_raw v;
      let t1 = H.now () in
      shm.{H.acc 0 H.a_sink_busy} <- shm.{H.acc 0 H.a_sink_busy} +. (t1 -. t0);
      H.span shm ~lane:0 H.Sink ~parent:pass_span t0 t1)
    else consume_raw
  in
  let wrap =
    if traced then fun ~lane t -> H.traced_filter shm ~lane ~parent:pass_span t
    else fun ~lane:_ t -> t
  in
  let tb0 = H.now () in
  p.build c ~wrap ~gen ~consume ~on_done:(fun () -> incr eos);
  let tb1 = H.now () in
  let ejects = ref 0 in
  for i = 0 to p.shards - 1 do
    ejects := !ejects + (Kernel.Meter.snapshot (Cluster.kernel c i)).Kernel.Meter.ejects_created
  done;
  let live1 = if traced then (Gc.full_major (); (Gc.stat ()).Gc.live_words) else 0 in
  let minor0, major0 = H.gc_counts () in
  Cluster.run c;
  let t_end = H.now () in
  let cpu_s1 = H.cpu_self () and cpu_c1 = H.cpu_children () in
  let minor1, major1 = H.gc_counts () in
  H.span_close shm pass_span t_end;
  let got = !next_arrival in
  let errors =
    count_errors inp recv ~recv_len:!recv_len ~recv_items:!recv_items ~overflow:!overflow
    + abs (!eos - 1)
  in
  let leaked = (Chunk.live_views () - views0, Chunk.live_roots () - roots0) in
  let fn = float_of_int n in
  if keep then
    for i = 0 to got - 1 do
      H.lat_add lat ((Float.Array.get arrived i -. Float.Array.get created i) *. 1e3 *. speed)
    done;
  let first = if got > 0 then Float.Array.get arrived 0 else t_end in
  let last = if got > 0 then Float.Array.get arrived (got - 1) else t_end in
  let data_bytes = (if got > 0 then inp.exp_end.(got - 1) - inp.exp_end.(0) else 0) in
  let meter = Cluster.meter c in
  let ops = Cluster.op_counts c in
  let exchanges = ops_sum ops [ T.Proto.transfer_op; T.Proto.deposit_op ] in
  let hub_cpu = cpu_s1 -. cpu_s0 and leaf_cpu = cpu_c1 -. cpu_c0 in
  let layer =
    if not traced then []
    else begin
      let leaf_minor, leaf_major = H.leaf_gc shm in
      let per_item x = x *. 1e6 /. fn in
      [
        ("par.cross_frames_per_item", float_of_int (Cluster.cross_messages c) /. fn);
        ("par.hub_cpu_us_per_item", per_item hub_cpu);
        ("par.leaf_cpu_us_per_item", per_item leaf_cpu);
        ("filters.busy_us_per_item", per_item (H.sum_lanes shm H.a_filter_busy));
        ("filters.wait_up_us_per_item", per_item (H.sum_lanes shm H.a_filter_up));
        ("filters.wait_down_us_per_item", per_item (H.sum_lanes shm H.a_filter_down));
        ("core.exchanges_per_item", float_of_int exchanges /. fn);
        (* Item deliveries over exchanges, both counted the way
           op_counts counts: once per side of a shard crossing. *)
        ( "flowctl.items_per_exchange",
          fn *. float_of_int (p.local_links + (2 * p.cross_links)) /. float_of_int (max 1 exchanges) );
        ("kernel.activations_per_wake", float_of_int meter.Kernel.Meter.activations);
        ("kernel.bytes_per_entity", float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. float_of_int (max 1 !ejects));
        ("kernel.create_us_per_entity", (tb1 -. tb0) *. 1e6 /. float_of_int (max 1 !ejects));
        ("gc.minor_words_per_item", (minor1 -. minor0 +. leaf_minor) /. fn);
        ("gc.major_collections", major1 -. major0 +. leaf_major);
        ("gen.busy_us_per_item", per_item shm.{H.acc 0 H.a_gen_busy});
        ("sink.busy_us_per_item", per_item shm.{H.acc 0 H.a_sink_busy});
        ("chunk.views_leaked", float_of_int (fst leaked));
      ]
    end
  in
  {
    speed;
    setup = first -. t_create;
    mb_s = float_of_int data_bytes /. 1e6 /. (last -. first);
    cpu_us = (hub_cpu +. leaf_cpu) *. 1e6 /. fn;
    invocations = float_of_int meter.Kernel.Meter.invocations /. fn;
    attempted = n;
    errors;
    leaked;
    layer;
  }

(* --- Per-run estimation ------------------------------------------------- *)

type outcome = {
  e2e : H.metric list;
  layers : (string * float * int) list;  (** name, value, samples *)
  attempted : int;
  failed : int;
}

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* Times are scaled by each pass's host speed before the median. *)
let e2e_metrics ~(passes : pass list) ~lat ~attempted ~failed =
  let np = List.length passes in
  let med f = H.median (List.map f passes) in
  let raw_mb_s = med (fun p -> p.mb_s) in
  Printf.printf "latency: %d samples in windows of %d\n" lat.H.total H.window;
  Printf.printf "host speed: median %.3f over %d passes; raw medians: %.6f MB/s, %.6f us/item, %.6f s setup\n"
    (med (fun p -> p.speed)) np raw_mb_s (med (fun p -> p.cpu_us)) (med (fun p -> p.setup));
  [
    H.metric "throughput_mb_s" "MB/s" ~samples:np (med (fun p -> p.mb_s /. p.speed));
    H.metric "latency_p50_ms" "ms" ~samples:lat.H.total (H.median lat.H.p50s);
    H.metric "latency_p99_ms" "ms" ~samples:lat.H.total (H.median lat.H.p99s);
    H.metric "cpu_us_per_item" "us" ~samples:np (med (fun p -> p.cpu_us *. p.speed));
    H.metric "setup_s" "s" ~samples:np (med (fun p -> p.setup *. p.speed));
    H.metric "invocations_per_item" "count" ~samples:np (med (fun p -> p.invocations));
    H.metric "peak_heap_mb" "MB" ~samples:1 (H.peak_heap_mb ());
    H.metric "error_rate" "ratio" ~samples:attempted
      (float_of_int failed /. float_of_int (max 1 attempted));
  ]

(* Median of each layer metric over the traced passes. *)
let layer_medians passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) ->
          (k, H.median (List.map (fun (l : pass) -> List.assoc k l.layer) passes), List.length passes))
        first.layer

let floors_and_replay shm ~volume ~frame ~messages ~items ~payload =
  let msgs = messages () in
  let r = Floors.replay shm msgs ~items ~payload in
  Array.iter Floors.release_chunks msgs;
  [
    ("wire.frame_bytes_per_payload_byte", r.Floors.frame_bytes_per_payload_byte, 1);
    ("wire.codec_us_per_item", r.Floors.codec_us_per_item, Floors.replay_reps);
    ("wire.frame_us_per_item", r.Floors.frame_us_per_item, Floors.replay_reps);
    ("wire.pump_floor_mb_s", Floors.pump_mb_s ~volume ~frame, Floors.pump_reps);
    ("chunk.memcpy_floor_mb_s", Floors.memcpy_mb_s ~volume ~frame, Floors.memcpy_reps);
  ]

(* The chunk gauges must return to baseline after every pass.  A
   shortfall is printed here and reported as chunk.views_leaked by the
   traced run; it is not an item error, since every item still arrived
   intact. *)
let check_chunk_gauges passes =
  let views = List.fold_left (fun a p -> max a (abs (fst p.leaked))) 0 passes in
  let roots = List.fold_left (fun a p -> max a (abs (snd p.leaked))) 0 passes in
  if views = 0 && roots = 0 then print_endline "chunk gauges: back to baseline after every pass"
  else
    Printf.printf
      "chunk gauges: FAILED, up to %d views and %d roots left live by a pass in this process\n"
      views roots

(* Runs a workload's passes.  Untraced: a warm-up pass, then timed
   passes for [seconds], reduced to the end-to-end metrics.  Traced:
   traced and untraced passes alternate, the per-layer metrics are the
   medians over the traced ones, and trace.overhead_pct compares the
   throughput of the two halves. *)
let run_workload ~name ~seed ~seconds ~trace ~shm ~lat ~floors pass =
  let attempted_failed passes =
    (sum (fun (p : pass) -> p.attempted) passes, sum (fun (p : pass) -> p.errors) passes)
  in
  if not trace then begin
    let passes =
      H.run_passes ~seconds ~min_passes:3 (fun ~warm ~index:_ -> pass ~traced:false ~keep:(not warm))
    in
    check_chunk_gauges passes;
    let attempted, failed = attempted_failed passes in
    { e2e = e2e_metrics ~passes ~lat ~attempted ~failed; layers = []; attempted; failed }
  end
  else begin
    let passes =
      H.run_passes ~seconds ~min_passes:4 (fun ~warm:_ ~index ->
          (index mod 2 = 1, pass ~traced:(index mod 2 = 1) ~keep:false))
    in
    let half t = List.filter_map (fun (t', p) -> if t' = t then Some p else None) passes in
    let traced = half true and untraced = half false in
    let all = List.map snd passes in
    check_chunk_gauges all;
    let rate p = p.mb_s /. p.speed in
    let overhead =
      ((H.median (List.map rate untraced) /. H.median (List.map rate traced)) -. 1.0) *. 100.0
    in
    let layers =
      layer_medians traced @ floors () @ [ ("trace.overhead_pct", overhead, List.length passes) ]
    in
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "trace-%s-seed%d.json" name seed)
    in
    H.write_chrome_trace shm path;
    Printf.printf "trace: %d spans (%d dropped) in %s\n" (H.spans_recorded shm)
      (H.spans_dropped shm) path;
    let attempted, failed = attempted_failed all in
    { e2e = []; layers; attempted; failed }
  end

let run_pipeline ~name p inp ~seed ~seconds ~trace =
  let shm = H.shm_create () in
  let created = Float.Array.make inp.n 0.0 and arrived = Float.Array.make inp.n 0.0 in
  let recv = Bytes.create (String.length inp.expected) in
  let lat = H.latency () in
  let floors () =
    floors_and_replay shm ~volume:(String.length inp.expected) ~frame:inp.frame_payload
      ~messages:inp.messages ~items:inp.n ~payload:inp.payload_bytes
  in
  run_workload ~name ~seed ~seconds ~trace ~shm ~lat ~floors
    (fun ~traced ~keep -> pipeline_pass p inp ~seed ~shm ~created ~arrived ~recv ~lat ~traced ~keep)

(* --- Workload definitions ---------------------------------------------

   Each one records why it was chosen, the layer it loads and the layer
   it bypasses. *)

(* bulk-chunk-wire — chosen because the wire data plane (ROADMAP item 2:
   mesh path, zero-copy ingress, writev) only shows with large payloads
   moved across processes.  Loads: Chunk, Bin/Frame/Transport, the hub's
   leaf-to-leaf relay.  Bypasses: kernel dispatch (~122 invocations per
   MB), line filters, allocation per item.  A read-only F2 chain of three
   identity filters on the chunked plane, seeded cuts around 64 KiB, on 3
   shards over unix sockets: source and sink on the hub, so both
   timestamps come from one clock, and filters alternating between the
   two leaves, so every filter-to-filter edge is relayed by the hub. *)
let bulk_chunk_wire ~seed ~seconds ~trace =
  let g = Prng.create (Int64.of_int seed) in
  let doc = bytes_doc g ~bytes:(32 * 1024 * 1024) in
  let cuts =
    let acc = ref [ 0 ] and pos = ref 0 in
    while !pos < String.length doc do
      pos := min (String.length doc) (!pos + Prng.int_in g (56 * 1024) (72 * 1024));
      acc := !pos :: !acc
    done;
    Array.of_list (List.rev !acc)
  in
  let filters = 3 in
  let flowctl = Flowctl.chunked ~chunk_bytes:(64 * 1024) () in
  let build c ~wrap ~gen ~consume ~on_done =
    let k0 = Cluster.kernel c 0 in
    let src = Stage.source_ro k0 ~name:"source" ~capacity:16 gen in
    let prev = ref (0, src) in
    for j = 1 to filters do
      let shard = 1 + ((j - 1) mod 2) in
      let upstream = Cluster.proxy c ~shard ~ops:[ T.Proto.transfer_op ] ~target:!prev in
      let f =
        Stage.filter_ro (Cluster.kernel c shard) ~name:(Printf.sprintf "F%d" j) ~capacity:16
          ~flowctl ~upstream
          (wrap ~lane:shard T.Transform.identity)
      in
      prev := (shard, f)
    done;
    let upstream = Cluster.proxy c ~shard:0 ~ops:[ T.Proto.transfer_op ] ~target:!prev in
    let sink = Stage.sink_ro k0 ~name:"sink" ~flowctl ~upstream ~on_done consume in
    Kernel.poke k0 sink
  in
  let p = { mode = unix_wire; shards = 3; local_links = 0; cross_links = filters + 1; build } in
  run_pipeline ~name:"bulk-chunk-wire" p (chunk_inputs doc ~cuts) ~seed ~seconds ~trace

(* line-push-wire — chosen as the opposite wire use to bulk-chunk-wire:
   many small frames instead of few large ones, and the write-only side
   (Deposit/Intake) of lib/core under credit-windowed batches
   (lib/flowctl).  Loads: Deposit/Intake, Flowctl windows, Bin/Frame per
   small frame, boxed lines.  Bypasses: Chunk, the hub's leaf-to-leaf
   relay.  Two shards (within nproc on a 2-vCPU host): source and sink
   on the hub, the two line filters on the leaf, so each batch crosses
   the socket both ways. *)
let line_push_wire ~seed ~seconds ~trace =
  let g = Prng.create (Int64.of_int seed) in
  let doc = lines_doc g ~lines:40_000 in
  let batch = 64 in
  let flowctl = Flowctl.fixed ~credit:(Credit.Window 4) batch in
  let build c ~wrap ~gen ~consume ~on_done =
    let k0 = Cluster.kernel c 0 and k1 = Cluster.kernel c 1 in
    let sink = Stage.sink_wo k0 ~name:"sink" ~capacity:(4 * batch) ~on_done consume in
    let f2 =
      Stage.filter_wo k1 ~name:"F2" ~capacity:(4 * batch) ~flowctl
        ~downstream:(Cluster.proxy c ~shard:1 ~ops:[ T.Proto.deposit_op ] ~target:(0, sink))
        (wrap ~lane:1 Cat.upcase)
    in
    let f1 =
      Stage.filter_wo k1 ~name:"F1" ~capacity:(4 * batch) ~flowctl ~downstream:f2
        (wrap ~lane:1 Cat.trim_trailing)
    in
    let src =
      Stage.source_wo k0 ~name:"source" ~flowctl
        ~downstream:(Cluster.proxy c ~shard:0 ~ops:[ T.Proto.deposit_op ] ~target:(1, f1))
        gen
    in
    Kernel.poke k0 src
  in
  let p = { mode = unix_wire; shards = 2; local_links = 1; cross_links = 2; build } in
  let inp =
    line_inputs doc ~f:(fun l -> String.uppercase_ascii (rstrip l)) ~batch ~deposit:true
  in
  run_pipeline ~name:"line-push-wire" p inp ~seed ~seconds ~trace

(* line-pull-local — chosen as the paper's own regime: read-only F2 at
   batch 1 and capacity 0, the rendezvous whose count is n+1 invocations
   per datum (window 1 of the credit-windowed link).  Loads: kernel
   dispatch, lib/sched, Pull/Port, allocation.  Bypasses: the wire,
   Chunk, flow-control windows.  One in-process kernel; three cheap
   lib/filters line transforms. *)
let line_pull_local ~seed ~seconds ~trace =
  let g = Prng.create (Int64.of_int seed) in
  let doc = lines_doc g ~lines:20_000 in
  let build c ~wrap ~gen ~consume ~on_done =
    let k0 = Cluster.kernel c 0 in
    let src = Stage.source_ro k0 ~name:"source" ~capacity:0 gen in
    let f1 = Stage.filter_ro k0 ~name:"F1" ~capacity:0 ~batch:1 ~upstream:src (wrap ~lane:0 Cat.trim_trailing) in
    let f2 = Stage.filter_ro k0 ~name:"F2" ~capacity:0 ~batch:1 ~upstream:f1 (wrap ~lane:0 Cat.upcase) in
    let f3 = Stage.filter_ro k0 ~name:"F3" ~capacity:0 ~batch:1 ~upstream:f2 (wrap ~lane:0 Cat.rot13) in
    let sink = Stage.sink_ro k0 ~name:"sink" ~batch:1 ~upstream:f3 ~on_done consume in
    Kernel.poke k0 sink
  in
  let p = { mode = Cluster.Deterministic; shards = 1; local_links = 4; cross_links = 0; build } in
  let inp =
    line_inputs doc ~f:(fun l -> rot13 (String.uppercase_ascii (rstrip l))) ~batch:1 ~deposit:false
  in
  run_pipeline ~name:"line-pull-local" p inp ~seed ~seconds ~trace

let all =
  [
    ("bulk-chunk-wire", bulk_chunk_wire);
    ("line-push-wire", line_push_wire);
    ("line-pull-local", line_pull_local);
  ]
