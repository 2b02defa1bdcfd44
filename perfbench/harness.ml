(* Plumbing shared by every workload: clocks, the MAP_SHARED slot area
   that forked wire leaves write into, benchmark-side spans, estimators
   and the result line. *)

let now () = Unix.gettimeofday ()

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Leaves count here only once [Cluster.run] has reaped them. *)
let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* --- Shared slots ------------------------------------------------------

   One float64 Bigarray mapped MAP_SHARED before any fork, so a wire
   leaf's writes are visible to the hub.  Every process writes only its
   own lane (lane = shard index), so no slot has two writers. *)

type shm = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let lanes = 4
let span_cap = 20_000

(* Per-lane accumulators. *)
let a_filter_busy = 0
let a_filter_up = 1
let a_filter_down = 2
let a_gc_set = 3
let a_gc_minor0 = 4
let a_gc_major0 = 5
let a_gc_minor1 = 6
let a_gc_major1 = 7
let a_span_count = 8
let a_span_dropped = 9
let a_gen_busy = 10
let a_sink_busy = 11
let acc_width = 12
let acc lane k = (lane * acc_width) + k
let span_base = lanes * acc_width

(* A span is four floats: name, parent id, start, stop. *)
let span_slot lane i = span_base + (((lane * span_cap) + i) * 4)
let shm_size = span_base + (lanes * span_cap * 4)

let shm_create () : shm =
  let path = Filename.temp_file "perfbench-" ".shm" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let g = Unix.map_file fd Bigarray.float64 Bigarray.c_layout true [| shm_size |] in
  Unix.close fd;
  Unix.unlink path;
  let a = Bigarray.array1_of_genarray g in
  Bigarray.Array1.fill a 0.0;
  a

(* Clears the per-pass accumulators; spans persist across passes. *)
let reset_accumulators (s : shm) =
  for lane = 0 to lanes - 1 do
    List.iter
      (fun k -> s.{acc lane k} <- 0.0)
      [ a_filter_busy; a_filter_up; a_filter_down; a_gc_set; a_gc_minor0; a_gc_major0;
        a_gc_minor1; a_gc_major1; a_gen_busy; a_sink_busy ]
  done

let sum_lanes (s : shm) k =
  let t = ref 0.0 in
  for lane = 0 to lanes - 1 do
    t := !t +. s.{acc lane k}
  done;
  !t

(* --- Spans ------------------------------------------------------------ *)

type span_name =
  | Pass
  | Gen
  | Filter
  | Filter_next
  | Filter_emit
  | Sink
  | Codec
  | Frame_codec

let span_names =
  [| "pass"; "gen"; "filter"; "filter.next"; "filter.emit"; "sink"; "wire.codec"; "wire.frame" |]

let span_code = function
  | Pass -> 0
  | Gen -> 1
  | Filter -> 2
  | Filter_next -> 3
  | Filter_emit -> 4
  | Sink -> 5
  | Codec -> 6
  | Frame_codec -> 7

let no_parent = -1

(* Reserves a span with its start time; returns its id, or [no_parent]
   once the lane's ring is full (the drop is counted). *)
let span_open (s : shm) ~lane name ~parent t0 =
  let i = int_of_float s.{acc lane a_span_count} in
  if i >= span_cap then begin
    s.{acc lane a_span_dropped} <- s.{acc lane a_span_dropped} +. 1.0;
    no_parent
  end
  else begin
    let o = span_slot lane i in
    s.{o} <- float_of_int (span_code name);
    s.{o + 1} <- float_of_int parent;
    s.{o + 2} <- t0;
    s.{o + 3} <- t0;
    s.{acc lane a_span_count} <- float_of_int (i + 1);
    (lane * span_cap) + i
  end

let span_close (s : shm) id t1 =
  if id >= 0 then
    let lane = id / span_cap and i = id mod span_cap in
    s.{span_slot lane i + 3} <- t1

let span (s : shm) ~lane name ~parent t0 t1 =
  span_close s (span_open s ~lane name ~parent t0) t1

let spans_recorded (s : shm) =
  let n = ref 0 in
  for lane = 0 to lanes - 1 do
    n := !n + int_of_float s.{acc lane a_span_count}
  done;
  !n

let spans_dropped (s : shm) = int_of_float (sum_lanes s a_span_dropped)

(* Chrome trace_event JSON: one pid per process lane, times in
   microseconds from the earliest span. *)
let write_chrome_trace (s : shm) path =
  let esc = Eden_obs.Obs.Export.json_escape in
  let origin = ref infinity in
  for lane = 0 to lanes - 1 do
    for i = 0 to int_of_float s.{acc lane a_span_count} - 1 do
      origin := Float.min !origin s.{span_slot lane i + 2}
    done
  done;
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  for lane = 0 to lanes - 1 do
    for i = 0 to int_of_float s.{acc lane a_span_count} - 1 do
      let o = span_slot lane i in
      if not !first then output_char oc ',';
      first := false;
      Printf.fprintf oc
        "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (esc span_names.(int_of_float s.{o}))
        lane
        ((s.{o + 2} -. !origin) *. 1e6)
        ((s.{o + 3} -. s.{o + 2}) *. 1e6)
        ((lane * span_cap) + i)
        (int_of_float s.{o + 1})
    done
  done;
  output_string oc "\n]}\n";
  close_out oc

(* --- GC ---------------------------------------------------------------- *)

let gc_counts () =
  let g = Gc.quick_stat () in
  (g.Gc.minor_words, float_of_int g.Gc.major_collections)

(* A leaf notes its GC counters when its first traced filter starts and
   again whenever one finishes; the hub measures itself directly. *)
let gc_note_start (s : shm) ~lane =
  if s.{acc lane a_gc_set} = 0.0 then begin
    let minor, major = gc_counts () in
    s.{acc lane a_gc_set} <- 1.0;
    s.{acc lane a_gc_minor0} <- minor;
    s.{acc lane a_gc_major0} <- major
  end

let gc_note_end (s : shm) ~lane =
  let minor, major = gc_counts () in
  s.{acc lane a_gc_minor1} <- minor;
  s.{acc lane a_gc_major1} <- major

let leaf_gc (s : shm) =
  let minor = ref 0.0 and major = ref 0.0 in
  for lane = 1 to lanes - 1 do
    if s.{acc lane a_gc_set} = 1.0 then begin
      minor := !minor +. (s.{acc lane a_gc_minor1} -. s.{acc lane a_gc_minor0});
      major := !major +. (s.{acc lane a_gc_major1} -. s.{acc lane a_gc_major0})
    end
  done;
  (!minor, !major)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- Traced filters -------------------------------------------------

   Wraps a transform so that time blocked in [next] (waiting for
   upstream) and in [emit] (waiting for downstream) land in the lane's
   accumulators, with the remainder counted as busy.  Untraced passes
   run the bare transform. *)

let traced_filter (s : shm) ~lane ~parent (t : Eden_transput.Transform.t) :
    Eden_transput.Transform.t =
 fun next emit ->
  if lane > 0 then gc_note_start s ~lane;
  let t_run = now () in
  let run = span_open s ~lane Filter ~parent t_run in
  (* This filter's own waits; other filters on the lane interleave. *)
  let waits = Float.Array.make 2 0.0 in
  let next' () =
    let a = now () in
    let r = next () in
    let b = now () in
    Float.Array.set waits 0 (Float.Array.get waits 0 +. (b -. a));
    span s ~lane Filter_next ~parent:run a b;
    r
  in
  let emit' v =
    let a = now () in
    emit v;
    let b = now () in
    Float.Array.set waits 1 (Float.Array.get waits 1 +. (b -. a));
    span s ~lane Filter_emit ~parent:run a b
  in
  t next' emit';
  let t_end = now () in
  span_close s run t_end;
  let up = Float.Array.get waits 0 and down = Float.Array.get waits 1 in
  s.{acc lane a_filter_up} <- s.{acc lane a_filter_up} +. up;
  s.{acc lane a_filter_down} <- s.{acc lane a_filter_down} +. down;
  s.{acc lane a_filter_busy} <- s.{acc lane a_filter_busy} +. (t_end -. t_run -. up -. down);
  if lane > 0 then gc_note_end s ~lane

(* --- Estimators -------------------------------------------------------- *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Latency samples, in windows of [window] consecutive samples, so that
   ten lie beyond each window's p99.  Each window yields a p50 and a
   p99, and a run reports the median over its windows: a host stall then
   moves a few windows rather than the run.  Samples sit outside the
   OCaml heap so that the harness does not move peak_heap_mb; a partial
   last window is dropped. *)
type latency = {
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
  mutable total : int;
  mutable p50s : float list;
  mutable p99s : float list;
}

let window = 1000

let latency () =
  {
    data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout window;
    len = 0;
    total = 0;
    p50s = [];
    p99s = [];
  }

(* Nearest rank. *)
let rank a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let lat_add l x =
  l.data.{l.len} <- x;
  l.len <- l.len + 1;
  if l.len = window then begin
    let a = Array.init window (fun i -> l.data.{i}) in
    Array.sort Float.compare a;
    l.p50s <- rank a 0.50 :: l.p50s;
    l.p99s <- rank a 0.99 :: l.p99s;
    l.total <- l.total + window;
    l.len <- 0
  end

(* --- Host speed -----------------------------------------------------------

   On a shared host, neighbours loading the memory subsystem slow this
   process's work by 1.5-2.5x for seconds to minutes at a time.  A
   register-only loop does not see it; an allocating loop does, in step
   with the workloads.  So before each pass, outside its timed region, a
   fixed allocating reference loop runs (median of five), and the pass's
   times are scaled by [host_speed] = [ref_seconds] / its time.  On a
   2-vCPU VM this cut the run-to-run spread (IQR / median) of throughput
   and CPU per item from 0.09-0.28 to 0.03-0.10.  The raw medians are
   printed beside the scaled ones. *)

(* The reference loop's time on that VM when unloaded. *)
let ref_seconds = 3.5e-3

let reference_loop () =
  let t0 = now () in
  for i = 1 to 200_000 do
    ignore (Sys.opaque_identity (String.make 40 (Char.unsafe_chr (i land 127)), [ i; i; i ]))
  done;
  now () -. t0

let host_speed () = ref_seconds /. median (List.init 5 (fun _ -> reference_loop ()))

(* --- Pass loop --------------------------------------------------------- *)

(* One warm-up pass (heap growth and page faults make a process's first
   pass 15-40% slow), then timed passes until [seconds] have elapsed and
   at least [min_passes] have run. *)
let run_passes ~seconds ~min_passes pass =
  ignore (pass ~warm:true ~index:0);
  let t0 = now () in
  let rec go acc i =
    if i > min_passes && now () -. t0 >= seconds then List.rev acc
    else go (pass ~warm:false ~index:i :: acc) (i + 1)
  in
  go [] 1

(* --- Result ------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric name unit_ ~samples value = { name; unit_; value; samples }

(* Prints the human table, then the machine line as the very last line
   of stdout.  A metric that could not be measured (not finite) makes
   the run incorrect; it is printed as 0 to keep the line valid JSON. *)
let report ~workload ~correct ~attempted ~failed ~table metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0" in
  Printf.printf "\n%s: %d items attempted, %d failed\n" workload attempted failed;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6f %-6s (n=%d)\n" m.name m.value m.unit_ m.samples)
    table;
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}"
             (Eden_obs.Obs.Export.json_escape m.name)
             (json_num m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (correct && finite) attempted failed body;
  correct && finite
