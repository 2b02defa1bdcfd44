module Kernel = Eden_kernel.Kernel
module Uid = Eden_kernel.Uid
module Value = Eden_kernel.Value
module Sched = Eden_sched.Sched
module Ivar = Eden_sched.Ivar
module Prng = Eden_util.Prng
module Obs = Eden_obs.Obs
module Frame = Eden_wire.Frame
module Bin = Eden_wire.Bin
module Transport = Eden_wire.Transport
module Faults = Eden_wire.Faults
module Auth = Eden_wire.Auth

type wire_config = {
  wire_transport : Transport.kind;
  wire_faults : Faults.t option;
  (* When set, the fork-time handshake runs the RFC-0002 three-layer
     exchange (community id, keyed MAC, per-connection session token)
     and every post-handshake frame on every socket is sealed with an
     8-byte MAC trailer.  [None] is the plain version-1 handshake —
     the benchmark baseline (A1 measures the difference). *)
  wire_auth : Auth.community option;
}

type mode = Deterministic | Parallel | Wire of wire_config

type msg =
  | Request of {
      req_id : int;
      from_shard : int;
      target : Uid.t;
      op : string;
      arg : Value.t;
    }
  | Reply of { req_id : int; reply : Kernel.reply }

type shard = {
  index : int;
  kernel : Kernel.t;
  inbox : msg Dqueue.t;
  (* Both tables below are touched only by the shard's own domain:
     [forward] runs in a fiber of this shard, [inject] in its pump
     loop. *)
  pending : (int, Kernel.reply Ivar.t) Hashtbl.t;
  mutable next_req : int;
  mutable ctx : Kernel.ctx option;
}

(* Stats a leaf process reports back over its socket at shutdown —
   everything the in-process accessors would have read from the shard's
   kernel directly.  Histograms are deliberately absent: wall-clock
   timing makes them transport-dependent, so wire-mode histograms cover
   the hub shard only. *)
type remote_stats = {
  r_meter : Kernel.Meter.snapshot;
  r_ops : (string * int) list;
  r_flows : (string * int * int) list;
  r_makespan : float;
}

(* Hub (shard 0, the parent process) of the star topology: leaves
   connect only to the hub, which routes leaf-to-leaf frames by [dst].
   [sent_to] counts data frames actually written to each leaf (a frame
   eaten by fault injection is not in flight); [idle_at] is the
   processed-frame count from the leaf's latest IDLE.  Socket FIFO
   ordering makes "idle_at = sent_to for every leaf" a sound
   termination condition: a leaf writes everything it emitted before
   the IDLE that acknowledges our last frame, so once the hub has read
   that IDLE there is nothing left in flight from that leaf. *)
type hub = {
  conns : Frame.conn array; (* index 0 unused *)
  pids : int array;
  sent_to : int array;
  idle_at : int array;
  hfaults : Faults.t option;
  remote : remote_stats option array;
  (* Per-connection MAC sessions under [wire_auth]; all [None] on the
     plain path. *)
  hsessions : Auth.session option array;
}

type leaf = {
  conn : Frame.conn;
  session : Auth.session option;
  mutable processed : int; (* data frames consumed off the socket *)
  mutable last_idle_sent : int;
}

let seal_opt sess f = match sess with None -> f | Some s -> Auth.seal s f
let mac_overhead sess = match sess with None -> 0 | Some _ -> 8

(* One frame off a connection, into its receive buffer; a sealed one
   has its MAC checked there and stripped from the header.  The payload
   is decoded in place by [body_value] (valid until the next receive). *)
let receive conn sess =
  let hdr = Frame.recv conn in
  match sess with None -> hdr | Some s -> Auth.verify_received s conn hdr

let body_value conn sess = Frame.decode_received ~trailer:(mac_overhead sess) conn

(* Egress ownership.  Once a value is on the wire the receiving process
   owns its own decoded copy, so the sender gives back the chunk
   references the value carried, as an in-process receiver would have
   released them.  Without this every serialised chunk stays live in
   the sender until the GC collects its root. *)
let rec release_chunks = function
  | Value.Chunk c -> Eden_chunk.Chunk.release c
  | Value.List vs -> List.iter release_chunks vs
  | _ -> ()

(* One value-carrying frame: gathered when plain, staged once and
   sealed in place under a session (the MAC covers the whole payload). *)
let send_body conn sess ~kind ~src ~dst ~seq body =
  match sess with
  | None -> Frame.send_value conn ~kind ~src ~dst ~seq body
  | Some s -> Auth.send_value s conn ~kind ~src ~dst ~seq body

type fabric = Inproc | Hub of hub | Leaf of leaf

type t = {
  cluster_mode : mode;
  shards : shard array;
  in_flight : int Atomic.t;
  idle : int Atomic.t;
  carried : int Atomic.t;
  mutable ran : bool;
  (* Deterministic-mode shard-order policy; [None] is the fixed
     round-robin baseline. *)
  mutable det_pick : (n:int -> int) option;
  (* How [forward] reaches other shards: in-process inboxes, or — in
     wire mode, after the fork — this process's end of the sockets. *)
  mutable fabric : fabric;
}

let mode t = t.cluster_mode
let set_det_pick t p = t.det_pick <- p
let shard_count t = Array.length t.shards
let kernel t i = t.shards.(i).kernel
let cross_messages t = Atomic.get t.carried

let create ?(seed = 0xEDE0L) ?latency cluster_mode ~shards:n () =
  if n <= 0 then invalid_arg "Cluster.create: shards must be positive";
  (match cluster_mode with
  | Wire _ when n > 256 -> invalid_arg "Cluster.create: wire mode caps shards at 256"
  | _ -> ());
  let root = Prng.create seed in
  let streams = Prng.split_n root n in
  let shards =
    Array.init n (fun index ->
        let kernel =
          Kernel.create ~seed:(Prng.next_int64 streams.(index)) ?latency ()
        in
        {
          index;
          kernel;
          inbox = Dqueue.create ~label:(Printf.sprintf "shard-%d" index) ();
          pending = Hashtbl.create 16;
          next_req = 0;
          ctx = None;
        })
  in
  let t =
    {
      cluster_mode;
      shards;
      in_flight = Atomic.make 0;
      idle = Atomic.make 0;
      carried = Atomic.make 0;
      ran = false;
      det_pick = None;
      fabric = Inproc;
    }
  in
  (* Capture a driver context per shard: proxy handlers and injected
     requests invoke through it.  The stashing fiber runs and finishes
     here, before any user code. *)
  Array.iter
    (fun sh ->
      Kernel.spawn_driver sh.kernel ~name:"par-ctx" (fun ctx ->
          sh.ctx <- Some ctx);
      Sched.run (Kernel.sched sh.kernel))
    shards;
  t

let driver t i f = Kernel.spawn_driver t.shards.(i).kernel ~name:"par-driver" f

let post t ~dst m =
  (* in_flight covers the message from before it is visible to the
     receiver until after the receiver has left the idle count — the
     invariant the termination check relies on. *)
  Atomic.incr t.in_flight;
  Atomic.incr t.carried;
  if not (Dqueue.push t.shards.(dst).inbox m) then begin
    Atomic.decr t.in_flight;
    invalid_arg "Cluster: message posted after shutdown"
  end

(* --- Wire framing ---------------------------------------------------- *)

let perr fmt =
  Printf.ksprintf (fun m -> raise (Value.Protocol_error ("cluster: " ^ m))) fmt

let request_body ~target ~op arg = Value.List [ Value.Uid target; Value.Str op; arg ]

let parse_request = function
  | Value.List [ Value.Uid target; Value.Str op; arg ] -> (target, op, arg)
  | v -> perr "malformed request payload %s" (Value.preview v)

let reply_body (reply : Kernel.reply) =
  match reply with
  | Ok v -> Value.List [ Value.Bool true; v ]
  | Error m -> Value.List [ Value.Bool false; Value.Str m ]

let parse_reply : Value.t -> Kernel.reply = function
  | Value.List [ Value.Bool true; v ] -> Ok v
  | Value.List [ Value.Bool false; Value.Str m ] -> Error m
  | v -> perr "malformed reply payload %s" (Value.preview v)

let flows_of_kernel k =
  List.map
    (fun (s : Obs.Flow.stage) -> (s.label, s.items_in, s.items_out))
    (Obs.stages (Kernel.obs k))

let meter_to_value (m : Kernel.Meter.snapshot) =
  let n = m.net in
  Value.List
    [
      Value.Int m.invocations; Value.Int m.replies; Value.Int m.activations;
      Value.Int m.ejects_created; Value.Int m.ejects_live; Value.Int m.crashes;
      Value.Int m.timeouts;
      Value.List
        [
          Value.Int n.Eden_net.Net.sent; Value.Int n.delivered; Value.Int n.dropped;
          Value.Int n.dropped_loss; Value.Int n.dropped_partition; Value.Int n.bytes;
        ];
    ]

let meter_of_value v : Kernel.Meter.snapshot =
  match v with
  | Value.List
      [
        Value.Int invocations; Value.Int replies; Value.Int activations;
        Value.Int ejects_created; Value.Int ejects_live; Value.Int crashes;
        Value.Int timeouts;
        Value.List
          [
            Value.Int sent; Value.Int delivered; Value.Int dropped;
            Value.Int dropped_loss; Value.Int dropped_partition; Value.Int bytes;
          ];
      ] ->
      {
        invocations; replies; activations; ejects_created; ejects_live; crashes;
        timeouts;
        net =
          { Eden_net.Net.sent; delivered; dropped; dropped_loss; dropped_partition;
            bytes };
      }
  | v -> perr "malformed meter %s" (Value.preview v)

let stats_value sh =
  let m = Kernel.Meter.snapshot sh.kernel in
  let ops =
    Value.List
      (List.map
         (fun (op, n) -> Value.pair (Value.Str op) (Value.Int n))
         (Kernel.op_counts sh.kernel))
  in
  let flows =
    Value.List
      (List.map
         (fun (label, i, o) ->
           Value.List [ Value.Str label; Value.Int i; Value.Int o ])
         (flows_of_kernel sh.kernel))
  in
  Value.List
    [ meter_to_value m; ops; flows; Value.Float (Sched.now (Kernel.sched sh.kernel)) ]

let parse_stats = function
  | Value.List [ meter; Value.List ops; Value.List flows; Value.Float mk ] ->
      {
        r_meter = meter_of_value meter;
        r_ops =
          List.map
            (function
              | Value.List [ Value.Str op; Value.Int n ] -> (op, n)
              | v -> perr "malformed op count %s" (Value.preview v))
            ops;
        r_flows =
          List.map
            (function
              | Value.List [ Value.Str l; Value.Int i; Value.Int o ] -> (l, i, o)
              | v -> perr "malformed flow %s" (Value.preview v))
            flows;
        r_makespan = mk;
      }
  | v -> perr "malformed stats %s" (Value.preview v)

(* Hub egress to a leaf, through fault injection.  Only hub egress is
   faultable: that one chokepoint sees every cross-process frame exactly
   once, which is what lets a replay's per-frame loss script line up
   with the wire.  [size] is what the frame costs on the wire, MAC
   trailer included; [write] is called only if the frame survives.
   Sealing happens inside [write], so a fault-dropped frame never
   advances the MAC send counter the receiver would check. *)
let hub_egress h ~dst ~size write =
  let action =
    match h.hfaults with
    | None -> Faults.Pass
    | Some fl -> Faults.apply fl ~established:true ~size
  in
  match action with
  | Faults.Drop -> ()
  | Faults.Delay d ->
      Unix.sleepf d;
      write ();
      h.sent_to.(dst) <- h.sent_to.(dst) + 1
  | Faults.Pass ->
      write ();
      h.sent_to.(dst) <- h.sent_to.(dst) + 1

(* A frame the hub itself originates (a proxied request or the reply
   to one).  Its chunks are released whether or not the fault layer
   let it through. *)
let hub_send t h ~kind ~dst ~seq body =
  Atomic.incr t.carried;
  let sess = h.hsessions.(dst) in
  hub_egress h ~dst
    ~size:(Frame.value_size body + mac_overhead sess)
    (fun () -> send_body h.conns.(dst) sess ~kind ~src:0 ~dst ~seq body);
  release_chunks body

(* A leaf-to-leaf frame, already counted once on receipt, goes out of
   the source connection's receive buffer: untouched when plain,
   re-sealed for the destination's session otherwise. *)
let hub_relay h ~src hdr =
  let from = h.conns.(src) and dst = hdr.Frame.dst in
  hub_egress h ~dst ~size:(Frame.received_size from) (fun () ->
      match h.hsessions.(dst) with
      | None -> Frame.relay ~into:h.conns.(dst) from
      | Some s -> Auth.relay s hdr ~into:h.conns.(dst) from)

let forward t sh ~target:(tshard, tuid) ~op arg =
  let req_id = sh.next_req in
  sh.next_req <- req_id + 1;
  let slot = Ivar.create () in
  Hashtbl.replace sh.pending req_id slot;
  (match t.fabric with
  | Inproc ->
      post t ~dst:tshard
        (Request { req_id; from_shard = sh.index; target = tuid; op; arg })
  | Hub h ->
      hub_send t h ~kind:Frame.Request ~dst:tshard ~seq:req_id
        (request_body ~target:tuid ~op arg)
  | Leaf l ->
      (* Leaf egress is never faulted (only the hub chokepoint is). *)
      Atomic.incr t.carried;
      let body = request_body ~target:tuid ~op arg in
      send_body l.conn l.session ~kind:Frame.Request ~src:sh.index ~dst:tshard
        ~seq:req_id body;
      release_chunks body);
  match Ivar.read slot with
  | Ok v -> v
  | Error m -> raise (Kernel.Eden_error m)

let proxy t ~shard ~ops ~target:(tshard, tuid) =
  let sh = t.shards.(shard) in
  if tshard = shard then tuid
  else
    Kernel.create_eject sh.kernel ~dispatch:Kernel.Serial
      ~type_name:"par-proxy" (fun ctx ~passive:_ ->
        List.map
          (fun op ->
            ( op,
              fun arg ->
                (* The round-trip to the remote shard — socket or inbox —
                   is expected blocking, not a stall (see
                   [Pipeline.stall_report]). *)
                Kernel.with_transport_wait ctx (fun () ->
                    forward t sh ~target:(tshard, tuid) ~op arg) ))
          ops)

let inject t sh = function
  | Request { req_id; from_shard; target; op; arg } ->
      let ctx =
        match sh.ctx with
        | Some c -> c
        | None -> assert false
      in
      ignore
        (Sched.spawn (Kernel.sched sh.kernel) ~name:"par-inject" (fun () ->
             let reply = Kernel.invoke ctx target ~op arg in
             post t ~dst:from_shard (Reply { req_id; reply })))
  | Reply { req_id; reply } -> (
      match Hashtbl.find_opt sh.pending req_id with
      | Some slot ->
          Hashtbl.remove sh.pending req_id;
          Ivar.fill slot reply
      | None -> assert false)

let close_all t = Array.iter (fun sh -> Dqueue.close sh.inbox) t.shards

(* Parallel pump loop: run the shard's scheduler to quiescence, then
   look for cross-shard messages.  A shard only joins the idle count
   when both its scheduler and its inbox are drained, and leaves it
   before touching a newly popped message. *)
let shard_loop t sh =
  let n = Array.length t.shards in
  let rec go () =
    Sched.run (Kernel.sched sh.kernel);
    match Dqueue.try_pop sh.inbox with
    | Some m ->
        Atomic.decr t.in_flight;
        inject t sh m;
        go ()
    | None -> (
        let idle_now = 1 + Atomic.fetch_and_add t.idle 1 in
        (* When idle = n no fiber is running anywhere, so in_flight
           cannot rise concurrently: reading 0 here proves global
           quiescence. *)
        if idle_now = n && Atomic.get t.in_flight = 0 then close_all t;
        match Dqueue.pop sh.inbox with
        | None -> ()
        | Some m ->
            Atomic.decr t.idle;
            Atomic.decr t.in_flight;
            inject t sh m;
            go ())
  in
  go ()

(* Deterministic pump: fixed shard order, each scheduler run to
   quiescence before its inbox is drained; repeat until a full pass
   moves no message and none is in flight.  The in_flight check matters:
   a shard late in the pass order can post into an inbox that was
   already drained this pass. *)
let det_loop t =
  let n = Array.length t.shards in
  let pump sh =
    Sched.run (Kernel.sched sh.kernel);
    let rec drain progressed =
      match Dqueue.try_pop sh.inbox with
      | Some m ->
          Atomic.decr t.in_flight;
          inject t sh m;
          drain true
      | None -> progressed
    in
    drain false
  in
  (* One pass visits every shard exactly once.  With no policy the
     visit order is ascending shard index (the historical round-robin);
     a policy repeatedly picks among the shards not yet visited this
     pass, so exploration can reorder cross-shard message handling
     without ever skipping or double-pumping a shard. *)
  let pass () =
    let progressed = ref false in
    match t.det_pick with
    | None -> Array.iter (fun sh -> if pump sh then progressed := true) t.shards;
        !progressed
    | Some pick ->
        let remaining = ref (List.init n Fun.id) in
        while !remaining <> [] do
          let m = List.length !remaining in
          let i = if m = 1 then 0 else pick ~n:m in
          if i < 0 || i >= m then
            invalid_arg
              (Printf.sprintf "Cluster: det_pick returned %d for %d-way pick" i m);
          let shard_idx = List.nth !remaining i in
          remaining := List.filteri (fun j _ -> j <> i) !remaining;
          if pump t.shards.(shard_idx) then progressed := true
        done;
        !progressed
  in
  let progressed = ref true in
  while !progressed || Atomic.get t.in_flight > 0 do
    progressed := pass ()
  done;
  close_all t

(* --- Wire loops ------------------------------------------------------ *)

(* Leaf process: pump the local scheduler, report idleness, block on the
   socket.  A Shutdown frame answers with a Stats frame and returns. *)
let leaf_loop t sh l =
  let spawn_request hdr =
    let target, op, arg = parse_request (body_value l.conn l.session) in
    let ctx = match sh.ctx with Some c -> c | None -> assert false in
    let req_id = hdr.Frame.seq and from = hdr.Frame.src in
    ignore
      (Sched.spawn (Kernel.sched sh.kernel) ~name:"wire-inject" (fun () ->
           let reply = reply_body (Kernel.invoke ctx target ~op arg) in
           Atomic.incr t.carried;
           send_body l.conn l.session ~kind:Frame.Reply ~src:sh.index ~dst:from
             ~seq:req_id reply;
           release_chunks reply))
  in
  let rec loop () =
    Sched.run (Kernel.sched sh.kernel);
    (* A leaf with frames already buffered is not idle: they were sent
       to it, so an Idle now could not end the run. *)
    if l.processed <> l.last_idle_sent && not (Frame.pending l.conn) then begin
      Frame.send l.conn
        (seal_opt l.session
           (Frame.make ~kind:Frame.Idle ~src:sh.index ~dst:0 ~seq:l.processed ""));
      l.last_idle_sent <- l.processed
    end;
    let hdr = receive l.conn l.session in
    match hdr.Frame.kind with
    | Frame.Shutdown ->
        send_body l.conn l.session ~kind:Frame.Stats ~src:sh.index ~dst:0 ~seq:0
          (stats_value sh)
    | Frame.Request ->
        l.processed <- l.processed + 1;
        spawn_request hdr;
        loop ()
    | Frame.Reply ->
        l.processed <- l.processed + 1;
        let seq = hdr.Frame.seq in
        (match Hashtbl.find_opt sh.pending seq with
        | Some slot ->
            Hashtbl.remove sh.pending seq;
            Ivar.fill slot (parse_reply (body_value l.conn l.session))
        | None -> perr "leaf %d: reply for unknown request %d" sh.index seq);
        loop ()
    | k -> perr "leaf %d: unexpected %s frame" sh.index (Frame.kind_name k)
  in
  loop ()

(* Hub loop: run shard 0 to quiescence, then wait for leaf traffic until
   every leaf has acknowledged everything we sent it. *)
let hub_loop t h =
  let n = Array.length t.shards in
  let sh0 = t.shards.(0) in
  let handle src =
    let conn = h.conns.(src) and sess = h.hsessions.(src) in
    let hdr = receive conn sess in
    match hdr.Frame.kind with
    | Frame.Idle -> h.idle_at.(src) <- hdr.Frame.seq
    | Frame.Request | Frame.Reply ->
        Atomic.incr t.carried;
        let seq = hdr.Frame.seq in
        if hdr.Frame.dst <> 0 then
          (* Leaf-to-leaf: already counted once on receipt, so routing
             is not a second cross-shard message. *)
          hub_relay h ~src hdr
        else if hdr.Frame.kind = Frame.Request then begin
          let target, op, arg = parse_request (body_value conn sess) in
          let ctx = match sh0.ctx with Some c -> c | None -> assert false in
          ignore
            (Sched.spawn (Kernel.sched sh0.kernel) ~name:"wire-inject" (fun () ->
                 let reply = Kernel.invoke ctx target ~op arg in
                 hub_send t h ~kind:Frame.Reply ~dst:src ~seq (reply_body reply)))
        end
        else begin
          match Hashtbl.find_opt sh0.pending seq with
          | Some slot ->
              Hashtbl.remove sh0.pending seq;
              Ivar.fill slot (parse_reply (body_value conn sess))
          | None -> perr "hub: reply for unknown request %d" seq
        end
    | k -> perr "hub: unexpected %s frame from shard %d" (Frame.kind_name k) src
  in
  let finished () =
    let ok = ref true in
    for i = 1 to n - 1 do
      if h.idle_at.(i) <> h.sent_to.(i) then ok := false
    done;
    !ok
  in
  let fd_shard = Hashtbl.create 8 in
  for i = 1 to n - 1 do
    Hashtbl.replace fd_shard (Frame.fd h.conns.(i)) i
  done;
  let leaves = List.init (n - 1) succ in
  let fds = List.map (fun i -> Frame.fd h.conns.(i)) leaves in
  let rec loop () =
    Sched.run (Kernel.sched sh0.kernel);
    if not (finished ()) then begin
      (* Frames already in a receive buffer are invisible to select. *)
      let buffered = List.filter (fun i -> Frame.pending h.conns.(i)) leaves in
      let readable =
        match Unix.select fds [] [] (if buffered = [] then 30.0 else 0.0) with
        | [], _, _ when buffered = [] ->
            failwith "Cluster: wire hub saw no traffic for 30s — leaf stalled?"
        | ready, _, _ -> List.map (Hashtbl.find fd_shard) ready
      in
      List.iter handle (List.sort_uniq compare (buffered @ readable));
      loop ()
    end
  in
  loop ()

let hub_shutdown t h =
  let n = Array.length t.shards in
  for i = 1 to n - 1 do
    Frame.send h.conns.(i)
      (seal_opt h.hsessions.(i) (Frame.make ~kind:Frame.Shutdown ~src:0 ~dst:i ""))
  done;
  for i = 1 to n - 1 do
    let rec await () =
      let hdr = receive h.conns.(i) h.hsessions.(i) in
      match hdr.Frame.kind with
      | Frame.Stats ->
          h.remote.(i) <- Some (parse_stats (body_value h.conns.(i) h.hsessions.(i)))
      | Frame.Idle -> await ()
      | k -> perr "hub: expected stats from shard %d, got %s" i (Frame.kind_name k)
    in
    await ()
  done

(* The accept phase of a wire run, bounded: a leaf that dies before it
   dials, or dials and never finishes its hello, must not hang the hub.
   Between waits every missing shard is polled with [exited]. *)
let hello_deadline = 10.0

let await_hellos server ~shards:n ~within ~exited ~hello =
  let fds = Array.make n None in
  let deadline = Unix.gettimeofday () +. within in
  let fail missing why =
    Array.iter (Option.iter Unix.close) fds;
    failwith
      (Printf.sprintf "Cluster: wire shard%s %s never said hello: %s"
         (if List.length missing = 1 then "" else "s")
         (String.concat ", " (List.map string_of_int missing))
         why)
  in
  let rec loop () =
    let missing = List.filter (fun i -> fds.(i) = None) (List.init (n - 1) succ) in
    if missing <> [] then begin
      let gone =
        List.filter_map
          (fun i -> Option.map (Printf.sprintf "shard %d %s" i) (exited i))
          missing
      in
      if gone <> [] then fail missing (String.concat ", " gone);
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then fail missing (Printf.sprintf "no hello within %gs" within);
      (match Transport.accept_within server (Float.min left 0.05) with
      | None -> ()
      | Some fd -> (
          (* A peer that connects and then stalls mid-hello is held to
             the same deadline. *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO
            (Float.max 0.001 (deadline -. Unix.gettimeofday ()));
          match hello fd with
          | shard ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.0;
              fds.(shard) <- Some fd
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Unix.close fd));
      loop ()
    end
  in
  loop ();
  Array.map (function Some fd -> fd | None -> Unix.stdin) fds

(* Fork one process per leaf shard after the topology is built: every
   closure, Eject and UID crosses by inheritance, so both sides of each
   proxy already agree on names without any wire-level bootstrap. *)
let wire_run t cfg =
  let n = Array.length t.shards in
  if n = 1 then det_loop t
  else begin
    (* Leaves write only to their socket; make a dead hub surface as an
       orderly EPIPE-free read error, and keep buffered output from
       being flushed twice across the fork. *)
    flush stdout;
    flush stderr;
    let prev_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let server = Transport.listen cfg.wire_transport in
    let nonce = Random.State.bits64 (Random.State.make_self_init ()) in
    let pids = Array.make n 0 in
    let cleanup_children () =
      Array.iteri
        (fun i pid ->
          if i > 0 && pid > 0 then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
          end)
        pids
    in
    let restore () =
      Transport.close_server server;
      match prev_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ()
    in
    (* A leaf reaped here is marked, so cleanup never signals a pid
       that may since have been reused. *)
    let exited i =
      if pids.(i) <= 0 then Some "exited"
      else
        match Unix.waitpid [ Unix.WNOHANG ] pids.(i) with
        | 0, _ -> None
        | _, status ->
            pids.(i) <- 0;
            Some
              (match status with
              | Unix.WEXITED c -> Printf.sprintf "exited %d" c
              | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "killed by %d" s)
        | exception Unix.Unix_error _ ->
            pids.(i) <- 0;
            Some "exited"
    in
    match
      for i = 1 to n - 1 do
        match Unix.fork () with
        | 0 -> (
            (* Leaf process for shard i. *)
            pids.(i) <- 0;
            try
              let fd = Transport.dial server in
              let session =
                match cfg.wire_auth with
                | None ->
                    Frame.write fd (Frame.hello ~shard:i ~nonce);
                    let shard, n2 =
                      Frame.parse_handshake ~expect:Frame.Welcome (Frame.read fd)
                    in
                    if shard <> i || not (Int64.equal n2 nonce) then
                      perr "leaf %d: welcome names shard %d" i shard;
                    None
                | Some c -> (
                    Frame.write fd (Auth.hello c ~shard:i ~nonce);
                    match Auth.verify_welcome c ~expect_nonce:nonce (Frame.read fd) with
                    | Error reason -> perr "leaf %d: %s" i reason
                    | Ok token -> Some (Auth.session c ~token))
              in
              let l = { conn = Frame.conn fd; session; processed = 0; last_idle_sent = -1 } in
              t.fabric <- Leaf l;
              leaf_loop t t.shards.(i) l;
              (* _exit: skip at_exit handlers (test-runner reporting,
                 buffered IO) inherited from the parent image. *)
              Unix._exit 0
            with e ->
              Printf.eprintf "eden-wire leaf %d: %s\n%!" i (Printexc.to_string e);
              Unix._exit 2)
        | pid -> pids.(i) <- pid
      done
    with
    | exception e ->
        cleanup_children ();
        restore ();
        raise e
    | () -> (
        let hsessions = Array.make n None in
        let seen = Array.make n false in
        let claim shard n2 =
          if shard < 1 || shard >= n then perr "hub: hello from shard %d" shard;
          if seen.(shard) then perr "hub: duplicate hello from shard %d" shard;
          if not (Int64.equal n2 nonce) then
            perr "hub: hello nonce mismatch from shard %d" shard;
          seen.(shard) <- true
        in
        let hello fd =
          match cfg.wire_auth with
          | None ->
              let shard, n2 = Frame.parse_handshake ~expect:Frame.Hello (Frame.read fd) in
              claim shard n2;
              Frame.write fd (Frame.welcome ~shard ~nonce);
              shard
          | Some c -> (
              match
                Auth.verify_hello
                  ~lookup:(fun id -> if Int64.equal id c.Auth.id then Some c else None)
                  (Frame.read fd)
              with
              | Error reason -> perr "hub: %s" reason
              | Ok (shard, n2, c) ->
                  claim shard n2;
                  let token = Auth.mint_token c ~shard ~nonce in
                  Frame.write fd (Auth.welcome c ~shard ~nonce ~token);
                  hsessions.(shard) <- Some (Auth.session c ~token);
                  shard)
        in
        match
          let fds = await_hellos server ~shards:n ~within:hello_deadline ~exited ~hello in
          let h =
            {
              conns = Array.map Frame.conn fds;
              pids;
              sent_to = Array.make n 0;
              idle_at = Array.make n (-1);
              hfaults = cfg.wire_faults;
              remote = Array.make n None;
              hsessions;
            }
          in
          t.fabric <- Hub h;
          hub_loop t h;
          hub_shutdown t h;
          fds
        with
        | exception e ->
            cleanup_children ();
            restore ();
            raise e
        | fds ->
            Array.iteri (fun i fd -> if i > 0 then try Unix.close fd with _ -> ()) fds;
            for i = 1 to n - 1 do
              match snd (Unix.waitpid [] pids.(i)) with
              | Unix.WEXITED 0 -> ()
              | Unix.WEXITED c ->
                  restore ();
                  failwith (Printf.sprintf "Cluster: wire leaf %d exited %d" i c)
              | Unix.WSIGNALED s | Unix.WSTOPPED s ->
                  restore ();
                  failwith (Printf.sprintf "Cluster: wire leaf %d killed by %d" i s)
            done;
            restore ())
  end

let run t =
  if t.ran then invalid_arg "Cluster.run: already run";
  t.ran <- true;
  (match t.cluster_mode with
  | Deterministic -> det_loop t
  | Parallel ->
      let domains =
        Array.map (fun sh -> Domain.spawn (fun () -> shard_loop t sh)) t.shards
      in
      Array.iter Domain.join domains
  | Wire cfg -> wire_run t cfg);
  match t.fabric with
  | Hub _ ->
      (* Leaf failures surfaced through exit codes in [wire_run]; only
         the hub shard's fibers live in this process. *)
      Sched.check_failures (Kernel.sched t.shards.(0).kernel)
  | Inproc | Leaf _ ->
      Array.iter (fun sh -> Sched.check_failures (Kernel.sched sh.kernel)) t.shards

(* --- Aggregated accessors -------------------------------------------- *)

(* In wire mode (after [run]) the parent's copies of leaf kernels are
   stale pre-fork snapshots; aggregate shard 0 with the stats each leaf
   reported at shutdown instead. *)

let remote_list t =
  match t.fabric with
  | Hub h ->
      Some
        (List.filter_map Fun.id
           (Array.to_list (Array.sub h.remote 1 (Array.length t.shards - 1))))
  | Inproc | Leaf _ -> None

let meter t =
  match remote_list t with
  | Some remotes ->
      List.fold_left
        (fun acc r -> Kernel.Meter.add acc r.r_meter)
        (Kernel.Meter.snapshot t.shards.(0).kernel)
        remotes
  | None ->
      Array.fold_left
        (fun acc sh -> Kernel.Meter.add acc (Kernel.Meter.snapshot sh.kernel))
        Kernel.Meter.zero t.shards

let op_counts t =
  let tbl = Hashtbl.create 16 in
  let add (op, n) =
    Hashtbl.replace tbl op (n + Option.value ~default:0 (Hashtbl.find_opt tbl op))
  in
  (match remote_list t with
  | Some remotes ->
      List.iter add (Kernel.op_counts t.shards.(0).kernel);
      List.iter (fun r -> List.iter add r.r_ops) remotes
  | None -> Array.iter (fun sh -> List.iter add (Kernel.op_counts sh.kernel)) t.shards);
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let flows t =
  let all =
    match remote_list t with
    | Some remotes ->
        flows_of_kernel t.shards.(0).kernel
        @ List.concat_map (fun r -> r.r_flows) remotes
    | None ->
        Array.fold_left
          (fun acc sh -> flows_of_kernel sh.kernel @ acc)
          [] t.shards
  in
  List.sort compare all

let histograms t =
  let tbl = Hashtbl.create 16 in
  let fold k =
    List.iter
      (fun (name, h) ->
        match Hashtbl.find_opt tbl name with
        | None -> Hashtbl.add tbl name h
        | Some into -> Obs.Histogram.merge ~into h)
      (Obs.histograms (Kernel.obs k))
  in
  (match remote_list t with
  | Some _ ->
      (* Wall-clock timing makes leaf histograms transport-dependent;
         wire mode reports the hub shard only. *)
      fold t.shards.(0).kernel
  | None -> Array.iter (fun sh -> fold sh.kernel) t.shards);
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let makespans t =
  match remote_list t with
  | Some _ -> (
      let h = match t.fabric with Hub h -> h | _ -> assert false in
      Array.init (Array.length t.shards) (fun i ->
          if i = 0 then Sched.now (Kernel.sched t.shards.(0).kernel)
          else match h.remote.(i) with Some r -> r.r_makespan | None -> 0.0))
  | None ->
      Array.map (fun sh -> Sched.now (Kernel.sched sh.kernel)) t.shards
