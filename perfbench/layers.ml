(* Every per-layer metric of the traced run, with its unit.  A workload
   whose path does not include a layer reports 0 for it. *)
let names =
  [
    ("par.cross_frames_per_item", "count");
    ("par.hub_cpu_us_per_item", "us");
    ("par.leaf_cpu_us_per_item", "us");
    ("wire.frame_bytes_per_payload_byte", "ratio");
    ("wire.codec_us_per_item", "us");
    ("wire.frame_us_per_item", "us");
    ("wire.pump_floor_mb_s", "MB/s");
    ("chunk.memcpy_floor_mb_s", "MB/s");
    ("filters.busy_us_per_item", "us");
    ("filters.wait_up_us_per_item", "us");
    ("filters.wait_down_us_per_item", "us");
    ("core.exchanges_per_item", "count");
    ("flowctl.items_per_exchange", "count");
    ("kernel.activations_per_wake", "count");
    ("kernel.bytes_per_entity", "B");
    ("kernel.create_us_per_entity", "us");
    ("gc.minor_words_per_item", "words");
    ("gc.major_collections", "count");
    ("gen.busy_us_per_item", "us");
    ("sink.busy_us_per_item", "us");
    ("chunk.views_leaked", "count");
    ("trace.overhead_pct", "%");
  ]
