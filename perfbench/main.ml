(* perfbench: runs one workload and prints its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the last line of stdout is a JSON object holding the
   end-to-end metrics; with --trace 1 it holds the per-layer metrics of
   a separate traced run, and a Chrome-trace JSON file is written to the
   temp directory. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat " " (List.map fst Workloads.all));
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload Workloads.all with Some r -> r | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let o = run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1) in
  (* error_rate is printed in the table but not in the result line: it
     is zero on every correct run, and the result line carries it as
     [failed] / [attempted]. *)
  let table, result =
    if !trace = 0 then
      (o.Workloads.e2e, List.filter (fun (m : Harness.metric) -> m.Harness.name <> "error_rate") o.Workloads.e2e)
    else
      let layers =
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun (n, _, _) -> n = name) o.Workloads.layers with
            | Some (_, v, samples) -> Harness.metric name unit_ ~samples v
            | None -> Harness.metric name unit_ ~samples:0 0.0)
          Layers.names
      in
      (layers, layers)
  in
  if
    not
      (Harness.report ~workload:!workload ~correct:(o.Workloads.failed = 0)
         ~attempted:o.Workloads.attempted ~failed:o.Workloads.failed ~table result)
  then exit 1
