(* The as-shipped benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload through the library's public entry points with
   default options, checks every output, prints the metrics by name
   with their units, and ends with one JSON line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   a separate traced run reports the per-layer ones, prints a self-time
   table and writes a Chrome trace-event file under perfbench/out/.
   The exit code is 0 only when every output checked out. *)

let out_dir = Filename.concat "perfbench" "out"

let usage () =
  prerr_endline
    "usage: bench.exe --workload grid-large|rmat-large|flat-rmat|daemon-mix --seed N \
     --seconds S --trace 0|1";
  exit 2

(* a metric with no value (every operation failed) is [null] *)
let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report (o_attempted, o_failed, errors) metrics note =
  List.iteri (fun i e -> if i < 10 then Printf.printf "FAILED %s\n" e) errors;
  if List.length errors > 10 then Printf.printf "FAILED ... %d more\n" (List.length errors - 10);
  Printf.printf "%s\n" note;
  Printf.printf "%-32s %18s  %s\n" "metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %18.6f  %s\n" n v u) metrics;
  Printf.printf "%-32s %18.6f  %s\n" "error_rate"
    (float_of_int o_failed /. float_of_int (max 1 o_attempted)) "ratio";
  let correct = o_failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o_attempted o_failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string n)
              (json_number v) (Trace.json_string u))
          metrics));
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let rec parse = function
    | [] -> ()
    | [ "--daemon-child"; sock ] -> Daemonload.child sock
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value ~default:(-1.0) (float_of_string_opt v);
      parse rest
    | "--trace" :: v :: rest ->
      trace := Option.value ~default:(-1) (int_of_string_opt v);
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
  in
  let seed = !seed and seconds = !seconds in
  try
    match List.find_opt (fun w -> w.Mapload.name = !workload) Mapload.all with
    | Some w ->
      let o, metrics, note =
        if traced then Mapload.traced w ~seed ~seconds ~trace_file
        else Mapload.measure w ~seed ~seconds
      in
      report (o.Mapload.attempted, o.Mapload.failed, o.Mapload.errors) metrics note
    | None when !workload = Daemonload.name ->
      let sock = Filename.concat out_dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
      let o, metrics, note =
        if traced then Daemonload.traced ~sock ~seed ~seconds ~trace_file
        else Daemonload.measure ~sock ~seed ~seconds
      in
      report (o.Daemonload.attempted, o.Daemonload.failed, o.Daemonload.errors) metrics note
    | None -> usage ()
  with e ->
    Daemonload.kill ();
    Printf.eprintf "benchmark failed: %s\n" (Printexc.to_string e);
    exit 1
