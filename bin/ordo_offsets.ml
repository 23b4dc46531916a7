(* Measure the live machine's pairwise clock offsets and ORDO_BOUNDARY
   (the paper's Figure 4 algorithm on real cores), or a simulated preset
   with --machine.  --json swaps the human report for a machine-readable
   document, so the measurement can feed dashboards or a guard config. *)

open Cmdliner
module Report = Ordo_util.Report

(* Hand-rolled JSON: every value here is an int, a string of ints, or a
   matrix of ints, so a serialization library would be pure weight. *)
let json_doc ~source ~cores ~runs ~matrix ~boundary =
  let buf = Buffer.create 1024 in
  let ints l = String.concat ", " (List.map string_of_int l) in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"source\": %S,\n" source);
  Buffer.add_string buf (Printf.sprintf "  \"runs\": %d,\n" runs);
  Buffer.add_string buf (Printf.sprintf "  \"cores\": [%s],\n" (ints cores));
  Buffer.add_string buf "  \"offsets_ns\": [\n";
  let n = Array.length matrix in
  Array.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf "    [%s]%s\n"
           (ints (Array.to_list row))
           (if i = n - 1 then "" else ",")))
    matrix;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"ordo_boundary_ns\": %d\n" boundary);
  Buffer.add_string buf "}";
  Buffer.contents buf

let emit ~json ~source ~cores ~runs ~matrix ~boundary =
  if json then print_endline (json_doc ~source ~cores ~runs ~matrix ~boundary)
  else begin
    Report.kv "sampled hw threads" (String.concat "," (List.map string_of_int cores));
    Report.matrix ~title:"measured offsets (ns), writer row -> reader column" ~row_label:"w\\r"
      matrix;
    Report.kv "ORDO_BOUNDARY (ns)" (string_of_int boundary)
  end

let measure_live json runs max_cores =
  let cpus = min (Ordo_clock.Tsc.num_cpus ()) max_cores in
  if not json then begin
    Report.section "Live clock-offset measurement";
    Report.kv "cores" (string_of_int cpus)
  end;
  if cpus < 2 then
    if json then
      print_endline
        (json_doc ~source:"live" ~cores:(List.init cpus Fun.id) ~runs ~matrix:[||] ~boundary:0)
    else
      print_endline
        "Only one CPU online: there are no core pairs to measure, so the\n\
         ORDO_BOUNDARY is trivially 0.  Try --machine xeon to run the\n\
         measurement on a simulated multicore machine."
  else begin
    let module B = Ordo_core.Boundary.Make (Ordo_runtime.Real.Exec) in
    let cores = List.init cpus Fun.id in
    let matrix = B.offset_matrix ~runs ~cores () in
    let boundary = Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 matrix in
    emit ~json ~source:"live" ~cores ~runs ~matrix ~boundary
  end

let measure_sim json (name, m) runs =
  if not json then
    Report.section (Printf.sprintf "Simulated clock-offset measurement: %s" name);
  let module E = (val Ordo_sim.Sim.exec m) in
  let module B = Ordo_core.Boundary.Make (E) in
  let total = Ordo_util.Topology.total_threads m.Ordo_sim.Machine.topo in
  let stride = max 1 (total / 16) in
  let cores = List.filter (fun i -> i mod stride = 0) (List.init total Fun.id) in
  let matrix = B.offset_matrix ~runs ~cores () in
  let boundary = B.measure ~runs ~cores () in
  emit ~json ~source:name ~cores ~runs ~matrix ~boundary

let run machine runs max_cores json =
  (* Each invocation owns its simulator instance; nothing leaks into (or
     from) other library users in the same process. *)
  Ordo_sim.Sim.with_fresh_instance @@ fun () ->
  (match machine with
  | None -> measure_live json runs max_cores
  | Some m -> measure_sim json m runs);
  0

let machine_arg =
  let doc = "Measure a simulated Table 1 machine (xeon, phi, amd, arm) instead of the host." in
  Arg.(value & opt (some Cli.machine) None & info [ "machine"; "m" ] ~docv:"NAME" ~doc)

let runs_arg =
  let doc = "Measurement rounds per core pair (the minimum is kept)." in
  Arg.(value & opt (Cli.int_min 1) 1000 & info [ "runs" ] ~docv:"N" ~doc)

let max_cores_arg =
  let doc =
    "Limit the number of live cores measured (pairs grow quadratically; at least 2)."
  in
  Arg.(value & opt (Cli.int_min 2) 16 & info [ "max-cores" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Emit the offsets matrix and boundary as JSON instead of the text report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let cmd =
  let doc = "Measure pairwise invariant-clock offsets and the ORDO_BOUNDARY" in
  Cmd.v (Cmd.info "ordo-offsets" ~doc)
    Term.(const run $ machine_arg $ runs_arg $ max_cores_arg $ json_arg)

let () = exit (Cli.eval cmd)
