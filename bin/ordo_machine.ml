(* Report the host's clock backend and calibration — a quick sanity probe
   before trusting Ordo timestamps on a new machine.  With
   [--cluster SPEC] it instead describes a simulated cluster topology:
   nodes, link parameters, drawn clock offsets and the composed
   boundary. *)

(* This probe *is* the raw clock report. *)
[@@@ordo_lint.allow "raw-clock-read"]

let cluster_report spec =
  let module Net = Ordo_cluster.Net in
  let module Compose = Ordo_cluster.Compose in
  let module Topology = Ordo_util.Topology in
  Ordo_sim.Sim.with_fresh_instance @@ fun () ->
  Ordo_util.Report.section (Printf.sprintf "Cluster topology: %s" (Net.Spec.to_string spec));
  Ordo_util.Report.kv "nodes"
    (Printf.sprintf "%d x %s (%d hw threads each)" spec.Net.Spec.nodes
       spec.Net.Spec.machine_name
       (Topology.total_threads spec.Net.Spec.machine.Ordo_sim.Machine.topo));
  let l = spec.Net.Spec.link in
  Ordo_util.Report.kv "links"
    (Printf.sprintf "base %d ns, jitter %d ns (exp. mean), overhead %d ns/msg, %s"
       l.Net.Spec.base_ns l.Net.Spec.jitter_ns l.Net.Spec.overhead_ns
       (match l.Net.Spec.mode with Net.Spec.Fifo -> "fifo" | Net.Spec.Reorder -> "reorder"));
  let net : unit Net.t = Net.create spec in
  Ordo_util.Report.kv "node clock offsets (ns, drawn from the spec seed)"
    (String.concat " "
       (List.init spec.Net.Spec.nodes (fun n -> string_of_int (Net.offset_truth net n))));
  let c = Compose.measure spec in
  Ordo_util.Report.kv "intra-node ORDO_BOUNDARY (ns)"
    (string_of_int c.Compose.node_boundaries.(0));
  if spec.Net.Spec.nodes > 1 then
    Ordo_util.Report.matrix
      ~title:"measured link offsets (ns), sender row -> receiver column" ~row_label:"s\\r"
      c.Compose.delta;
  Ordo_util.Report.kv "composed ORDO_BOUNDARY_cluster (ns)" (string_of_int c.Compose.boundary)

let host_report () =
  let open Ordo_clock in
  Ordo_util.Report.section "Host clock report";
  Ordo_util.Report.kv "hardware cycle counter"
    (if Tsc.hardware_backend then "yes (RDTSC/CNTVCT)" else "no (CLOCK_MONOTONIC fallback)");
  Ordo_util.Report.kv "online CPUs" (string_of_int (Tsc.num_cpus ()));
  Ordo_util.Report.kv "current CPU" (string_of_int (Tsc.current_cpu ()));
  let cal = Tsc.calibrate ~duration_ms:100 () in
  Ordo_util.Report.kv "counter rate"
    (Printf.sprintf "%.4f ticks/ns (~%.2f GHz)" cal.Tsc.ticks_per_ns cal.Tsc.ticks_per_ns);
  (* Serialized-read cost: the floor for every Ordo timestamp. *)
  let samples = 200_000 in
  let t0 = Tsc.mono_ns () in
  for _ = 1 to samples do
    ignore (Clock.Host.get_time ())
  done;
  let t1 = Tsc.mono_ns () in
  Ordo_util.Report.kv "serialized timestamp cost"
    (Printf.sprintf "%.1f ns" (float_of_int (t1 - t0) /. float_of_int samples));
  let a = Clock.Host.get_time () in
  let b = Clock.Host.get_time () in
  Ordo_util.Report.kv "monotonic" (if b >= a then "ok" else "VIOLATION")

let run cluster =
  (match cluster with None -> host_report () | Some spec -> cluster_report spec);
  0

let cluster_arg =
  let doc = "Describe a simulated cluster instead of the host, e.g. --cluster 4xamd." in
  Cmdliner.Arg.(value & opt (some Cli.spec) None & info [ "cluster" ] ~docv:"SPEC" ~doc)

let () =
  let doc = "Report the host clock, or describe a simulated cluster" in
  exit Cmdliner.(Cli.eval (Cmd.v (Cmd.info "ordo-machine" ~doc) Term.(const run $ cluster_arg)))
