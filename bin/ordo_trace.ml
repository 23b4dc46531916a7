(* Trace a simulated workload, print its coherence-traffic profile,
   export a Chrome trace_event JSON (chrome://tracing / Perfetto), and
   run the offline ordering-invariant checker against the measured
   ORDO_BOUNDARY.  --inject-skew grows one socket's clock offset *after*
   the boundary was measured, which must make the checker fail — the
   negative test for the whole pipeline. *)

open Cmdliner
module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Engine = Ordo_sim.Engine
module Topology = Ordo_util.Topology
module Report = Ordo_util.Report
module Trace = Ordo_trace.Trace
module Metrics = Ordo_trace.Metrics
module Checker = Ordo_trace.Checker
module Workloads = Ordo_workloads.Workloads

(* Clone a machine with [extra] ns added to every non-zero socket's clock
   reset — skew the boundary measurement never saw. *)
let inject_skew (m : Machine.t) extra =
  let per_socket = m.Machine.topo.Topology.cores_per_socket in
  {
    m with
    Machine.reset_ns =
      Array.mapi
        (fun p r -> if p / per_socket > 0 then r + extra else r)
        m.Machine.reset_ns;
  }

let ordo_ts boundary : (module Ordo_core.Timestamp.S) =
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
  (module Ordo_core.Timestamp.Ordo_source (O))

let logical_ts () : (module Ordo_core.Timestamp.S) =
  (module Ordo_core.Timestamp.Logical (R) ())

(* Each source: its timestamp module and the boundary the checker and
   the race detector judge it by. *)
let sources =
  [
    ("ordo", fun boundary -> (ordo_ts boundary, boundary));
    ("logical", fun _ -> (logical_ts (), 0));
  ]

(* ---- driver ---- *)

let run (f : Traced.flags) (source, ts_of) skew =
  (* Own simulator instance: boundary measurement and traced workload run
     on one continuous per-instance timeline. *)
  Sim.with_fresh_instance @@ fun () ->
  Report.section
    (Printf.sprintf "ordo-trace: %s/%s on %s" f.workload source f.machine_name);
  (* The boundary is always measured on the *unskewed* machine; the
     workload then runs with whatever skew was injected. *)
  let boundary = Workloads.measure_boundary f.machine in
  Report.kv "measured ORDO_BOUNDARY (ns)" (string_of_int boundary);
  let machine = if skew > 0 then inject_skew f.machine skew else f.machine in
  if skew > 0 then Report.kv "injected extra socket skew (ns)" (string_of_int skew);
  let ts, check_boundary = ts_of boundary in
  let (_ : Engine.stats), t, race =
    Traced.run f ~boundary:check_boundary (fun () ->
        Workloads.run f.workload machine ts ~threads:f.threads ~dur:f.dur)
  in
  Report.kv "events collected" (string_of_int (Array.length t.Trace.events));
  Traced.verdict f ~check:(Checker.check ~boundary:check_boundary) t race ~report:(fun () ->
      Metrics.print ~label:f.workload t)

let source_arg =
  let doc = "Timestamp source: ordo (measured boundary) or logical (global counter)." in
  let sources = Cli.choice ~what:"source" sources in
  Arg.(
    value & opt sources (Cli.default sources "ordo") & info [ "source"; "s" ] ~docv:"SRC" ~doc)

let skew_arg =
  let doc =
    "Add this many ns of clock skew to every socket but the first, after the boundary \
     measurement — the ordering checker must then report violations."
  in
  Arg.(value & opt (Cli.int_min 0) 0 & info [ "inject-skew" ] ~docv:"NS" ~doc)

let analyze_doc =
  "Run the dynamic race detector alongside the trace: vector-clock happens-before over \
   cell accesses, where timestamp edges are admitted only when cmp_time is certain.  \
   Nonzero exit on any conflict (the seeded fixtures $(b,race) and $(b,window) must \
   fire; correct workloads must stay silent)."

let cmd =
  let doc = "Trace a simulated Ordo workload, export it, and check ordering invariants" in
  Cmd.v (Cmd.info "ordo-trace" ~doc)
    Term.(
      const run $ Traced.flags ~machine:"xeon" ~analyze_doc $ source_arg $ skew_arg)

let () = exit (Cli.eval cmd)
