(* Run a workload under a seeded clock-fault scenario, with or without
   the runtime boundary guard, and report what the guard saw: detection
   latency, the degradation timeline, and the offline ordering verdict.

   The acceptance pair for every shipped scenario: the guarded run's
   checker passes (exit 0), the unguarded run's fails (exit 1). *)

open Cmdliner
module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Engine = Ordo_sim.Engine
module Topology = Ordo_util.Topology
module Report = Ordo_util.Report
module Checker = Ordo_trace.Checker
module Workloads = Ordo_workloads.Workloads
module Guard = Ordo_core.Guard
module Scenario = Ordo_hazard.Scenario
module Timeline = Ordo_hazard.Timeline

(* A remeasured boundary for the [Remeasure] policy hook.  Engine runs
   are not reentrant, so the recalibration is precomputed here on a clone
   of the machine whose clocks carry the scenario's *net* step
   displacements (value deltas fold into the reset offsets); the hook
   then just charges the asynchronous measurement's cost. *)
let remeasured_boundary machine scenario =
  let cores = Topology.physical_cores machine.Machine.topo in
  let net = Scenario.net_steps scenario ~cores in
  let stepped =
    {
      machine with
      Machine.reset_ns = Array.mapi (fun c r -> r - net.(c)) machine.Machine.reset_ns;
    }
  in
  Workloads.measure_boundary stepped

let guarded_ts boundary pol :
    (module Guard.S) * (module Ordo_core.Timestamp.S) =
  let module G =
    Guard.Make
      (R)
      (struct
        include Guard.Defaults

        let boundary = boundary
        let policy = pol
      end)
  in
  ((module G), (module Ordo_core.Timestamp.Ordo_source (G)))

let plain_ts boundary : (module Ordo_core.Timestamp.S) =
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
  (module Ordo_core.Timestamp.Ordo_source (O))
(* Each policy, given the machine and the scenario: the guard's reaction. *)
let policies =
  [
    ("inflate", fun _ _ -> Guard.Inflate);
    ( "remeasure",
      fun machine scenario ->
        let fresh = remeasured_boundary machine scenario in
        Report.kv "precomputed remeasured boundary (ns)" (string_of_int fresh);
        Guard.Remeasure
          (fun ~excess:_ ~boundary:_ ->
            (* model the cost of the asynchronous full remeasurement *)
            R.work 5_000;
            fresh) );
    ("fallback", fun _ _ -> Guard.Fallback);
  ]

let run (f : Traced.flags) (scenario_name, scenario_of) seed (policy_name, policy_of)
    unguarded =
  (* Own simulator instance — the boundary measurement, the precomputed
     remeasurement and the faulted run share one continuous timeline. *)
  Sim.with_fresh_instance @@ fun () ->
  let machine = f.machine in
  let mode = if unguarded then "unguarded" else "guarded:" ^ policy_name in
  Report.section
    (Printf.sprintf "ordo-hazard: %s/%s on %s, scenario %s (%s)" f.workload
       (if unguarded then "ordo" else "guard") f.machine_name scenario_name mode);
  let scenario = scenario_of ~seed ~dur:f.dur ~threads:f.threads machine.Machine.topo in
  List.iter (fun l -> Report.kv "scenario" l) (Scenario.describe scenario);
  let boundary = Workloads.measure_boundary machine in
  Report.kv "measured ORDO_BOUNDARY (ns)" (string_of_int boundary);
  let policy = policy_of machine scenario in
  let guard, ts =
    if unguarded then (None, plain_ts boundary)
    else
      let g, ts = guarded_ts boundary policy in
      (Some g, ts)
  in
  let stats, t, race =
    Traced.run f ~boundary (fun () ->
        Workloads.run f.workload ~scenario machine ts ~threads:f.threads ~dur:f.dur)
  in
  (* Under a clock fault the detector's verdict shows the division of
     labor: guard detections surface as observed boundary violations
     and uncertain comparisons, while the workload itself stays free of
     conflicting writes — that is the guard doing its job. *)
  let check = if unguarded then Checker.check ~boundary else Checker.check_guard ~boundary in
  Traced.verdict f ~check t race ~report:(fun () ->
      Report.kv "end of run (virtual ns)" (string_of_int stats.Engine.end_vtime);
      (match guard with
      | None -> ()
      | Some (module G) ->
        Report.kv "guard: violations detected" (string_of_int (G.violations ()));
        Report.kv "guard: boundary now (ns)"
          (Printf.sprintf "%d (floor %d)" (G.current_boundary ()) G.boundary);
        Report.kv "guard: in fallback" (if G.in_fallback () then "yes" else "no"));
      List.iter print_endline (Timeline.describe (Timeline.summarize t));
      List.iter
        (fun (at, line) -> Printf.printf "  %8d ns  %s\n" at line)
        (Timeline.timeline t))

let scenario_arg =
  let doc = "Hazard scenario: none, dvfs, resync, hotplug, migrate or storm." in
  let scenarios = Cli.choice ~what:"scenario" Scenario.all in
  Arg.(
    value
    & opt scenarios (Cli.default scenarios "dvfs")
    & info [ "scenario"; "x" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Scenario randomization seed (same seed, same faults)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let policy_arg =
  let doc = "Guard reaction policy: inflate, remeasure or fallback." in
  let policies = Cli.choice ~what:"policy" policies in
  Arg.(
    value
    & opt policies (Cli.default policies "inflate")
    & info [ "policy"; "p" ] ~docv:"NAME" ~doc)

let unguarded_arg =
  let doc =
    "Run with the raw Ordo primitive instead of the guard; under a real hazard the \
     offline checker must then report violations."
  in
  Arg.(value & flag & info [ "unguarded" ] ~doc)

let analyze_doc =
  "Run the dynamic race detector during the faulted run.  Guard detections surface in \
   its report as observed boundary violations; a guarded workload must still show zero \
   conflicting writes.  Nonzero exit on any conflict."

let cmd =
  let doc = "Inject clock faults into a simulated Ordo workload and exercise the guard" in
  Cmd.v (Cmd.info "ordo-hazard" ~doc)
    Term.(
      const run $ Traced.flags ~machine:"amd" ~analyze_doc $ scenario_arg $ seed_arg
      $ policy_arg $ unguarded_arg)

let () = exit (Cli.eval cmd)
