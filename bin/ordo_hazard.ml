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
module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker
module Race = Ordo_analyze.Race
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

let run machine_name workload scenario_name seed policy_name unguarded threads dur
    capacity out no_check analyze strict =
  (* Own simulator instance — the boundary measurement, the precomputed
     remeasurement and the faulted run share one continuous timeline. *)
  Sim.with_fresh_instance @@ fun () ->
  match Machine.by_name machine_name with
  | None ->
    Printf.eprintf "unknown machine %S (available: xeon phi amd arm)\n" machine_name;
    exit 2
  | Some _ when capacity < 1 ->
    Printf.eprintf "--capacity must be >= 1 (got %d)\n" capacity;
    exit 2
  | Some _ when dur < 1 ->
    Printf.eprintf "--dur must be >= 1 (got %d)\n" dur;
    exit 2
  | Some m when threads < 1 || threads > Topology.total_threads m.Machine.topo ->
    Printf.eprintf "--threads must be in 1..%d on %s (got %d)\n"
      (Topology.total_threads m.Machine.topo) machine_name threads;
    exit 2
  | Some machine ->
    let mode = if unguarded then "unguarded" else "guarded:" ^ policy_name in
    Report.section
      (Printf.sprintf "ordo-hazard: %s/%s on %s, scenario %s (%s)" workload
         (if unguarded then "ordo" else "guard") machine_name scenario_name mode);
    let total = Topology.total_threads machine.Machine.topo in
    let scenario =
      match Scenario.by_name scenario_name with
      | None ->
        Printf.eprintf "unknown scenario %S (available: %s)\n" scenario_name
          (String.concat " " Scenario.names);
        exit 2
      | Some mk -> mk ~seed ~dur ~threads machine.Machine.topo
    in
    List.iter (fun l -> Report.kv "scenario" l) (Scenario.describe scenario);
    let boundary = Workloads.measure_boundary machine in
    Report.kv "measured ORDO_BOUNDARY (ns)" (string_of_int boundary);
    let policy =
      match policy_name with
      | "inflate" -> Guard.Inflate
      | "fallback" -> Guard.Fallback
      | "remeasure" ->
        let fresh = remeasured_boundary machine scenario in
        Report.kv "precomputed remeasured boundary (ns)" (string_of_int fresh);
        Guard.Remeasure
          (fun ~excess:_ ~boundary:_ ->
            (* model the cost of the asynchronous full remeasurement *)
            R.work 5_000;
            fresh)
      | p ->
        Printf.eprintf "unknown policy %S (available: inflate remeasure fallback)\n" p;
        exit 2
    in
    let guard, ts =
      if unguarded then (None, plain_ts boundary)
      else
        let g, ts = guarded_ts boundary policy in
        (Some g, ts)
    in
    Trace.start ~capacity ~threads:total ();
    if analyze then Race.start ~boundary ~threads:total ();
    let stats =
      Workloads.run workload ~scenario machine ts ~threads ~dur
    in
    let verdict = if analyze then Some (Race.stop ()) else None in
    let t = Trace.stop () in
    if strict && t.Trace.dropped > 0 then begin
      Printf.eprintf
        "--strict: %d events dropped to ring wrap-around (capacity %d); rerun with a larger \
         --capacity\n"
        t.Trace.dropped capacity;
      exit 1
    end;
    Report.kv "end of run (virtual ns)" (string_of_int stats.Engine.end_vtime);
    (match guard with
    | None -> ()
    | Some (module G) ->
      Report.kv "guard: violations detected" (string_of_int (G.violations ()));
      Report.kv "guard: boundary now (ns)"
        (Printf.sprintf "%d (floor %d)" (G.current_boundary ()) G.boundary);
      Report.kv "guard: in fallback" (if G.in_fallback () then "yes" else "no"));
    let summary = Timeline.summarize t in
    List.iter print_endline (Timeline.describe summary);
    List.iter
      (fun (at, line) -> Printf.printf "  %8d ns  %s\n" at line)
      (Timeline.timeline t);
    (match out with
    | None -> ()
    | Some path ->
      Ordo_trace.Chrome.write_file t path;
      Report.kv "chrome trace written" path);
    (* Under a clock fault the detector's verdict shows the division of
       labor: guard detections surface as observed boundary violations
       and uncertain comparisons, while the workload itself stays free of
       conflicting writes — that is the guard doing its job. *)
    let race_bad =
      match verdict with
      | None -> false
      | Some r ->
        List.iter print_endline (Race.describe r);
        not (Race.ok r)
    in
    if no_check then if race_bad then 1 else 0
    else begin
      let report =
        if unguarded then Checker.check ~boundary t
        else Checker.check_guard ~boundary t
      in
      List.iter print_endline (Checker.describe report);
      if Checker.ok report && not race_bad then 0 else 1
    end

let machine_arg =
  let doc = "Simulated machine preset: xeon, phi, amd or arm." in
  Arg.(value & opt string "amd" & info [ "machine"; "m" ] ~docv:"NAME" ~doc)

let workload_arg =
  let doc = "Workload to run: occ, hekaton, tl2, rlu or oplog." in
  Arg.(value & opt string "occ" & info [ "workload"; "w" ] ~docv:"NAME" ~doc)

let scenario_arg =
  let doc = "Hazard scenario: none, dvfs, resync, hotplug, migrate or storm." in
  Arg.(value & opt string "dvfs" & info [ "scenario"; "x" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Scenario randomization seed (same seed, same faults)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let policy_arg =
  let doc = "Guard reaction policy: inflate, remeasure or fallback." in
  Arg.(value & opt string "inflate" & info [ "policy"; "p" ] ~docv:"NAME" ~doc)

let unguarded_arg =
  let doc =
    "Run with the raw Ordo primitive instead of the guard; under a real hazard the \
     offline checker must then report violations."
  in
  Arg.(value & flag & info [ "unguarded" ] ~doc)

let threads_arg =
  let doc =
    "Simulated threads (placed on hardware threads 0..N-1), from 1 to the machine's \
     hardware thread count."
  in
  Arg.(value & opt int 16 & info [ "threads"; "t" ] ~docv:"N" ~doc)

let dur_arg =
  let doc = "Workload duration in virtual ns." in
  Arg.(value & opt int 150_000 & info [ "dur" ] ~docv:"NS" ~doc)

let capacity_arg =
  let doc = "Per-thread event-ring capacity (oldest events drop; counters stay exact)." in
  Arg.(value & opt int 16_384 & info [ "capacity" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let no_check_arg =
  let doc = "Skip the offline ordering-invariant checker." in
  Arg.(value & flag & info [ "no-check" ] ~doc)

let analyze_arg =
  let doc =
    "Run the dynamic race detector during the faulted run.  Guard detections surface in \
     its report as observed boundary violations; a guarded workload must still show zero \
     conflicting writes.  Nonzero exit on any conflict."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let strict_arg =
  let doc =
    "Fail (exit 1) if the event rings dropped anything, so no verdict is ever computed on \
     a truncated stream."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let cmd =
  let doc = "Inject clock faults into a simulated Ordo workload and exercise the guard" in
  Cmd.v (Cmd.info "ordo-hazard" ~doc)
    Term.(
      const run $ machine_arg $ workload_arg $ scenario_arg $ seed_arg $ policy_arg
      $ unguarded_arg $ threads_arg $ dur_arg $ capacity_arg $ out_arg $ no_check_arg
      $ analyze_arg $ strict_arg)

let () = exit (Cmd.eval' cmd)
