(* The hazard subsystem end to end: compiled piecewise clocks, scenario
   validation, determinism of perturbed runs, and the acceptance pair for
   every shipped scenario — the guarded run survives (offline guard
   checker passes), the unguarded run with the same seed does not. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Engine = Ordo_sim.Engine
module Hazard = Ordo_sim.Hazard
module Topology = Ordo_util.Topology
module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker
module Guard = Ordo_core.Guard
module Scenario = Ordo_hazard.Scenario
module Timeline = Ordo_hazard.Timeline
module Workloads = Ordo_workloads.Workloads

let check = Alcotest.check

(* Boundary measurements are the slow part; one per machine is plenty. *)
let boundary_cache = Hashtbl.create 4

let boundary_of (m : Machine.t) =
  match Hashtbl.find_opt boundary_cache m.Machine.topo.Topology.name with
  | Some b -> b
  | None ->
    let b = Workloads.measure_boundary m in
    Hashtbl.add boundary_cache m.Machine.topo.Topology.name b;
    b

let scenario_of name ~seed ~dur ~threads (m : Machine.t) =
  match Scenario.by_name name with
  | Some mk -> mk ~seed ~dur ~threads m.Machine.topo
  | None -> Alcotest.failf "unknown scenario %s" name

(* Run a workload (the contended OCC one by default), guarded (with
   [policy]) or raw. *)
let run_occ ?policy ?(workload = "occ") ?(machine = Machine.amd) ?(threads = 8)
    ?(dur = 60_000) ?(seed = 1) name =
  let boundary = boundary_of machine in
  let scenario = scenario_of name ~seed ~dur ~threads machine in
  let guard, ts =
    match policy with
    | None ->
      let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
      (None, (module Ordo_core.Timestamp.Ordo_source (O) : Ordo_core.Timestamp.S))
    | Some pol ->
      let module G =
        Guard.Make
          (R)
          (struct
            include Guard.Defaults

            let boundary = boundary
            let policy = pol
          end)
      in
      ( Some (module G : Guard.S),
        (module Ordo_core.Timestamp.Ordo_source (G) : Ordo_core.Timestamp.S) )
  in
  Trace.start ~capacity:65_536 ~threads:(Topology.total_threads machine.Machine.topo) ();
  let stats = Workloads.run workload ~scenario machine ts ~threads ~dur in
  let t = Trace.stop () in
  (boundary, t, stats, guard)

(* ---- compiled piecewise clocks ---- *)

let epoch = 1_000_000_000_000

let test_compile_step_and_rate () =
  let m = Machine.amd in
  let s =
    {
      Scenario.name = "unit";
      events =
        [
          { Scenario.at = 500; action = Scenario.Step { core = 0; delta_ns = -1_000 } };
          { Scenario.at = 400; action = Scenario.Rate_change { core = 1; ppm = -500_000 } };
        ];
    }
  in
  let h = Hazard.compile ~epoch ~base:0 m s in
  let r0 = m.Machine.reset_ns.(0) and r1 = m.Machine.reset_ns.(1) in
  (* core 0: healthy before the step, shifted -1000 after *)
  check Alcotest.int "core0 before step" (300 + epoch - r0) (Hazard.clock_at h.Hazard.clocks.(0) 300);
  check Alcotest.int "core0 after step" (800 + epoch - r0 - 1_000)
    (Hazard.clock_at h.Hazard.clocks.(0) 800);
  (* core 1: half rate after vt 400 — advances 100 over the next 200 ns *)
  let at_400 = Hazard.clock_at h.Hazard.clocks.(1) 400 in
  check Alcotest.int "core1 rate origin" (400 + epoch - r1) at_400;
  check Alcotest.int "core1 half rate" (at_400 + 100) (Hazard.clock_at h.Hazard.clocks.(1) 600)

let test_compile_migration_splices () =
  let m = Machine.amd in
  let s =
    {
      Scenario.name = "unit";
      events = [ { Scenario.at = 1_000; action = Scenario.Migrate { thread = 0; target = 5 } } ];
    }
  in
  let h = Hazard.compile ~epoch ~base:0 m s in
  let r0 = m.Machine.reset_ns.(0) and r5 = m.Machine.reset_ns.(5) in
  check Alcotest.int "before migration reads own core" (200 + epoch - r0)
    (Hazard.clock_at h.Hazard.clocks.(0) 200);
  check Alcotest.int "after migration reads target core" (5_000 + epoch - r5)
    (Hazard.clock_at h.Hazard.clocks.(0) 5_000)

let test_scenario_validation () =
  let topo = Machine.amd.Machine.topo in
  let bad core =
    { Scenario.name = "bad"; events = [ { Scenario.at = 0; action = Scenario.Step { core; delta_ns = 1 } } ] }
  in
  check Alcotest.bool "in-range ok" true
    (try Scenario.validate topo (bad 0); true with Invalid_argument _ -> false);
  check Alcotest.bool "out-of-range rejected" true
    (try Scenario.validate topo (bad 999); false with Invalid_argument _ -> true)

let test_net_steps () =
  let threads = 8 in
  let s = scenario_of "resync" ~seed:1 ~dur:60_000 ~threads Machine.amd in
  let net = Scenario.net_steps s ~cores:(Topology.physical_cores Machine.amd.Machine.topo) in
  let stepped = Array.to_list net |> List.filter (fun d -> d <> 0) in
  check Alcotest.bool "some cores stepped" true (stepped <> []);
  List.iter (fun d -> check Alcotest.bool "steps are negative" true (d < 0)) stepped

(* ---- determinism ---- *)

let test_perturbed_run_deterministic () =
  let once () =
    let _, _, stats, _ = run_occ ~policy:Guard.Inflate "dvfs" in
    stats.Engine.end_vtime
  in
  check Alcotest.int "same scenario spec, same end_vtime" (once ()) (once ())

let test_none_scenario_is_noop () =
  let boundary = boundary_of Machine.amd in
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
  let ts = (module Ordo_core.Timestamp.Ordo_source (O) : Ordo_core.Timestamp.S) in
  let scenario = scenario_of "none" ~seed:1 ~dur:60_000 ~threads:8 Machine.amd in
  let with_none = Workloads.run "occ" ~scenario Machine.amd ts ~threads:8 ~dur:60_000 in
  let without = Workloads.run "occ" Machine.amd ts ~threads:8 ~dur:60_000 in
  check Alcotest.int "empty scenario leaves the run untouched"
    without.Engine.end_vtime with_none.Engine.end_vtime

(* ---- the acceptance pair, per shipped scenario ---- *)

let test_guarded_passes_unguarded_fails () =
  List.iter
    (fun name ->
      let boundary, tg, _, guard = run_occ ~policy:Guard.Inflate name in
      let rg = Checker.check_guard ~boundary tg in
      if not (Checker.ok rg) then
        Alcotest.failf "guarded %s failed: %s" name
          (String.concat "; " (Checker.describe rg));
      (match guard with
      | Some (module G) ->
        if G.violations () = 0 then Alcotest.failf "guard saw nothing under %s" name
      | None -> assert false);
      let b2, tu, _, _ = run_occ name in
      let ru = Checker.check ~boundary:b2 tu in
      if Checker.ok ru then Alcotest.failf "unguarded %s passed the checker" name)
    [ "dvfs"; "resync"; "hotplug"; "migrate"; "storm" ]

let test_healthy_guard_is_silent () =
  List.iter
    (fun machine ->
      let boundary, t, _, guard = run_occ ~machine ~policy:Guard.Inflate "none" in
      let r = Checker.check_guard ~boundary t in
      check Alcotest.bool "healthy guarded run passes" true (Checker.ok r);
      match guard with
      | Some (module G) ->
        check Alcotest.int "no violations on a healthy machine" 0 (G.violations ());
        check Alcotest.int "bound still at the floor" boundary (G.current_boundary ());
        check Alcotest.bool "no fallback" false (G.in_fallback ())
      | None -> assert false)
    [ Machine.amd; Machine.xeon ]

(* ---- policies ---- *)

let test_inflate_policy_grows_bound () =
  let boundary, t, _, guard = run_occ ~policy:Guard.Inflate "resync" in
  match guard with
  | Some (module G) ->
    check Alcotest.bool "bound inflated" true (G.current_boundary () > boundary);
    check Alcotest.bool "still on ordo" false (G.in_fallback ());
    let s = Timeline.summarize t in
    check Alcotest.bool "hazards traced" true (s.Timeline.hazards > 0);
    check Alcotest.bool "detections traced" true (s.Timeline.detections > 0);
    check Alcotest.bool "inflations traced" true (s.Timeline.inflations > 0);
    (match (s.Timeline.first_hazard, s.Timeline.first_detection, s.Timeline.detection_latency) with
    | Some h, Some d, Some l ->
      check Alcotest.bool "detection after hazard" true (d >= h);
      check Alcotest.int "latency consistent" (d - h) l
    | _ -> Alcotest.fail "missing first hazard/detection in summary")
  | None -> assert false

let test_fallback_policy_degrades () =
  let boundary, t, _, guard = run_occ ~policy:Guard.Fallback "resync" in
  match guard with
  | Some (module G) ->
    check Alcotest.bool "degraded to fallback" true (G.in_fallback ());
    check Alcotest.bool "fallback run passes the checker" true
      (Checker.ok (Checker.check_guard ~boundary t));
    let s = Timeline.summarize t in
    check Alcotest.bool "fallback traced" true (s.Timeline.fallback_at <> None)
  | None -> assert false

let test_remeasure_policy_consults_hook () =
  let calls = ref 0 in
  let boundary = boundary_of Machine.amd in
  let fresh = boundary * 20 in
  let pol = Guard.Remeasure (fun ~excess:_ ~boundary:_ -> incr calls; fresh) in
  let _, t, _, guard = run_occ ~policy:pol "resync" in
  match guard with
  | Some (module G) ->
    check Alcotest.bool "hook consulted" true (!calls > 0);
    check Alcotest.bool "recalibrated bound adopted" true (G.current_boundary () >= fresh);
    check Alcotest.bool "remeasured run passes the checker" true
      (Checker.ok (Checker.check_guard ~boundary t));
    let s = Timeline.summarize t in
    check Alcotest.bool "remeasurements traced" true (s.Timeline.remeasurements > 0)
  | None -> assert false

(* Timeline times count from the run's first hazard or guard event (its
   first guard stamp, on a guarded run), so they ascend from 0. *)
let test_timeline_oldest_first () =
  let _, t, _, _ = run_occ ~policy:Guard.Inflate "resync" in
  let timeline = Timeline.timeline t in
  let times = List.map fst timeline in
  check Alcotest.bool "a detection is on the timeline" true
    ((Timeline.summarize t).Timeline.detections > 0);
  check Alcotest.bool "no time below 0" true (List.hd times >= 0);
  check Alcotest.(list int) "times ascend" (List.sort compare times) times;
  check Alcotest.bool "the hazard comes before its detection" true
    (String.starts_with ~prefix:"hazard" (snd (List.hd timeline)))

(* ---- guard semantics under simulation ---- *)

let test_guard_new_time_certain () =
  let boundary = boundary_of Machine.amd in
  ignore
    (Sim.run Machine.amd ~threads:1 (fun _ ->
         let module G =
           Guard.Make
             (R)
             (struct
               include Guard.Defaults

               let boundary = boundary
             end)
         in
         let t = G.get_time () in
         let nt = G.new_time t in
         if G.cmp_time nt t <> 1 then Alcotest.fail "guarded new_time not certainly after")
      : Engine.stats)

let test_guard_config_validation () =
  Alcotest.check_raises "zero boundary rejected"
    (Invalid_argument "Guard.Make: boundary must be positive") (fun () ->
      let module _ =
        Guard.Make
          (R)
          (struct
            include Guard.Defaults

            let boundary = 0
          end)
      in
      ())

(* Hazard events carry the hazard's instant, not the target core's
   clock, so some rings step back in time and [Trace.stop] has to merge
   them as several runs.  The merged trace must still hold every
   emission exactly once, in (time, seq) order. *)
let test_trace_order_under_hazards () =
  let _, t, _, _ = run_occ ~workload:"tl2" ~policy:Guard.Inflate "storm" in
  let events = t.Trace.events in
  let n = Array.length events in
  check Alcotest.int "nothing dropped" 0 t.Trace.dropped;
  let by_seq = Array.copy events in
  Array.sort (fun (x : Trace.event) (y : Trace.event) -> compare x.seq y.seq) by_seq;
  check Alcotest.bool "seqs are exactly 0 .. n-1" true
    (Array.for_all Fun.id (Array.mapi (fun i (e : Trace.event) -> e.seq = i) by_seq));
  let last = Hashtbl.create 16 and stepped_back = ref false in
  Array.iter
    (fun (e : Trace.event) ->
      (match Hashtbl.find_opt last e.tid with
      | Some prev when e.time < prev -> stepped_back := true
      | _ -> ());
      Hashtbl.replace last e.tid e.time)
    by_seq;
  check Alcotest.bool "some ring's emission order steps back in time" true !stepped_back;
  let ascending = ref true in
  for i = 1 to n - 1 do
    let p = events.(i - 1) and e = events.(i) in
    if (p.time, p.seq) >= (e.time, e.seq) then ascending := false
  done;
  check Alcotest.bool "events ascend by (time, seq)" true !ascending;
  let online =
    Array.fold_left
      (fun acc (c : Trace.core_stat) ->
        acc + Array.fold_left ( + ) 0 c.transfers + c.invalidations + c.stalls + c.clock_reads
        + c.pauses + c.probes + c.hazards + c.guards)
      0 t.Trace.cores
  in
  check Alcotest.int "events = online per-core counts" online n

let suite =
  [
    ("compile: step and rate", `Quick, test_compile_step_and_rate);
    ("compile: migration splices clocks", `Quick, test_compile_migration_splices);
    ("scenario validation", `Quick, test_scenario_validation);
    ("resync net steps negative", `Quick, test_net_steps);
    ("perturbed run deterministic", `Quick, test_perturbed_run_deterministic);
    ("none scenario is a no-op", `Quick, test_none_scenario_is_noop);
    ("guarded passes, unguarded fails", `Quick, test_guarded_passes_unguarded_fails);
    ("healthy guard is silent", `Quick, test_healthy_guard_is_silent);
    ("inflate policy grows bound", `Quick, test_inflate_policy_grows_bound);
    ("fallback policy degrades", `Quick, test_fallback_policy_degrades);
    ("remeasure policy consults hook", `Quick, test_remeasure_policy_consults_hook);
    ("guarded new_time certain", `Quick, test_guard_new_time_certain);
    ("guard config validation", `Quick, test_guard_config_validation);
    ("trace order under hazards", `Quick, test_trace_order_under_hazards);
    ("timeline oldest first", `Quick, test_timeline_oldest_first);
  ]
