(* Tests for the Ordo_analyze subsystem: the vector-clock lattice
   (qcheck laws, plus equivalence of the epoch-based covered test with a
   full-vector-clock reference on random traces), the race detector's
   hook semantics driven directly, and end-to-end verdicts — correct
   workloads silent, seeded fixtures firing deterministically, and the
   guarded runs under every fault scenario free of conflicting writes. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Engine = Ordo_sim.Engine
module Topology = Ordo_util.Topology
module Vclock = Ordo_analyze.Vclock
module Hb = Ordo_analyze.Hb
module Race = Ordo_analyze.Race
module Workloads = Ordo_workloads.Workloads
module Scenario = Ordo_hazard.Scenario
module Guard = Ordo_core.Guard

let check = Alcotest.check

let prop ?(count = 300) name gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen p)

(* ---- vector-clock lattice laws ---- *)

let vc_gen = QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 50))

let joined a b =
  let c = Vclock.of_list a in
  Vclock.join c (Vclock.of_list b);
  Vclock.to_list c

let test_join_commutative =
  prop "join commutative" QCheck2.Gen.(pair vc_gen vc_gen) (fun (a, b) ->
      joined a b = joined b a)

let test_join_idempotent = prop "join idempotent" vc_gen (fun a -> joined a a = Vclock.to_list (Vclock.of_list a))

let test_join_associative =
  prop "join associative" QCheck2.Gen.(triple vc_gen vc_gen vc_gen) (fun (a, b, c) ->
      joined (joined a b) c = joined a (joined b c))

let test_leq_antisym =
  prop "leq antisymmetric" QCheck2.Gen.(pair vc_gen vc_gen) (fun (a, b) ->
      let va = Vclock.of_list a and vb = Vclock.of_list b in
      (not (Vclock.leq va vb && Vclock.leq vb va)) || Vclock.equal va vb)

let test_join_is_lub =
  prop "join is the least upper bound" QCheck2.Gen.(triple vc_gen vc_gen vc_gen)
    (fun (a, b, c) ->
      let va = Vclock.of_list a and vb = Vclock.of_list b in
      let vj = Vclock.of_list (joined a b) in
      let vc = Vclock.of_list c in
      Vclock.leq va vj && Vclock.leq vb vj
      && ((not (Vclock.leq va vc && Vclock.leq vb vc)) || Vclock.leq vj vc))

(* Two clocks of different lengths joining each other in turn keep the
   longer one's size: a join that doubled its destination would make
   them double each other on every round. *)
let test_join_bounded_growth () =
  let a = Vclock.create () and b = Vclock.create () in
  Vclock.set a 16 1;
  Vclock.set b 31 1;
  for _ = 1 to 8 do
    Vclock.join a b;
    Vclock.join b a
  done;
  let words v = Obj.reachable_words (Obj.repr v) in
  Alcotest.(check bool) (Printf.sprintf "a stays small (%d words)" (words a)) true (words a <= 40);
  Alcotest.(check bool) (Printf.sprintf "b stays small (%d words)" (words b)) true (words b <= 40);
  Alcotest.(check (list int)) "value is the join" (Vclock.to_list b) (Vclock.to_list a)

(* ---- epoch covered-test vs full-vector-clock reference ----

   The detector stores only the last writer's own component (a FastTrack
   epoch) and tests [w_clk <= C_t[w_tid]].  The reference below snapshots
   the writer's *entire* clock and tests full [leq].  On every trace the
   two must agree — the epoch is enough because a thread's component only
   grows by joining clocks the writer itself released at or after the
   write. *)

type ref_line = {
  mutable rw_tid : int;
  mutable rw_vc : Vclock.t;  (* full snapshot at the write *)
  rrel : Vclock.t;
}

let reference_conflicts ops ~threads ~lines =
  let vcs = Array.init threads (fun t -> let v = Vclock.create () in Vclock.set v t 1; v) in
  let ls =
    Array.init lines (fun _ -> { rw_tid = -1; rw_vc = Vclock.create (); rrel = Vclock.create () })
  in
  let conflicts = ref 0 in
  let write t l =
    let line = ls.(l) in
    if line.rw_tid >= 0 && line.rw_tid <> t && not (Vclock.leq line.rw_vc vcs.(t)) then
      incr conflicts;
    line.rw_tid <- t;
    line.rw_vc <- Vclock.copy vcs.(t);
    Vclock.join line.rrel vcs.(t);
    Vclock.incr vcs.(t) t
  in
  List.iter
    (fun (t, l, op) ->
      match op with
      | 0 -> Vclock.join vcs.(t) ls.(l).rrel (* read: acquire *)
      | 1 -> write t l
      | _ ->
        Vclock.join vcs.(t) ls.(l).rrel;
        write t l (* rmw: acquire then write *))
    ops;
  !conflicts

let detector_conflicts ops =
  Race.start ();
  List.iter
    (fun (t, l, op) ->
      match op with
      | 0 -> Race.on_read ~tid:t ~line:l ~time:0
      | 1 -> Race.on_write ~tid:t ~line:l ~time:0
      | _ -> Race.on_rmw ~tid:t ~line:l ~time:0)
    ops;
  (Race.stop ()).Race.total_conflicts

let trace_gen =
  QCheck2.Gen.(
    list_size (int_range 0 120) (triple (int_range 0 3) (int_range 0 3) (int_range 0 2)))

let test_epoch_equals_full_vc =
  prop ~count:500 "epoch covered-test == full-VC reference" trace_gen (fun ops ->
      detector_conflicts ops = reference_conflicts ops ~threads:4 ~lines:4)

(* ---- detector hook semantics, driven directly ---- *)

let with_race f =
  Race.start ~boundary:100 ();
  f ();
  Race.stop ()

let test_blind_write_conflicts () =
  let r = with_race (fun () ->
      Race.on_write ~tid:0 ~line:7 ~time:10;
      Race.on_write ~tid:1 ~line:7 ~time:20)
  in
  check Alcotest.int "one conflict" 1 r.Race.total_conflicts;
  check Alcotest.int "a plain race" 1 (Race.races r);
  check Alcotest.bool "not ok" false (Race.ok r)

let test_rmw_handoff_is_ordered () =
  let r = with_race (fun () ->
      Race.on_write ~tid:0 ~line:7 ~time:10;
      Race.on_rmw ~tid:1 ~line:7 ~time:20;
      (* the RMW acquired thread 0's release, so this write is covered *)
      Race.on_write ~tid:1 ~line:7 ~time:30)
  in
  check Alcotest.int "no conflicts" 0 r.Race.total_conflicts

let test_read_handoff_is_ordered () =
  let r = with_race (fun () ->
      Race.on_write ~tid:0 ~line:3 ~time:10;
      Race.on_read ~tid:1 ~line:3 ~time:20;
      Race.on_write ~tid:1 ~line:3 ~time:30)
  in
  check Alcotest.int "spin-read handoff covers" 0 r.Race.total_conflicts

let test_timestamp_edge_orders () =
  let r = with_race (fun () ->
      Race.on_write ~tid:0 ~line:1 ~time:10;
      Race.on_publish ~tid:0 500;
      (* thread 1 learns its stamp 900 is certainly after 500 *)
      Race.on_order ~tid:1 900 500 1;
      Race.on_write ~tid:1 ~line:1 ~time:40)
  in
  check Alcotest.int "stamp edge admits ordering" 0 r.Race.total_conflicts;
  check Alcotest.int "edge counted" 1 r.Race.ts_edges

let test_uncertain_order_admits_nothing () =
  let r = with_race (fun () ->
      Race.on_write ~tid:0 ~line:1 ~time:10;
      Race.on_publish ~tid:0 500;
      (* inside the window: cmp answered 0 — no edge *)
      Race.on_order ~tid:1 540 500 0;
      Race.on_write ~tid:1 ~line:1 ~time:40)
  in
  check Alcotest.int "still a conflict" 1 r.Race.total_conflicts;
  check Alcotest.int "classified as uncertain ordering" 1 (Race.uncertain r);
  check Alcotest.int "no edge admitted" 0 r.Race.ts_edges;
  check Alcotest.int "uncertainty counted" 1 r.Race.ts_uncertain

let test_conflict_carries_spans () =
  let r = with_race (fun () ->
      Race.on_span_begin ~tid:0 "writer.install";
      Race.on_write ~tid:0 ~line:2 ~time:10;
      Race.on_span_end ~tid:0 "writer.install";
      Race.on_write ~tid:1 ~line:2 ~time:20)
  in
  match r.Race.conflicts with
  | [ c ] ->
    check Alcotest.(list string) "first writer's spans" [ "writer.install" ] c.Race.first_spans;
    check Alcotest.int "line recorded" 2 c.Race.line;
    check Alcotest.int "tids recorded" 0 c.Race.first_tid
  | l -> Alcotest.failf "expected one conflict, got %d" (List.length l)

let test_guard_probe_counted () =
  let r = with_race (fun () -> Race.on_probe ~tid:0 "guard.violation" 1 2) in
  check Alcotest.int "violation observed" 1 r.Race.guard_violations;
  check Alcotest.bool "probes alone are not conflicts" true (Race.ok r)

let test_disabled_is_free () =
  check Alcotest.bool "disabled outside start/stop" false (Race.enabled ());
  Race.on_write ~tid:0 ~line:1 ~time:0;
  (* no sink installed: the hook must be a no-op, not a crash *)
  Race.start ();
  check Alcotest.bool "enabled inside" true (Race.enabled ());
  let r = Race.stop () in
  check Alcotest.int "clean empty run" 0 r.Race.accesses

(* ---- end-to-end verdicts over the simulated workloads ---- *)

let analyze_workload ?scenario ?guard_policy name ~threads ~dur =
  Sim.with_fresh_instance @@ fun () ->
  let machine = Machine.amd in
  let boundary = Workloads.measure_boundary machine in
  let ts : (module Ordo_core.Timestamp.S) =
    match guard_policy with
    | None ->
      let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
      (module Ordo_core.Timestamp.Ordo_source (O))
    | Some chosen ->
      let module G =
        Guard.Make
          (R)
          (struct
            include Guard.Defaults

            let boundary = boundary
            let policy = chosen
          end)
      in
      (module Ordo_core.Timestamp.Ordo_source (G))
  in
  let total = Topology.total_threads machine.Machine.topo in
  Race.start ~boundary ~threads:total ();
  let stats = Workloads.run name ~report:false ?scenario machine ts ~threads ~dur in
  (Race.stop (), stats)

let test_correct_workloads_silent () =
  List.iter
    (fun name ->
      let r, _ = analyze_workload name ~threads:12 ~dur:100_000 in
      check Alcotest.int (name ^ " has no conflicts") 0 r.Race.total_conflicts;
      check Alcotest.bool (name ^ " tracked accesses") true (r.Race.accesses > 0))
    [ "rlu"; "occ"; "tl2" ]

let test_race_fixture_fires_deterministically () =
  let r1, s1 = analyze_workload "race" ~threads:8 ~dur:60_000 in
  let r2, s2 = analyze_workload "race" ~threads:8 ~dur:60_000 in
  check Alcotest.bool "conflicts found" true (r1.Race.total_conflicts > 0);
  check Alcotest.bool "plain races, not uncertainty" true (Race.races r1 > 0);
  check Alcotest.int "same verdict on rerun" r1.Race.total_conflicts r2.Race.total_conflicts;
  check Alcotest.int "same distinct pairs" (List.length r1.Race.conflicts)
    (List.length r2.Race.conflicts);
  check Alcotest.int "same end of run" s1.Engine.end_vtime s2.Engine.end_vtime

let test_window_fixture_uncertain () =
  let r1, _ = analyze_workload "window" ~threads:2 ~dur:60_000 in
  let r2, _ = analyze_workload "window" ~threads:2 ~dur:60_000 in
  check Alcotest.int "exactly one conflict" 1 r1.Race.total_conflicts;
  check Alcotest.int "classified uncertain" 1 (Race.uncertain r1);
  check Alcotest.int "deterministic" r1.Race.total_conflicts r2.Race.total_conflicts

let test_handshake_fixture_silent () =
  let r, _ = analyze_workload "handshake" ~threads:2 ~dur:60_000 in
  check Alcotest.int "certain handoff is clean" 0 r.Race.total_conflicts;
  check Alcotest.bool "via an admitted timestamp edge" true (r.Race.ts_edges > 0)

let test_analysis_is_observational () =
  (* Same workload with the detector off and on: virtual time and event
     counts must be byte-identical — analysis is pure observation. *)
  let run analyze =
    Sim.with_fresh_instance @@ fun () ->
    let machine = Machine.amd in
    let boundary = Workloads.measure_boundary machine in
    let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
    let ts : (module Ordo_core.Timestamp.S) = (module Ordo_core.Timestamp.Ordo_source (O)) in
    if analyze then Race.start ~boundary ();
    let stats = Workloads.run "occ" ~report:false machine ts ~threads:12 ~dur:100_000 in
    if analyze then ignore (Race.stop () : Race.report);
    stats
  in
  let plain = run false and analyzed = run true in
  check Alcotest.int "same end_vtime" plain.Engine.end_vtime analyzed.Engine.end_vtime;
  check Alcotest.int "same event count" plain.Engine.events analyzed.Engine.events

(* ---- the guard under every fault scenario ----

   A clock fault must never surface as conflicting writes in a guarded
   run: the guard detects the hazard (surfacing as observed violations
   or uncertain comparisons) while the workload stays race-free. *)

let test_guarded_hazards_race_free () =
  List.iter
    (fun scenario_name ->
      let mk = Option.get (Scenario.by_name scenario_name) in
      let r, _ =
        Sim.with_fresh_instance @@ fun () ->
        let machine = Machine.amd in
        let boundary = Workloads.measure_boundary machine in
        let topo = machine.Machine.topo in
        let scenario = mk ~seed:1 ~dur:80_000 ~threads:8 topo in
        let module G =
          Guard.Make
            (R)
            (struct
              include Guard.Defaults

              let boundary = boundary
              let policy = Guard.Inflate
            end)
        in
        let ts : (module Ordo_core.Timestamp.S) =
          (module Ordo_core.Timestamp.Ordo_source (G))
        in
        Race.start ~boundary ~threads:(Topology.total_threads topo) ();
        let stats = Workloads.run "occ" ~report:false ~scenario machine ts ~threads:8 ~dur:80_000 in
        (Race.stop (), stats)
      in
      check Alcotest.int
        (Printf.sprintf "scenario %s: guarded run has no conflicting writes" scenario_name)
        0 r.Race.total_conflicts;
      check Alcotest.bool
        (Printf.sprintf "scenario %s: detector saw the run" scenario_name)
        true (r.Race.accesses > 0))
    Scenario.names

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    test_join_commutative;
    test_join_idempotent;
    test_join_associative;
    test_leq_antisym;
    test_join_is_lub;
    test_epoch_equals_full_vc;
    case "join growth stays bounded" test_join_bounded_growth;
    case "blind cross-thread write conflicts" test_blind_write_conflicts;
    case "rmw lock handoff is ordered" test_rmw_handoff_is_ordered;
    case "spin-read handoff is ordered" test_read_handoff_is_ordered;
    case "certain timestamp edge orders" test_timestamp_edge_orders;
    case "uncertain comparison admits nothing" test_uncertain_order_admits_nothing;
    case "conflicts carry spans and cores" test_conflict_carries_spans;
    case "guard probes counted" test_guard_probe_counted;
    case "disabled detector is inert" test_disabled_is_free;
    case "correct workloads are silent" test_correct_workloads_silent;
    case "race fixture fires deterministically" test_race_fixture_fires_deterministically;
    case "window fixture: uncertain ordering" test_window_fixture_uncertain;
    case "handshake fixture is silent" test_handshake_fixture_silent;
    case "analysis is purely observational" test_analysis_is_observational;
    case "guarded hazards stay race-free" test_guarded_hazards_race_free;
  ]
