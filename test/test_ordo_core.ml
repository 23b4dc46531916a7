(* The Ordo primitive itself: cmp/new_time semantics, the Figure 4 offset
   measurement and its soundness invariant (measured boundary dominates the
   physical skew), and the timestamp sources. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Ordo = Ordo_core.Ordo
module Boundary = Ordo_core.Boundary
module Timestamp = Ordo_core.Timestamp
module Topology = Ordo_util.Topology

module O100 = Ordo.Make (R) (struct let boundary = 100 end)

let test_cmp_time () =
  Alcotest.(check int) "certainly after" 1 (O100.cmp_time 301 200);
  Alcotest.(check int) "certainly before" (-1) (O100.cmp_time 200 301);
  Alcotest.(check int) "uncertain (+)" 0 (O100.cmp_time 300 200);
  Alcotest.(check int) "uncertain (-)" 0 (O100.cmp_time 200 300);
  Alcotest.(check int) "equal uncertain" 0 (O100.cmp_time 200 200)

let test_cmp_time_saturates () =
  (* Sentinel comparisons near max_int must not overflow. *)
  Alcotest.(check int) "vs max_int" (-1) (O100.cmp_time 5 max_int);
  Alcotest.(check int) "max_int vs small" 1 (O100.cmp_time max_int 5);
  Alcotest.(check int) "max_int vs max_int" 0 (O100.cmp_time max_int max_int)

let test_negative_boundary_rejected () =
  Alcotest.check_raises "negative boundary" (Invalid_argument "Ordo.Make: negative boundary")
    (fun () ->
      let module Bad = Ordo.Make (R) (struct let boundary = -1 end) in
      ignore Bad.boundary)

let test_new_time_exceeds () =
  let result = ref 0 and base = ref 0 in
  ignore
    (Sim.run Machine.xeon ~threads:1 (fun _ ->
         let module O = Ordo.Make (R) (struct let boundary = 300 end) in
         base := O.get_time ();
         result := O.new_time !base));
  Alcotest.(check bool) "new_time > t + boundary" true (!result > !base + 300)

let test_new_time_cmp_consistent () =
  ignore
    (Sim.run Machine.xeon ~threads:1 (fun _ ->
         let module O = Ordo.Make (R) (struct let boundary = 300 end) in
         let t = O.get_time () in
         let nt = O.new_time t in
         if O.cmp_time nt t <> 1 then Alcotest.fail "new_time not certainly after"))

(* ---- Figure 4 measurement ---- *)

let skewed sockets cores reset =
  Machine.make
    { Topology.name = "skewed"; sockets; cores_per_socket = cores; smt = 1; ghz = 2.0 }
    ~socket_reset_ns:reset ~core_jitter_ns:0 ~noise_prob:0.02

let test_offsets_positive () =
  (* The paper never observed a negative measured offset: the one-way
     delay dominates the skew on every preset. *)
  List.iter
    (fun m ->
      let module E = (val Sim.exec m) in
      let module B = Boundary.Make (E) in
      let topo = m.Machine.topo in
      let last = Topology.total_threads topo - 1 in
      List.iter
        (fun (w, r) ->
          let d = B.clock_offset ~runs:60 ~writer:w ~reader:r () in
          if d <= 0 then
            Alcotest.failf "non-positive offset %d on %s (%d->%d)" d topo.Topology.name w r)
        [ (0, 1); (1, 0); (0, last); (last, 0) ])
    Machine.presets

let test_boundary_invariant () =
  (* Soundness: the measured global offset must exceed the largest
     physical skew between any two cores — the paper's Section 3.2
     invariant, on a machine with a huge 500 ns skew. *)
  let m = skewed 2 3 [| 0; 500 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  let measured = B.measure ~runs:60 () in
  Alcotest.(check bool)
    (Printf.sprintf "boundary %d > physical skew 500" measured)
    true (measured > 500)

let test_pair_offset_max_of_directions () =
  let m = skewed 2 2 [| 0; 200 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  let ab = B.clock_offset ~runs:40 ~writer:0 ~reader:2 () in
  let ba = B.clock_offset ~runs:40 ~writer:2 ~reader:0 () in
  Alcotest.(check int) "pair = max of both directions" (max ab ba) (B.pair_offset ~runs:40 0 2)

let test_offset_asymmetry_reveals_skew () =
  (* δij - δji ≈ 2 * skew: the asymmetric heatmap of Figure 9(d). *)
  let m = skewed 2 2 [| 0; 400 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  let from_late = B.clock_offset ~runs:60 ~writer:2 ~reader:0 () in
  let from_early = B.clock_offset ~runs:60 ~writer:0 ~reader:2 () in
  let gap = from_late - from_early in
  Alcotest.(check bool)
    (Printf.sprintf "asymmetry ~2*400 (got %d)" gap)
    true
    (gap > 600 && gap < 1000)

let test_offset_matrix_shape () =
  let m = skewed 1 4 [| 0 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  let mat = B.offset_matrix ~runs:20 () in
  Alcotest.(check int) "square" 4 (Array.length mat);
  Array.iteri
    (fun i row ->
      Alcotest.(check int) "row width" 4 (Array.length row);
      Alcotest.(check int) "zero diagonal" 0 row.(i))
    mat

let test_same_core_offset_zero () =
  let m = skewed 1 2 [| 0 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  Alcotest.(check int) "self offset" 0 (B.clock_offset ~writer:1 ~reader:1 ())

let test_min_of_runs_tightens () =
  (* More runs can only lower (or keep) the measured offset: the min
     filters interrupt-style noise — the paper's rationale for 100k runs. *)
  let m = skewed 2 2 [| 0; 50 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  let few = B.clock_offset ~runs:3 ~writer:0 ~reader:2 () in
  let many = B.clock_offset ~runs:200 ~writer:0 ~reader:2 () in
  Alcotest.(check bool)
    (Printf.sprintf "min over runs non-increasing (%d -> %d)" few many)
    true (many <= few)

(* ---- timestamp sources ---- *)

let test_logical_source () =
  let module L = Timestamp.Logical (R) () in
  Alcotest.(check int) "boundary 0" 0 L.boundary;
  let a = L.advance () in
  let b = L.advance () in
  Alcotest.(check bool) "advance strictly increases" true (b > a);
  Alcotest.(check bool) "after exceeds arg" true (L.after (b + 10) > b + 10);
  Alcotest.(check int) "cmp is compare" (-1) (L.cmp 1 2)

let test_logical_unique_across_threads () =
  let module L = Timestamp.Logical (R) () in
  let threads = 6 and per = 100 in
  let all = Array.make (threads * per) 0 in
  ignore
    (Sim.run Machine.xeon ~threads (fun i ->
         for j = 0 to per - 1 do
           all.((i * per) + j) <- L.advance ()
         done));
  let sorted = Array.copy all in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then Alcotest.fail "duplicate logical timestamp"
  done

let test_generative_logical_independent () =
  let module A = Timestamp.Logical (R) () in
  let module B = Timestamp.Logical (R) () in
  ignore (A.advance ());
  ignore (A.advance ());
  Alcotest.(check int) "fresh counter" 2 (B.advance ())

let test_ordo_source () =
  ignore
    (Sim.run Machine.xeon ~threads:1 (fun _ ->
         let module O = Ordo.Make (R) (struct let boundary = 300 end) in
         let module S = Timestamp.Ordo_source (O) in
         if S.boundary <> 300 then Alcotest.fail "boundary";
         let t = S.get () in
         let t' = S.after t in
         if S.cmp t' t <> 1 then Alcotest.fail "after not certainly newer"))

let test_raw_source () =
  let module Raw = Timestamp.Raw (R) in
  Alcotest.(check int) "raw boundary 0" 0 Raw.boundary;
  ignore
    (Sim.run Machine.xeon ~threads:1 (fun _ ->
         let a = Raw.get () in
         let b = Raw.get () in
         if b <= a then Alcotest.fail "raw clock must advance"))

let test_order_helpers () =
  let module Exact = Timestamp.Order (struct
    let boundary = 0
    let cmp = compare
  end) in
  Alcotest.(check bool) "exact: equal counts as after" true (Exact.certainly_after 5 5);
  Alcotest.(check bool) "exact: equal counts as before" true (Exact.certainly_before 5 5);
  let module Fuzzy = Timestamp.Order (struct
    let boundary = 100
    let cmp t1 t2 = if t1 > t2 + 100 then 1 else if t1 + 100 < t2 then -1 else 0
  end) in
  Alcotest.(check bool) "fuzzy: equal is uncertain" false (Fuzzy.certainly_after 5 5);
  Alcotest.(check bool) "fuzzy: far after" true (Fuzzy.certainly_after 500 5);
  Alcotest.(check bool) "fuzzy: far before" true (Fuzzy.certainly_before 5 500)

(* ---- randomized properties ---- *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let qcheck_cmp_antisymmetric =
  qtest "cmp_time antisymmetric"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (t1, t2) -> O100.cmp_time t1 t2 = -O100.cmp_time t2 t1)

let qcheck_certain_transitive =
  (* Certain answers must chain: if a is certainly after b and b certainly
     after c, then a is certainly after c.  (Uncertainty is famously not
     transitive; certainty has to be.) *)
  qtest "certain ordering transitive"
    QCheck2.Gen.(triple (int_range 0 2_000) (int_range 0 2_000) (int_range 0 2_000))
    (fun (a, b, c) ->
      (not (O100.cmp_time a b = 1 && O100.cmp_time b c = 1)) || O100.cmp_time a c = 1)

let qcheck_new_time_under_random_skew =
  (* On machines with random per-socket skews, every thread's new_time
     must clear t + measured boundary — the primitive's contract does not
     depend on which clock happens to run ahead. *)
  qtest ~count:6 "new_time clears boundary under random skews"
    QCheck2.Gen.(pair (int_range 0 600) (int_range 0 600))
    (fun (s1, s2) ->
      let m = skewed 3 1 [| 0; s1; s2 |] in
      let module E = (val Sim.exec m) in
      let module B = Boundary.Make (E) in
      let boundary = max 1 (B.measure ~runs:20 ()) in
      let ok = ref true in
      ignore
        (Sim.run m ~threads:3 (fun _ ->
             let module O = Ordo.Make (R) (struct let boundary = boundary end) in
             let t = O.get_time () in
             let nt = O.new_time t in
             if nt <= t + boundary || O.cmp_time nt t <> 1 then ok := false)
          : Ordo_sim.Engine.stats);
      !ok)

(* ---- per-pair boundaries (Section 7 alternative) ---- *)

let test_pair_matrix_symmetric () =
  let m = skewed 2 2 [| 0; 300 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  let table = B.pair_matrix ~runs:30 () in
  let n = Array.length table in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check int) "symmetric" table.(j).(i) table.(i).(j)
    done;
    Alcotest.(check int) "zero diagonal" 0 table.(i).(i)
  done

let test_pairwise_tightens () =
  (* Intra-socket pairs get a much smaller window than the global bound. *)
  let m = skewed 2 2 [| 0; 400 |] in
  let module E = (val Sim.exec m) in
  let module B = Boundary.Make (E) in
  let table = B.pair_matrix ~runs:60 () in
  let module P = Ordo_core.Pairwise.Make (R) (struct let table = table end) in
  Alcotest.(check bool) "intra-socket < global" true
    (P.boundary 0 1 < P.global_boundary / 2);
  (* An intra-socket gap that the global boundary calls uncertain is
     certain under the pair boundary. *)
  let t1 = 1_000_000 in
  let gap = (P.boundary 0 1 + P.global_boundary) / 2 in
  Alcotest.(check int) "pairwise orders it" 1 (P.cmp_time ~c1:0 (t1 + gap) ~c2:1 t1);
  let module G = Ordo.Make (R) (struct let boundary = P.global_boundary end) in
  Alcotest.(check int) "global is uncertain" 0 (G.cmp_time (t1 + gap) t1)

let test_pairwise_validation () =
  Alcotest.check_raises "asymmetric rejected" (Invalid_argument "Pairwise.Make: table not symmetric")
    (fun () ->
      let module _ =
        Ordo_core.Pairwise.Make
          (R)
          (struct
            let table = [| [| 0; 5 |]; [| 7; 0 |] |]
          end)
      in
      ())

(* [Pairwise.Make]'s [new_time] waits through [R.await_clock]; here it
   runs against the get_time/pause loop it replaced, spelled out.  Each of
   4 threads waits past a stamp its neighbour published (or its own
   clock, whichever is later) under their pair boundary, 10 times; both
   runs must agree on every stamp, the engine's events and end time, and
   the whole trace stream. *)
let test_pairwise_new_time () =
  let m = skewed 2 2 [| 0; 200 |] in
  let table =
    let module E = (val Sim.exec m) in
    let module B = Boundary.Make (E) in
    B.pair_matrix ~runs:30 ()
  in
  let module P = Ordo_core.Pairwise.Make (R) (struct let table = table end) in
  let explicit ~c_from t =
    let me = R.tid () in
    let rec wait () =
      let now = R.get_time () in
      if P.cmp_time ~c1:me now ~c2:c_from t = 1 then now
      else begin
        R.pause ();
        wait ()
      end
    in
    wait ()
  in
  let threads = 4 in
  let run new_time =
    Sim.with_fresh_instance (fun () ->
        let slots = Array.init threads (fun _ -> R.cell 0) in
        let stamps = Array.make threads [] in
        let stats =
          Sim.run m ~threads (fun i ->
              let c_from = (i + 1) mod threads in
              for _ = 1 to 10 do
                let t = Int.max (R.read slots.(c_from)) (P.get_time ()) in
                let nt = new_time ~c_from t in
                if P.cmp_time ~c1:i nt ~c2:c_from t <> 1 then
                  Alcotest.fail "pairwise new_time not certain";
                R.write slots.(i) nt;
                stamps.(i) <- nt :: stamps.(i);
                R.work 50
              done)
        in
        (stats, stamps))
  in
  let same name (s1, st1) (s2, st2) =
    Same_run.check_stats name s1 s2;
    Alcotest.(check bool) (name ^ ": stamps") true (st1 = st2)
  in
  same "untraced" (run P.new_time) (run explicit);
  let run_l, t_l = Same_run.traced (fun () -> run P.new_time) in
  let run_e, t_e = Same_run.traced (fun () -> run explicit) in
  same "traced" run_l run_e;
  Same_run.check_trace "traced" t_l t_e;
  Alcotest.(check bool) "the waits park" true (Same_run.has Ordo_trace.Trace.Pause t_l)

(* ---- await_clock against the reference loop ----

   [Ordo.Make]'s [new_time] waits through [R.await_clock]; [Ordo_ref]
   spells the same wait out as get_time/pause calls.  Both must give the
   same run: stamps, event count, end time, trace stream and race
   verdict, on [Same_run]'s noisy 120-thread Xeon; each run gets a
   fresh simulator instance, so both start on the same timeline. *)

module Trace = Ordo_trace.Trace
module Race = Ordo_analyze.Race
module Scenario = Ordo_hazard.Scenario
module Rng = Ordo_util.Rng

let noisy_xeon = Same_run.noisy_xeon
let ref_threads = Same_run.threads
let ref_boundary = 286

let ordo_pair () =
  let module B = struct
    let boundary = ref_boundary
  end in
  ( (module Ordo.Make (R) (B) : Ordo.S),
    (module Ordo_ref.Make (R) (B) : Ordo.S) )

(* Each thread waits past the larger of its own clock and a stamp some
   other thread published, so waits span cross-socket skew, then
   publishes its result and does some private work. *)
let stamp_run ?scenario (module O : Ordo.S) =
  Sim.with_fresh_instance (fun () ->
      let slots = Array.init 8 (fun _ -> R.cell 0) in
      let stamps = Array.make ref_threads [] in
      let stats =
        Sim.run ?scenario noisy_xeon ~threads:ref_threads (fun i ->
            let rng = Rng.create ~seed:(Int64.of_int (i + 1)) () in
            for _ = 1 to 12 do
              let peer = R.read slots.(Rng.int rng 8) in
              let t = O.new_time (Int.max peer (O.get_time ())) in
              R.write slots.(i mod 8) t;
              stamps.(i) <- t :: stamps.(i);
              R.work (Rng.int rng 300)
            done)
      in
      (stats, stamps))

let traced = Same_run.traced

let check_same_run name (s1, st1) (s2, st2) =
  Same_run.check_stats name s1 s2;
  Alcotest.(check bool) (name ^ ": stamps") true (st1 = st2)

let check_same_trace = Same_run.check_trace

let test_await_matches_ref () =
  let o, r = ordo_pair () in
  check_same_run "untraced" (stamp_run o) (stamp_run r);
  let run_o, t_o = traced (fun () -> stamp_run o) in
  let run_r, t_r = traced (fun () -> stamp_run r) in
  check_same_run "traced" run_o run_r;
  check_same_trace "traced" t_o t_r;
  Alcotest.(check bool) "the waits park" true
    (Array.exists (fun (e : Trace.event) -> e.Trace.kind = Trace.Pause) t_o.Trace.events)

let test_await_matches_ref_race () =
  let o, r = ordo_pair () in
  let analyzed m =
    Race.start ~boundary:ref_boundary ~threads:ref_threads ();
    let run = stamp_run m in
    (run, Race.stop ())
  in
  let run_o, rep_o = analyzed o in
  let run_r, rep_r = analyzed r in
  check_same_run "race" run_o run_r;
  Alcotest.(check bool) "stamps published" true (rep_o.Race.published > 0);
  Alcotest.(check bool) "same race report" true (rep_o = rep_r)

(* Offline windows on two cores (one pair overlapping) and a migration
   across sockets: under a scenario the engine runs the reference loop
   itself, which must still agree with the explicit one. *)
let test_await_matches_ref_hazard () =
  let scenario =
    {
      Scenario.name = "await";
      events =
        [
          { Scenario.at = 2_000; action = Scenario.Offline { core = 3; dur_ns = 3_000; resync_ns = 40 } };
          { Scenario.at = 3_500; action = Scenario.Offline { core = 3; dur_ns = 1_000; resync_ns = 0 } };
          { Scenario.at = 2_500; action = Scenario.Migrate { thread = 7; target = 100 } };
          { Scenario.at = 4_000; action = Scenario.Offline { core = 40; dur_ns = 2_000; resync_ns = 10 } };
        ];
    }
  in
  Scenario.validate noisy_xeon.Machine.topo scenario;
  let o, r = ordo_pair () in
  let run_o, t_o = traced (fun () -> stamp_run ~scenario o) in
  let run_r, t_r = traced (fun () -> stamp_run ~scenario r) in
  check_same_run "hazard" run_o run_r;
  check_same_trace "hazard" t_o t_r;
  Alcotest.(check bool) "hazards fired" true
    (Array.exists (fun (e : Trace.event) -> e.Trace.kind = Trace.Hazard) t_o.Trace.events)

(* The Oplog append path: every append waits in [T.after]. *)
let test_await_matches_ref_oplog () =
  let o, r = ordo_pair () in
  let oplog_run (module O : Ordo.S) =
    Sim.with_fresh_instance (fun () ->
        let module Log = Ordo_oplog.Oplog.Make (R) (Timestamp.Ordo_source (O)) in
        let log = Log.create ~threads:ref_threads () in
        let stats =
          Sim.run noisy_xeon ~threads:ref_threads (fun i ->
              for k = 1 to 6 do
                Log.append log ((i * 100) + k);
                R.work 50
              done)
        in
        let merged = ref [] in
        ignore
          (Log.synchronize log ~apply:(fun ~ts ~core op -> merged := (ts, core, op) :: !merged)
            : int);
        (stats, [| !merged |]))
  in
  let run_o, t_o = traced (fun () -> oplog_run o) in
  let run_r, t_r = traced (fun () -> oplog_run r) in
  check_same_run "oplog" run_o run_r;
  check_same_trace "oplog" t_o t_r;
  let _, merged = run_o in
  Alcotest.(check int) "every append merged" (ref_threads * 6) (List.length merged.(0))

let suite =
  [
    ("cmp_time", `Quick, test_cmp_time);
    ("pair matrix symmetric", `Quick, test_pair_matrix_symmetric);
    ("pairwise tightens windows", `Quick, test_pairwise_tightens);
    ("pairwise table validation", `Quick, test_pairwise_validation);
    ("pairwise new_time", `Quick, test_pairwise_new_time);
    ("cmp_time saturates", `Quick, test_cmp_time_saturates);
    ("negative boundary rejected", `Quick, test_negative_boundary_rejected);
    ("new_time exceeds boundary", `Quick, test_new_time_exceeds);
    ("new_time/cmp consistent", `Quick, test_new_time_cmp_consistent);
    ("offsets always positive", `Quick, test_offsets_positive);
    ("boundary soundness invariant", `Quick, test_boundary_invariant);
    ("pair offset = max of directions", `Quick, test_pair_offset_max_of_directions);
    ("asymmetry reveals skew", `Quick, test_offset_asymmetry_reveals_skew);
    ("offset matrix shape", `Quick, test_offset_matrix_shape);
    ("self offset zero", `Quick, test_same_core_offset_zero);
    ("min over runs tightens", `Quick, test_min_of_runs_tightens);
    ("logical source", `Quick, test_logical_source);
    ("logical unique across threads", `Quick, test_logical_unique_across_threads);
    ("generative logical instances", `Quick, test_generative_logical_independent);
    ("ordo source", `Quick, test_ordo_source);
    ("raw source", `Quick, test_raw_source);
    ("order helpers", `Quick, test_order_helpers);
    qcheck_cmp_antisymmetric;
    qcheck_certain_transitive;
    qcheck_new_time_under_random_skew;
    ("await_clock = reference loop", `Quick, test_await_matches_ref);
    ("await_clock = reference, race analysis", `Quick, test_await_matches_ref_race);
    ("await_clock = reference, hazard scenario", `Quick, test_await_matches_ref_hazard);
    ("await_clock = reference, oplog appends", `Quick, test_await_matches_ref_oplog);
  ]
