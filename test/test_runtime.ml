(* Runtime substrates: barrier, ticket spinlock, MCS lock — exercised both
   in the simulator (many threads) and on real domains (true parallelism,
   however many cores the host has). *)

(* Harness-level verdict flags on real domains sit outside the structure
   under test on purpose: routing them through the runtime would add
   synchronization to the schedule being exercised. *)
[@@@ordo_lint.allow "atomic-confinement"]

module SimR = Ordo_sim.Sim.Runtime
module Sim = Ordo_sim.Sim
module Machine = Ordo_sim.Machine
module RealR = Ordo_runtime.Real.Runtime

let tiny =
  Machine.make
    { Ordo_util.Topology.name = "tiny"; sockets = 2; cores_per_socket = 4; smt = 1; ghz = 2.0 }
    ~noise_prob:0.0 ~core_jitter_ns:0

(* ---- barrier ---- *)

let test_barrier_sim () =
  let module B = Ordo_runtime.Barrier.Make (SimR) in
  let threads = 6 and rounds = 20 in
  let barrier = B.create threads in
  let counter = SimR.cell 0 in
  let ok = ref true in
  ignore
    (Sim.run tiny ~threads (fun _ ->
         for round = 1 to rounds do
           ignore (SimR.fetch_add counter 1);
           B.wait barrier;
           (* After the barrier, every thread of this round has counted. *)
           if SimR.read counter < round * threads then ok := false;
           B.wait barrier
         done));
  Alcotest.(check bool) "no thread passed early" true !ok;
  Alcotest.(check int) "total arrivals" (threads * rounds) (SimR.read counter)

let test_barrier_real () =
  let module B = Ordo_runtime.Barrier.Make (RealR) in
  let threads = 4 and rounds = 50 in
  let barrier = B.create threads in
  let counter = RealR.cell 0 in
  let ok = Atomic.make true in
  Ordo_runtime.Real.run ~threads (fun _ ->
      for round = 1 to rounds do
        ignore (RealR.fetch_add counter 1);
        B.wait barrier;
        if RealR.read counter < round * threads then Atomic.set ok false;
        B.wait barrier
      done);
  Alcotest.(check bool) "real barrier holds" true (Atomic.get ok)

let test_barrier_phase () =
  let module B = Ordo_runtime.Barrier.Make (SimR) in
  let b = B.create 3 in
  Alcotest.(check int) "phase starts at 0" 0 (B.phase b);
  ignore
    (Sim.run tiny ~threads:3 (fun _ ->
         for _ = 1 to 7 do
           B.wait b
         done));
  Alcotest.(check int) "one generation per round" 7 (B.phase b)

let test_barrier_invalid () =
  let module B = Ordo_runtime.Barrier.Make (SimR) in
  Alcotest.check_raises "parties >= 1" (Invalid_argument "Barrier.create: parties must be >= 1")
    (fun () -> ignore (B.create 0))

(* ---- mutual exclusion: shared harness ---- *)

(* Increment a plain (non-atomic) pair under the lock; any mutual-exclusion
   violation shows up as a torn pair or a lost update. *)
let exercise_sim_lock ~acquire ~release =
  let a = ref 0 and b = ref 0 in
  let threads = 8 and per = 200 in
  ignore
    (Sim.run tiny ~threads (fun _ ->
         for _ = 1 to per do
           acquire ();
           let va = !a in
           SimR.work 5;
           a := va + 1;
           b := !b + 1;
           release ()
         done));
  Alcotest.(check int) "no lost updates (a)" (threads * per) !a;
  Alcotest.(check int) "pair consistent (b)" (threads * per) !b

let test_spinlock_sim () =
  let module L = Ordo_runtime.Spinlock.Make (SimR) in
  let lock = L.create () in
  exercise_sim_lock ~acquire:(fun () -> L.acquire lock) ~release:(fun () -> L.release lock)

let test_mcs_sim () =
  let module L = Ordo_runtime.Mcs.Make (SimR) in
  let lock = L.create () in
  let token = ref None in
  exercise_sim_lock
    ~acquire:(fun () -> token := Some (L.acquire lock))
    ~release:(fun () ->
      match !token with
      | Some tok ->
        token := None;
        L.release lock tok
      | None -> Alcotest.fail "release without acquire")

let test_mcs_with_lock_sim () =
  let module L = Ordo_runtime.Mcs.Make (SimR) in
  let lock = L.create () in
  let x = ref 0 in
  ignore
    (Sim.run tiny ~threads:6 (fun _ ->
         for _ = 1 to 100 do
           L.with_lock lock (fun () ->
               let v = !x in
               SimR.work 3;
               x := v + 1)
         done));
  Alcotest.(check int) "with_lock excludes" 600 !x

let test_spinlock_try_acquire () =
  let module L = Ordo_runtime.Spinlock.Make (SimR) in
  let lock = L.create () in
  Alcotest.(check bool) "uncontended try succeeds" true (L.try_acquire lock);
  Alcotest.(check bool) "held try fails" false (L.try_acquire lock);
  L.release lock;
  Alcotest.(check bool) "after release try succeeds" true (L.try_acquire lock);
  L.release lock

let test_spinlock_real () =
  let module L = Ordo_runtime.Spinlock.Make (RealR) in
  let lock = L.create () in
  let x = ref 0 in
  let threads = 4 and per = 1000 in
  Ordo_runtime.Real.run ~threads (fun _ ->
      for _ = 1 to per do
        L.acquire lock;
        x := !x + 1;
        L.release lock
      done);
  Alcotest.(check int) "real spinlock excludes" (threads * per) !x

let test_mcs_real () =
  let module L = Ordo_runtime.Mcs.Make (RealR) in
  let lock = L.create () in
  let x = ref 0 in
  let threads = 4 and per = 1000 in
  Ordo_runtime.Real.run ~threads (fun _ ->
      for _ = 1 to per do
        L.with_lock lock (fun () -> x := !x + 1)
      done);
  Alcotest.(check int) "real MCS excludes" (threads * per) !x

(* ---- qcheck model checks under 2-4 real domains ----

   Random thread counts and iteration loads; mutual exclusion is checked
   with the torn-pair model (two plain refs bumped together under the
   lock — any exclusion failure shows as a lost update or a split pair),
   the barrier with its generation counter. *)

let qtest ?(count = 6) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let exercise_real_lock ~threads ~per ~acquire ~release =
  let a = ref 0 and b = ref 0 in
  Ordo_runtime.Real.run ~threads (fun _ ->
      for _ = 1 to per do
        acquire ();
        let va = !a in
        a := va + 1;
        b := !b + 1;
        release ()
      done);
  !a = threads * per && !b = threads * per

let qcheck_spinlock_real =
  qtest "qcheck: spinlock excludes on 2-4 real domains"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 1 300))
    (fun (threads, per) ->
      let module L = Ordo_runtime.Spinlock.Make (RealR) in
      let lock = L.create () in
      exercise_real_lock ~threads ~per
        ~acquire:(fun () -> L.acquire lock)
        ~release:(fun () -> L.release lock))

let qcheck_mcs_real =
  qtest "qcheck: mcs excludes on 2-4 real domains"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 1 300))
    (fun (threads, per) ->
      let module L = Ordo_runtime.Mcs.Make (RealR) in
      let lock = L.create () in
      let a = ref 0 and b = ref 0 in
      Ordo_runtime.Real.run ~threads (fun _ ->
          for _ = 1 to per do
            L.with_lock lock (fun () ->
                let va = !a in
                a := va + 1;
                b := !b + 1)
          done);
      !a = threads * per && !b = threads * per)

let qcheck_barrier_real =
  qtest "qcheck: barrier generations on 2-4 real domains"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 1 40))
    (fun (threads, rounds) ->
      let module B = Ordo_runtime.Barrier.Make (RealR) in
      let b = B.create threads in
      Ordo_runtime.Real.run ~threads (fun _ ->
          for _ = 1 to rounds do
            B.wait b
          done);
      B.phase b = rounds)

(* ---- real runtime basics ---- *)

let test_real_tids () =
  let seen = Array.make 4 false in
  Ordo_runtime.Real.run ~threads:4 (fun i ->
      assert (RealR.tid () = i);
      seen.(i) <- true);
  Alcotest.(check bool) "all tids ran" true (Array.for_all Fun.id seen)

(* Regression: the DLS default used to hand every unplaced domain tid 0,
   so two bare [Domain.spawn]s aliased each other's per-thread state
   (OpLog logs, CC contexts).  Unplaced domains must now draw distinct
   nonzero fallback ids, while the main domain stays pinned at 0. *)
let test_real_tids_never_alias () =
  Alcotest.(check int) "main domain is tid 0" 0 (RealR.tid ());
  let d1 = Domain.spawn (fun () -> RealR.tid ()) in
  let d2 = Domain.spawn (fun () -> RealR.tid ()) in
  let t1 = Domain.join d1 and t2 = Domain.join d2 in
  Alcotest.(check bool) "unplaced domains are not tid 0" true (t1 > 0 && t2 > 0);
  Alcotest.(check bool) "two live domains never alias" true (t1 <> t2)

let test_real_cells () =
  let c = RealR.cell 0 in
  Ordo_runtime.Real.run ~threads:4 (fun _ ->
      for _ = 1 to 1000 do
        ignore (RealR.fetch_add c 1)
      done);
  Alcotest.(check int) "atomic adds" 4000 (RealR.read c)

let test_real_work_and_time () =
  let t0 = RealR.now () in
  RealR.work 2_000_000;
  let dt = RealR.now () - t0 in
  Alcotest.(check bool) "work burns about the requested time" true (dt >= 2_000_000);
  let a = RealR.get_time () in
  let b = RealR.get_time () in
  Alcotest.(check bool) "host invariant clock nondecreasing" true (b >= a)

(* ---- await_clock ---- *)

(* Every substrate returns the first reading the predicate takes, and
   asks it about each reading in turn. *)
let test_await_clock () =
  let await name get_time await_clock ~by =
    let t0 = get_time () in
    let asked = ref 0 in
    let v =
      await_clock (fun v ->
          incr asked;
          v > t0 + by)
    in
    Alcotest.(check bool) (name ^ ": accepted reading is past the target") true (v > t0 + by);
    Alcotest.(check bool) (name ^ ": asked at least once") true (!asked >= 1);
    !asked
  in
  ignore (await "real" RealR.get_time RealR.await_clock ~by:2_000 : int);
  (* Outside a run the simulated clock moves 10 ns a read. *)
  Alcotest.(check int) "sim, outside a run: one question per read" 10
    (await "sim outside" SimR.get_time SimR.await_clock ~by:95);
  ignore
    (Sim.run tiny ~threads:2 (fun _ ->
         ignore (await "sim" SimR.get_time SimR.await_clock ~by:500 : int)));
  ()

(* ---- await_cell ---- *)

(* Every substrate returns the first value the predicate takes, and asks
   it about each value read in turn. *)
let test_await_cell () =
  let c = RealR.cell 0 in
  let writer = Domain.spawn (fun () -> for i = 1 to 5 do RealR.write c i done) in
  let v = RealR.await_cell c (fun v -> v = 5) in
  Domain.join writer;
  Alcotest.(check int) "real: the accepted value" 5 v;
  (* Outside a run a read is free and the value never changes: the
     predicate is asked once per read until it gives in. *)
  let c = SimR.cell 7 and asked = ref 0 in
  let v =
    SimR.await_cell c (fun _ ->
        incr asked;
        !asked = 3)
  in
  Alcotest.(check (pair int int)) "sim, outside a run: value, questions" (7, 3) (v, !asked);
  let c = SimR.cell 0 and seen = ref (0, 0, 0) in
  ignore
    (Sim.run tiny ~threads:2 (fun i ->
         if i = 0 then begin
           SimR.work 500;
           SimR.write c 1;
           SimR.work 200;
           SimR.write c 2
         end
         else begin
           let asked = ref 0 in
           let v =
             SimR.await_cell c (fun v ->
                 incr asked;
                 v = 2)
           in
           seen := (v, !asked, SimR.now ())
         end));
  let v, asked, at = !seen in
  Alcotest.(check int) "sim: the accepted value" 2 v;
  Alcotest.(check bool) "sim: the waiter read many times" true (asked > 10);
  Alcotest.(check bool) "sim: accepted after the second write" true (at >= 700)

(* ---- the MCS lock against its explicit-loop reference ----

   [Mcs.Make] waits through [R.await_cell]; [Mcs_ref] spells the same
   waits out as read/pause loops.  Both must give the same run: event
   count, end time, trace stream and race report, with every thread of
   [Same_run]'s noisy 120-thread Xeon on one lock; each run gets a fresh
   simulator instance, so both start on the same timeline.  The first
   round queues all 120 threads; between rounds each thread works about
   55 us, staggered by thread, so that second-round arrivals meet
   releases and some releases wait in [release] for a successor that
   has swapped the tail but not linked in yet. *)

module Trace = Ordo_trace.Trace
module Race = Ordo_analyze.Race
module Scenario = Ordo_hazard.Scenario

module type LOCK = sig
  type t
  type token

  val create : unit -> t
  val acquire : t -> token
  val release : t -> token -> unit
end

let lock_run ?scenario (module L : LOCK) =
  Sim.with_fresh_instance (fun () ->
      let lock = L.create () and counter = SimR.cell 0 in
      let stats =
        Sim.run ?scenario Same_run.noisy_xeon ~threads:Same_run.threads (fun i ->
            for k = 1 to 2 do
              let tok = L.acquire lock in
              SimR.write counter (SimR.read counter + 1);
              SimR.work (((i * 7) + (k * 13)) mod 60);
              L.release lock tok;
              SimR.work (55_000 + (i * 13))
            done)
      in
      Alcotest.(check int) "every critical section counted" (Same_run.threads * 2)
        (SimR.read counter);
      stats)

let lock_pair () =
  ((module Ordo_runtime.Mcs.Make (SimR) : LOCK), (module Mcs_ref.Make (SimR) : LOCK))

let test_mcs_matches_ref () =
  let l, r = lock_pair () in
  Same_run.check_stats "untraced" (lock_run l) (lock_run r);
  let run_l, t_l = Same_run.traced (fun () -> lock_run l) in
  let run_r, t_r = Same_run.traced (fun () -> lock_run r) in
  Same_run.check_stats "traced" run_l run_r;
  Same_run.check_trace "traced" t_l t_r;
  Alcotest.(check bool) "the waits pause" true (Same_run.has Trace.Pause t_l)

let test_mcs_matches_ref_race () =
  let l, r = lock_pair () in
  let analyzed m =
    Race.start ~boundary:286 ~threads:Same_run.threads ();
    let run = lock_run m in
    (run, Race.stop ())
  in
  let run_l, rep_l = analyzed l in
  let run_r, rep_r = analyzed r in
  Same_run.check_stats "race" run_l run_r;
  Alcotest.(check bool) "same race report" true (rep_l = rep_r)

(* Offline windows and a migration: under a scenario the engine runs the
   reference loop itself, which must still agree with the explicit one. *)
let test_mcs_matches_ref_hazard () =
  let scenario =
    {
      Scenario.name = "await_cell";
      events =
        [
          { Scenario.at = 2_000; action = Scenario.Offline { core = 3; dur_ns = 3_000; resync_ns = 40 } };
          { Scenario.at = 2_500; action = Scenario.Migrate { thread = 7; target = 100 } };
          { Scenario.at = 4_000; action = Scenario.Offline { core = 40; dur_ns = 2_000; resync_ns = 10 } };
        ];
    }
  in
  Scenario.validate Same_run.noisy_xeon.Machine.topo scenario;
  let l, r = lock_pair () in
  let run_l, t_l = Same_run.traced (fun () -> lock_run ~scenario l) in
  let run_r, t_r = Same_run.traced (fun () -> lock_run ~scenario r) in
  Same_run.check_stats "hazard" run_l run_r;
  Same_run.check_trace "hazard" t_l t_r;
  Alcotest.(check bool) "hazards fired" true (Same_run.has Trace.Hazard t_l)

let suite =
  [
    ("barrier (sim)", `Quick, test_barrier_sim);
    ("barrier (real)", `Quick, test_barrier_real);
    ("barrier phase", `Quick, test_barrier_phase);
    ("barrier invalid", `Quick, test_barrier_invalid);
    ("await_clock on every substrate", `Quick, test_await_clock);
    ("spinlock excludes (sim)", `Quick, test_spinlock_sim);
    ("mcs excludes (sim)", `Quick, test_mcs_sim);
    ("mcs with_lock (sim)", `Quick, test_mcs_with_lock_sim);
    ("spinlock try_acquire", `Quick, test_spinlock_try_acquire);
    ("spinlock excludes (real)", `Quick, test_spinlock_real);
    ("mcs excludes (real)", `Quick, test_mcs_real);
    ("real tids", `Quick, test_real_tids);
    ("real tids never alias", `Quick, test_real_tids_never_alias);
    ("real atomic cells", `Quick, test_real_cells);
    ("real work/time", `Quick, test_real_work_and_time);
    qcheck_spinlock_real;
    qcheck_mcs_real;
    qcheck_barrier_real;
    ("await_cell on every substrate", `Quick, test_await_cell);
    ("mcs await_cell = reference loop", `Quick, test_mcs_matches_ref);
    ("mcs await_cell = reference, race analysis", `Quick, test_mcs_matches_ref_race);
    ("mcs await_cell = reference, hazard scenario", `Quick, test_mcs_matches_ref_hazard);
  ]
