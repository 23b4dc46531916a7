(* Simulator engine: cell semantics, virtual time, determinism, clock skew,
   contention serialization, SMT slowdown, cross-run line reset. *)

module Machine = Ordo_sim.Machine
module Engine = Ordo_sim.Engine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Topology = Ordo_util.Topology

let tiny =
  (* 2 sockets x 4 cores x 2 SMT, no noise: exact arithmetic in tests. *)
  Machine.make
    { Topology.name = "tiny"; sockets = 2; cores_per_socket = 4; smt = 2; ghz = 2.0 }
    ~noise_prob:0.0 ~core_jitter_ns:0
    ~socket_reset_ns:[| 0; 100 |]

let test_outside_sim_direct () =
  let c = R.cell 5 in
  Alcotest.(check int) "read" 5 (R.read c);
  R.write c 7;
  Alcotest.(check int) "write" 7 (R.read c);
  Alcotest.(check bool) "cas ok" true (R.cas c 7 9);
  Alcotest.(check bool) "cas stale" false (R.cas c 7 9);
  Alcotest.(check int) "faa" 9 (R.fetch_add c 3);
  Alcotest.(check int) "xchg" 12 (R.exchange c 1);
  Alcotest.(check int) "final" 1 (R.read c);
  Alcotest.(check bool) "not in simulation" false (Engine.in_simulation ())

let test_setup_clock_moves () =
  let a = R.get_time () in
  let b = R.get_time () in
  Alcotest.(check bool) "setup clock advances" true (b > a)

let test_time_advances () =
  let elapsed = ref 0 in
  let stats =
    Sim.run tiny ~threads:1 (fun _ ->
        let t0 = R.now () in
        R.work 1_000;
        elapsed := R.now () - t0)
  in
  Alcotest.(check bool) "work advances virtual time" true (!elapsed >= 1_000);
  Alcotest.(check bool) "end_vtime covers it" true (stats.Engine.end_vtime >= 1_000)

let test_cell_ops_in_sim () =
  let c = R.cell 0 in
  let observed = ref (-1) in
  ignore
    (Sim.run tiny ~threads:1 (fun _ ->
         R.write c 10;
         ignore (R.fetch_add c 5);
         if R.cas c 15 20 then observed := R.read c));
  Alcotest.(check int) "sequence of ops" 20 !observed

let test_faa_no_lost_updates () =
  let c = R.cell 0 in
  let threads = 8 and per = 500 in
  ignore
    (Sim.run tiny ~threads (fun _ ->
         for _ = 1 to per do
           ignore (R.fetch_add c 1)
         done));
  Alcotest.(check int) "all increments applied" (threads * per) (R.read c)

let test_cas_single_winner () =
  (* Exactly one CAS from the initial value may succeed. *)
  let c = R.cell 0 in
  let winners = R.cell 0 in
  ignore
    (Sim.run tiny ~threads:8 (fun i ->
         if R.cas c 0 (i + 1) then ignore (R.fetch_add winners 1)));
  Alcotest.(check int) "one winner" 1 (R.read winners);
  Alcotest.(check bool) "value from winner" true (R.read c > 0)

let test_determinism () =
  let run () =
    let c = R.cell 0 in
    let stats =
      Sim.run tiny ~threads:6 (fun _ ->
          while R.now () < 20_000 do
            ignore (R.fetch_add c 1)
          done)
    in
    (R.read c, stats.Engine.events, stats.Engine.end_vtime)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical replay" true (a = b)

let test_clock_skew () =
  (* Socket 1 of [tiny] reset 100 ns late: its clock reads behind. *)
  let t0 = ref 0 and t1 = ref 0 in
  ignore
    (Sim.run_on tiny
       [ (0, fun () -> t0 := R.get_time ()); (4, fun () -> t1 := R.get_time ()) ]);
  let diff = !t0 - !t1 in
  Alcotest.(check bool)
    (Printf.sprintf "socket-1 clock behind by ~100 (diff %d)" diff)
    true
    (diff > 60 && diff < 140)

let test_get_time_monotonic_per_core () =
  let ok = ref true in
  ignore
    (Sim.run tiny ~threads:4 (fun _ ->
         let prev = ref 0 in
         for _ = 1 to 200 do
           let t = R.get_time () in
           if t <= !prev then ok := false;
           prev := t
         done));
  Alcotest.(check bool) "strictly increasing per core" true !ok

let test_rmw_serializes () =
  (* N threads hammering one line must take at least N * service time. *)
  let c = R.cell 0 in
  let threads = 8 and per = 100 in
  let stats =
    Sim.run tiny ~threads (fun _ ->
        for _ = 1 to per do
          ignore (R.fetch_add c 1)
        done)
  in
  let min_serial = threads * per * tiny.Machine.atomic_ns in
  Alcotest.(check bool)
    (Printf.sprintf "contended RMWs serialize (%d >= %d)" stats.Engine.end_vtime min_serial)
    true
    (stats.Engine.end_vtime >= min_serial)

let test_private_work_parallel () =
  (* The same amount of *private* work must not serialize. *)
  let stats = Sim.run tiny ~threads:4 (fun _ -> R.work 10_000) in
  Alcotest.(check bool) "parallel work overlaps" true (stats.Engine.end_vtime < 20_000)

let test_smt_slowdown () =
  (* Two threads on the same physical core run slower than on distinct
     cores. *)
  let solo = Sim.run_on tiny [ (0, fun () -> R.work 10_000) ] in
  let shared =
    Sim.run_on tiny [ (0, fun () -> R.work 10_000); (8, fun () -> R.work 10_000) ]
  in
  Alcotest.(check bool) "SMT sibling slows compute" true
    (shared.Engine.end_vtime > solo.Engine.end_vtime + 2_000)

let test_lines_reset_between_runs () =
  (* A line's busy-until from run 1 must not stall run 2. *)
  let c = R.cell 0 in
  ignore
    (Sim.run tiny ~threads:4 (fun _ ->
         for _ = 1 to 1000 do
           ignore (R.fetch_add c 1)
         done));
  let stats = Sim.run tiny ~threads:1 (fun _ -> ignore (R.fetch_add c 1)) in
  Alcotest.(check bool) "fresh run starts at time ~0" true (stats.Engine.end_vtime < 1_000)

let test_reader_waits_for_writer () =
  (* The one-way handoff costs at least transfer out + transfer back. *)
  let c = R.cell 0 in
  let seen_at = ref 0 in
  ignore
    (Sim.run_on tiny
       [
         (0, fun () -> R.write c 1);
         ( 4,
           fun () ->
             while R.read c = 0 do
               R.pause ()
             done;
             seen_at := R.now () );
       ]);
  Alcotest.(check bool)
    (Printf.sprintf "cross-socket handoff >= cross_ns (saw %d)" !seen_at)
    true
    (!seen_at >= tiny.Machine.cross_ns)

let test_run_validation () =
  Alcotest.check_raises "out-of-range hw thread"
    (Invalid_argument "Engine.run: hardware thread out of range") (fun () ->
      ignore (Sim.run_on tiny [ (1000, fun () -> ()) ]));
  Alcotest.check_raises "duplicate hw thread"
    (Invalid_argument "Engine.run: duplicate hardware thread") (fun () ->
      ignore (Sim.run_on tiny [ (0, Fun.id); (0, Fun.id) ]))

let test_machine_presets () =
  List.iter
    (fun (m : Machine.t) ->
      Alcotest.(check bool) "latency ordering l1 < llc < cross" true
        (m.Machine.l1_ns < m.Machine.llc_ns && m.Machine.llc_ns < m.Machine.cross_ns))
    Machine.presets;
  Alcotest.(check bool) "by_name finds xeon" true (Machine.by_name "xeon" <> None);
  Alcotest.(check bool) "by_name misses unknown" true (Machine.by_name "cray" = None)

let test_transfer_symmetric () =
  let m = Machine.xeon in
  for a = 0 to 40 do
    for b = 0 to 40 do
      Alcotest.(check int)
        (Printf.sprintf "transfer %d<->%d" a b)
        (Machine.transfer_ns m a b) (Machine.transfer_ns m b a)
    done
  done

(* Model-based property: a random single-thread program of cell ops run
   inside the simulator returns exactly what a pure reference returns —
   pins the semantics of every op, including the direct fast paths. *)
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

type op_kind = ORead | OWrite of int | OCas of int * int | OFaa of int | OXchg of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        return ORead;
        map (fun v -> OWrite v) (int_range 0 100);
        map2 (fun a b -> OCas (a, b)) (int_range 0 10) (int_range 0 100);
        map (fun v -> OFaa v) (int_range (-5) 5);
        map (fun v -> OXchg v) (int_range 0 100);
      ])

let cell_ops_match_reference =
  qtest "sim cell ops match pure reference"
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 0 3) op_gen))
    (fun program ->
      (* Reference: plain ints (CAS compares values, which coincides with
         physical equality for small OCaml ints). *)
      let reference = Array.make 4 0 in
      let expected =
        List.map
          (fun (idx, op) ->
            match op with
            | ORead -> reference.(idx)
            | OWrite v ->
              reference.(idx) <- v;
              0
            | OCas (exp, des) ->
              if reference.(idx) = exp then begin
                reference.(idx) <- des;
                1
              end
              else 0
            | OFaa d ->
              let old = reference.(idx) in
              reference.(idx) <- old + d;
              old
            | OXchg v ->
              let old = reference.(idx) in
              reference.(idx) <- v;
              old)
          program
      in
      let cells = Array.init 4 (fun _ -> R.cell 0) in
      let actual = ref [] in
      ignore
        (Sim.run tiny ~threads:1 (fun _ ->
             List.iter
               (fun (idx, op) ->
                 let r =
                   match op with
                   | ORead -> R.read cells.(idx)
                   | OWrite v ->
                     R.write cells.(idx) v;
                     0
                   | OCas (exp, des) -> if R.cas cells.(idx) exp des then 1 else 0
                   | OFaa d -> R.fetch_add cells.(idx) d
                   | OXchg v -> R.exchange cells.(idx) v
                 in
                 actual := r :: !actual)
               program));
      List.rev !actual = expected
      && Array.for_all2 (fun c v -> R.read c = v) cells reference)

let test_big_sharers_across_runs () =
  (* >63 readers push a line's sharer set into its big-bitmap mode.  The
     set's buffer outlives the run (cells are ordinary heap values); the
     next run epoch must lazily clear it — a stale sharer would let a
     reader hit on a line another thread has since written. *)
  let c = R.cell 0 in
  let seen = R.cell 0 in
  ignore (Sim.run Machine.xeon ~threads:100 (fun _ -> ignore (R.read c : int)));
  ignore
    (Sim.run Machine.xeon ~threads:66 (fun i ->
         if i = 0 then R.write c 42
         else begin
           while R.read c <> 42 do
             R.pause ()
           done;
           ignore (R.fetch_add seen 1 : int)
         end));
  Alcotest.(check int) "every reader saw the new value" 65 (R.read seen);
  (* and back down to a small-thread run on the same, now-big, line *)
  ignore
    (Sim.run tiny ~threads:4 (fun _ ->
         for _ = 1 to 100 do
           ignore (R.fetch_add c 1 : int)
         done));
  Alcotest.(check int) "counts exact after re-clear" (42 + 400) (R.read c)

(* The cell is the line: after its first touch, a hit reads and writes
   only the cell's own fields.  One thread runs alone, so it never parks.
   Each of 10 k rounds reads line [a] as a sharer (no thread owns it), and
   reads and writes line [b] as its owner; none may allocate — with
   small-mode sharer sets (hw 0) and with big-mode ones (hw 100 migrates
   both sets on its first misses).  A temporary sharer record on the hot
   path would show up here as words per operation. *)
let test_hits_allocate_nothing () =
  let words hw =
    let a = R.cell 0 and b = R.cell 0 and delta = ref nan in
    ignore
      (Sim.run_on Machine.xeon
         [
           ( hw,
             fun () ->
               ignore (R.read a : int);
               ignore (R.read b : int);
               R.write b 0;
               let w0 = Gc.minor_words () in
               for i = 1 to 10_000 do
                 ignore (R.read a : int);
                 ignore (R.read b : int);
                 R.write b i
               done;
               delta := Gc.minor_words () -. w0 );
         ]);
    Alcotest.(check int) "all writes landed" 10_000 (R.read b);
    !delta
  in
  Alcotest.(check (float 0.0)) "small-mode lines, hw 0" 0.0 (words 0);
  Alcotest.(check (float 0.0)) "big-mode lines, hw 100" 0.0 (words 100)

(* A spin in [Ordo.new_time] is a run of clock-read and pause steps.
   Once a step has had to wait for another thread, the scheduler takes
   the remaining steps itself, so a step that parks costs a queue pop
   and push — no fiber resume, no fresh effect.  16 threads that only
   stamp, on a warmed run: under one minor word per event, where
   resuming the fiber on every step cost about 13. *)
let test_clock_waits_allocate_little () =
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = 286 end) in
  let run () =
    Sim.run Machine.xeon ~threads:16 (fun _ ->
        for _ = 1 to 200 do
          ignore (O.new_time (O.get_time ()) : int)
        done)
  in
  ignore (run () : Engine.stats);
  let w0 = Gc.minor_words () in
  let s = run () in
  let per_event = (Gc.minor_words () -. w0) /. float_of_int s.Engine.events in
  Alcotest.(check bool) "the waits take many events" true (s.Engine.events > 16 * 200 * 10);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event < 1" per_event)
    true (per_event < 1.0)

(* The MCS waiter spins on its own node's [locked] cell, and [release]
   may spin on [next]; both wait through [await_cell], so, as for clock
   waits, a step that parks costs a queue pop and push.  16 threads on
   one lock, on a warmed run: under one minor word per event, where
   resuming the fiber on every step cost about 14.  Each acquire still
   allocates its queue node. *)
let test_cell_waits_allocate_little () =
  let module L = Ordo_runtime.Mcs.Make (R) in
  let lock = L.create () and counter = R.cell 0 in
  let run () =
    Sim.run Machine.xeon ~threads:16 (fun _ ->
        for _ = 1 to 200 do
          let node = L.acquire lock in
          R.write counter (R.read counter + 1);
          L.release lock node
        done)
  in
  ignore (run () : Engine.stats);
  let w0 = Gc.minor_words () in
  let s = run () in
  let per_event = (Gc.minor_words () -. w0) /. float_of_int s.Engine.events in
  Alcotest.(check int) "every critical section counted" (2 * 16 * 200) (R.read counter);
  Alcotest.(check bool) "the waits take many events" true (s.Engine.events > 16 * 200 * 10);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event < 1" per_event)
    true (per_event < 1.0)

(* Every operation that crosses the horizon parks its fiber.  The
   operation queues its own thread, with the value in the thread record,
   and performs the one constant effect, whose handler is built once per
   fiber: a park allocates the continuation and nothing else.  64
   threads on private lines, on a warmed run: under 3 minor words per
   event, where an effect carrying the value, and a handler closure
   built per park, cost about 13. *)
let test_parks_allocate_little () =
  let lines = Array.init 64 (fun _ -> R.cell 0) in
  let run () =
    Sim.run Machine.xeon ~threads:64 (fun i ->
        let c = lines.(i) in
        for _ = 1 to 1000 do
          ignore (R.fetch_add c 1 : int);
          R.write c (R.read c + 1)
        done)
  in
  ignore (run () : Engine.stats);
  let w0 = Gc.minor_words () in
  let s = run () in
  let per_event = (Gc.minor_words () -. w0) /. float_of_int s.Engine.events in
  Alcotest.(check bool) "every update landed" true
    (Array.for_all (fun c -> R.read c = 2 * 2 * 1000) lines);
  Alcotest.(check bool) "the operations park" true (s.Engine.events > 64 * 1000 * 2);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event < 3" per_event)
    true (per_event < 3.0)

(* A cell is one heap block of five fields: the value, the line id,
   [free_at], the run epoch packed with the owner, and the sharer set. *)
let test_cell_footprint () =
  Alcotest.(check int) "fields per cell" 5 (Obj.size (Obj.repr (Engine.cell 0)))

(* The owner shares a word with the run epoch in 12 bits, so a machine
   of 4,095 hardware threads is refused.  One of 4,094 runs, and its top
   thread owns a line like any other: a read from the other socket pays
   the cross-socket transfer from it, not a memory access. *)
let test_thread_limit () =
  let machine sockets cores =
    Machine.make
      { Topology.name = "wide"; sockets; cores_per_socket = cores; smt = 1; ghz = 2.0 }
      ~noise_prob:0.0
  in
  Alcotest.check_raises "4,095 hardware threads"
    (Invalid_argument "Engine.run: machines of 4,095 or more hardware threads are not supported")
    (fun () -> ignore (Sim.run_on (machine 1 4095) [ (0, Fun.id) ]));
  let m = machine 2 2047 and c = R.cell 0 and top = 4093 and took = ref 0 in
  ignore
    (Sim.run_on m
       [
         (top, fun () -> R.write c 1);
         ( 0,
           fun () ->
             R.work 10_000;
             let t0 = R.now () in
             Alcotest.(check int) "hw 0 reads the top thread's store" 1 (R.read c);
             took := R.now () - t0 );
       ]);
  Alcotest.(check int) "the read pays the transfer from the top thread"
    (Machine.transfer_ns m 0 top + m.Machine.l1_ns)
    !took

let suite =
  [
    ("outside-sim direct ops", `Quick, test_outside_sim_direct);
    cell_ops_match_reference;
    ("setup clock moves", `Quick, test_setup_clock_moves);
    ("work advances time", `Quick, test_time_advances);
    ("cell ops in sim", `Quick, test_cell_ops_in_sim);
    ("faa no lost updates", `Quick, test_faa_no_lost_updates);
    ("cas single winner", `Quick, test_cas_single_winner);
    ("deterministic replay", `Quick, test_determinism);
    ("clock skew per socket", `Quick, test_clock_skew);
    ("clock monotonic per core", `Quick, test_get_time_monotonic_per_core);
    ("rmw serializes", `Quick, test_rmw_serializes);
    ("private work parallel", `Quick, test_private_work_parallel);
    ("smt slowdown", `Quick, test_smt_slowdown);
    ("lines reset between runs", `Quick, test_lines_reset_between_runs);
    ("big sharer set across runs", `Quick, test_big_sharers_across_runs);
    ("line hits allocate nothing", `Quick, test_hits_allocate_nothing);
    ("clock waits allocate little", `Quick, test_clock_waits_allocate_little);
    ("reader waits for writer", `Quick, test_reader_waits_for_writer);
    ("run validation", `Quick, test_run_validation);
    ("machine presets sane", `Quick, test_machine_presets);
    ("transfer symmetric", `Quick, test_transfer_symmetric);
    ("cell waits allocate little", `Quick, test_cell_waits_allocate_little);
    ("parks allocate little", `Quick, test_parks_allocate_little);
    ("cell is five fields", `Quick, test_cell_footprint);
    ("run refuses 4,095 threads", `Quick, test_thread_limit);
  ]
