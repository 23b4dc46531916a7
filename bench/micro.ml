(* Live-host microbenchmarks (Bechamel): one [Test.make] per table/figure,
   measuring the cost kernel that the corresponding experiment exercises —
   on this machine's real hardware clock, atomics and domains-based
   runtime, not in the simulator. *)

(* The clock kernels below time the raw host clock itself — the one
   place outside lib/clock where that is the point — and the contended
   counter baseline *is* a raw atomic, by definition. *)
[@@@ordo_lint.allow "raw-clock-read atomic-confinement"]

open Bechamel
open Toolkit
module RR = Ordo_runtime.Real.Runtime

(* A small boundary for the host: on a single-socket/cloud host the real
   measured boundary is tiny; use a representative Table 1 value so
   new_time behaves like it would on a large machine. *)
module Host_ordo = Ordo_core.Ordo.Make (RR) (struct let boundary = 276 end)
module Host_ts = Ordo_core.Timestamp.Ordo_source (Host_ordo)
module Host_logical = Ordo_core.Timestamp.Logical (RR) ()

let test_tab1_offset_probe =
  (* Table 1's measurement inner loop: serialized read + atomic publish. *)
  let cell = RR.cell 0 in
  Test.make ~name:"tab1: publish timestamp (get_time + atomic write)" (Staged.stage (fun () ->
      RR.write cell (RR.get_time ())))

let test_fig8a_get_time =
  Test.make ~name:"fig8a: serialized hardware timestamp" (Staged.stage (fun () ->
      ignore (Ordo_clock.Clock.Host.get_time ())))

let test_fig8a_raw_ticks =
  Test.make ~name:"fig8a: unserialized tick read" (Staged.stage (fun () ->
      ignore (Ordo_clock.Tsc.ticks ())))

let test_fig8b_atomic =
  let clock = Atomic.make 0 in
  Test.make ~name:"fig8b: atomic fetch-and-add clock" (Staged.stage (fun () ->
      ignore (Atomic.fetch_and_add clock 1)))

let test_fig8b_new_time =
  let last = ref 0 in
  Test.make ~name:"fig8b: ordo new_time" (Staged.stage (fun () ->
      last := Host_ordo.new_time !last))

let test_fig9_cmp_time =
  Test.make ~name:"fig9: cmp_time" (Staged.stage (fun () ->
      ignore (Host_ordo.cmp_time 1_000_000 1_000_200)))

let rlu_setup () =
  let module Hash = Ordo_rlu.Rlu_hash.Make (RR) (Host_ts) in
  let t = Hash.create ~threads:1 ~buckets:64 () in
  for k = 0 to 255 do
    ignore (Hash.add t (k * 2))
  done;
  let key = ref 0 in
  fun () ->
    key := (!key + 7) land 511;
    ignore (Hash.contains t !key)

let test_fig11_rlu =
  let op = rlu_setup () in
  Test.make ~name:"fig1/11/12/16: RLU_ORDO hash lookup" (Staged.stage op)

let test_fig10_oplog =
  let module Log = Ordo_oplog.Oplog.Make (RR) (Host_ts) in
  let log = Log.create ~threads:1 () in
  Test.make ~name:"fig10: oplog append" (Staged.stage (fun () -> Log.append log 42))

let test_fig13_occ_ordo =
  let module C = Ordo_db.Occ.Make (RR) (Host_ts) in
  let module Exec = Ordo_db.Cc_intf.Execute (RR) (C) in
  let db = C.create ~threads:1 ~rows:1024 () in
  let k = ref 0 in
  Test.make ~name:"fig13/14: OCC_ORDO read-only txn" (Staged.stage (fun () ->
      k := (!k + 13) land 1023;
      ignore (Exec.run db (fun tx -> C.read tx !k + C.read tx ((!k + 7) land 1023)))))

let test_fig15_tl2 =
  let module Stm = Ordo_stm.Tl2.Make (RR) (Host_ts) in
  let t = Stm.create ~threads:1 () in
  let tv = Stm.tvar 0 in
  Test.make ~name:"fig15: TL2_ORDO increment txn" (Staged.stage (fun () ->
      Stm.atomically t (fun tx -> Stm.write tx tv (Stm.read tx tv + 1))))

let benchmarks =
  Test.make_grouped ~name:"ordo-micro"
    [
      test_tab1_offset_probe;
      test_fig8a_get_time;
      test_fig8a_raw_ticks;
      test_fig8b_atomic;
      test_fig8b_new_time;
      test_fig9_cmp_time;
      test_fig11_rlu;
      test_fig10_oplog;
      test_fig13_occ_ordo;
      test_fig15_tl2;
    ]

(* ---- hand-rolled host timings for this PR's two rewrites ----

   Not Bechamel: both kernels need per-round setup (refilled logs, a
   pre-populated queue), so a plain best-of-rounds wall measurement over
   a fixed op count is the cleaner instrument. *)

let best_of ~rounds f =
  let best = ref infinity in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Steady-state push/pop pair at a fixed residency, sliding the time
   window forward like the engine does.  The adaptive queue sits in heap
   mode at sparse residencies and wheel mode at dense ones — the point of
   the comparison. *)
let queue_pair_ns ~residency ~iters which =
  let push_h, pop_h =
    match which with
    | `Heap ->
      let h = Ordo_sim.Heap.create () in
      ((fun ~time v -> Ordo_sim.Heap.push h ~time v), fun () -> Ordo_sim.Heap.pop_exn h)
    | `Equeue ->
      let q = Ordo_sim.Equeue.create () in
      ((fun ~time v -> Ordo_sim.Equeue.push q ~time v), fun () -> Ordo_sim.Equeue.pop_exn q)
  in
  let t = ref 0 in
  for _ = 1 to residency do
    push_h ~time:!t ();
    t := !t + 7
  done;
  let wall =
    best_of ~rounds:3 (fun () ->
        for _ = 1 to iters do
          (pop_h () : unit);
          t := !t + 55;
          push_h ~time:!t ()
        done)
  in
  wall *. 1e9 /. float_of_int iters

let queue_microbench () =
  Printf.printf "%-34s %-10s %10s\n" "queue" "residency" "ns/pair";
  List.iter
    (fun residency ->
      let heap = queue_pair_ns ~residency ~iters:2_000_000 `Heap in
      let eq = queue_pair_ns ~residency ~iters:2_000_000 `Equeue in
      Printf.printf "%-34s %-10d %10.1f\n" "4-ary SoA heap" residency heap;
      Printf.printf "%-34s %-10d %10.1f\n" "adaptive (wheel when dense)" residency eq)
    [ 8; 48; 240 ];
  print_newline ()

(* The merge path alone: logs are filled inside a short simulation (the
   only way to append from k distinct cores), then drained outside it,
   where every runtime op is direct — the measured wall is the k-way
   merge and apply loop at host speed. *)
let oplog_merge_microbench () =
  Ordo_util.Report.section "Oplog synchronize: k-way merge (live host)";
  let module SimR = Ordo_sim.Sim.Runtime in
  let module O = Ordo_core.Ordo.Make (SimR) (struct let boundary = 1500 end) in
  let module TS = Ordo_core.Timestamp.Ordo_source (O) in
  let module Log = Ordo_oplog.Oplog.Make (SimR) (TS) in
  Printf.printf "%-8s %-12s %12s %14s\n" "cores" "pending/core" "ns/entry" "entries/s";
  List.iter
    (fun (cores, per) ->
      let ns =
        Ordo_sim.Sim.with_fresh_instance (fun () ->
            let log = Log.create ~threads:cores () in
            let fill () =
              ignore
                (Ordo_sim.Sim.run Ordo_sim.Machine.xeon ~threads:cores (fun _ ->
                     for _ = 1 to per do
                       Log.append log 0
                     done))
            in
            let best = ref infinity in
            for _ = 1 to 3 do
              fill ();
              let t0 = Unix.gettimeofday () in
              let n = Log.synchronize log ~apply:(fun ~ts:_ ~core:_ _ -> ()) in
              let dt = Unix.gettimeofday () -. t0 in
              assert (n = cores * per);
              if dt < !best then best := dt
            done;
            !best *. 1e9 /. float_of_int (cores * per))
      in
      Printf.printf "%-8d %-12d %12.1f %14.0f\n" cores per ns (1e9 /. ns))
    [ (4, 64); (4, 4096); (64, 64); (64, 1024); (240, 256) ];
  print_newline ()

let run () =
  queue_microbench ();
  oplog_merge_microbench ();
  Ordo_util.Report.section "Microbenchmarks on the live host (Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances benchmarks in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance raw) instances
  in
  let merged = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-55s %10.1f ns/op\n" name est
          | _ -> Printf.printf "%-55s (no estimate)\n" name)
        per_test)
    merged
