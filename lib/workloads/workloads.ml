(* Simulated workloads shared by the trace and hazard CLIs.

   Threads are placed contiguously on hardware threads [0 .. n-1]; rows
   are few so transactions conflict and the conflict graph is dense. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Engine = Ordo_sim.Engine
module Topology = Ordo_util.Topology
module Rng = Ordo_util.Rng
module Report = Ordo_util.Report

(* Sampled hardware threads for the boundary measurement (same shape as
   the bench harness: every socket covered, quadratic pair count kept
   small). *)
let sample_cores (m : Machine.t) =
  let topo = m.Machine.topo in
  let total = Topology.total_threads topo in
  let stride = max 1 (total / 12) in
  let picks = List.filter (fun i -> i mod stride = 0) (List.init total Fun.id) in
  List.sort_uniq compare ((Topology.physical_cores topo - 1) :: (total - 1) :: picks)

let measure_boundary m =
  let module E = (val Sim.exec m) in
  let module B = Ordo_core.Boundary.Make (E) in
  B.measure ~runs:40 ~cores:(sample_cores m) ()

let db_rows = 48

let db_workload (module C : Ordo_db.Cc_intf.S) ~report ?scenario machine ~threads ~dur =
  let db = C.create ~threads ~rows:db_rows () in
  let module X = Ordo_db.Cc_intf.Execute (R) (C) in
  let stats =
    Sim.run ?scenario machine ~threads (fun i ->
        let rng = Rng.create ~seed:(Int64.of_int ((i * 31) + 7)) () in
        while R.now () < dur do
          X.run db (fun tx ->
              let k1 = Rng.int rng db_rows and k2 = Rng.int rng db_rows in
              let v = C.read tx k1 in
              if Rng.int rng 100 < 60 then C.write tx k2 (v + 1))
        done)
  in
  if report then
    Report.kv "commits/aborts"
      (Printf.sprintf "%d/%d" (C.stats_commits db) (C.stats_aborts db));
  stats

let tl2_workload ~report ?scenario machine ts ~threads ~dur =
  let module T = (val ts : Ordo_core.Timestamp.S) in
  let module Stm = Ordo_stm.Tl2.Make (R) (T) in
  let stm = Stm.create ~threads () in
  let tvars = Array.init db_rows (fun _ -> Stm.tvar 0) in
  let stats =
    Sim.run ?scenario machine ~threads (fun i ->
        let rng = Rng.create ~seed:(Int64.of_int ((i * 31) + 7)) () in
        while R.now () < dur do
          Stm.atomically stm (fun tx ->
              let k1 = Rng.int rng db_rows and k2 = Rng.int rng db_rows in
              let v = Stm.read tx tvars.(k1) in
              if Rng.int rng 100 < 60 then Stm.write tx tvars.(k2) (v + 1))
        done)
  in
  if report then
    Report.kv "commits/aborts"
      (Printf.sprintf "%d/%d" (Stm.stats_commits stm) (Stm.stats_aborts stm));
  stats

let rlu_workload ~report ?scenario machine ts ~threads ~dur =
  let module T = (val ts : Ordo_core.Timestamp.S) in
  let module Rlu = Ordo_rlu.Rlu.Make (R) (T) in
  let rlu = Rlu.create ~threads () in
  let objs = Array.init 16 (fun _ -> Rlu.obj 0) in
  let stats =
    Sim.run ?scenario machine ~threads (fun i ->
        let rng = Rng.create ~seed:(Int64.of_int ((i * 31) + 7)) () in
        while R.now () < dur do
          let k = Rng.int rng (Array.length objs) in
          if Rng.int rng 100 < 20 then begin
            Rlu.reader_lock rlu;
            if Rlu.try_update rlu objs.(k) (fun v -> v + 1) then Rlu.reader_unlock rlu
            else Rlu.abort rlu
          end
          else begin
            Rlu.reader_lock rlu;
            ignore (Rlu.deref rlu objs.(k) : int);
            Rlu.reader_unlock rlu
          end
        done)
  in
  if report then
    Report.kv "commits/aborts/syncs"
      (Printf.sprintf "%d/%d/%d" (Rlu.stats_commits rlu) (Rlu.stats_aborts rlu)
         (Rlu.stats_syncs rlu));
  stats

let oplog_workload ~report ?scenario machine ts ~threads ~dur =
  let module T = (val ts : Ordo_core.Timestamp.S) in
  let module Oplog = Ordo_oplog.Oplog.Make (R) (T) in
  let log = Oplog.create ~threads () in
  let applied = ref 0 in
  let stats =
    Sim.run ?scenario machine ~threads (fun i ->
        let n = ref 0 in
        while R.now () < dur do
          Oplog.append log (i, !n);
          incr n;
          if i = 0 && !n mod 64 = 0 then
            applied := !applied + Oplog.synchronize log ~apply:(fun ~ts:_ ~core:_ _ -> ())
        done)
  in
  if report then Report.kv "merged entries" (string_of_int !applied);
  stats

(* ---- seeded-defect fixtures for the race detector ----

   [race]: the textbook data race — every thread blind-writes one shared
   cell with no synchronization of any kind.  The detector must report a
   deterministic, nonzero number of write-write conflicts.

   [window] / [handshake]: one producer→consumer handoff ordered *only*
   by Ordo timestamps.  The producer writes the payload, stamps after
   the write, and exposes the stamp through a plain OCaml ref — a side
   channel the simulated coherence protocol never sees, so no cell edge
   can order the two threads; the timestamp is the only candidate.  The
   [handshake] consumer spins until its own stamp is *certainly* after
   the seen one ([cmp = 1]) before touching the payload — the admitted
   timestamp edge keeps the detector silent.  The [window] consumer
   commits the paper's cardinal sin: it treats [cmp = 0] as ordered and
   writes immediately, while the stamps are still inside ORDO_BOUNDARY —
   reported as an uncertain-ordering violation. *)

let race_workload ?scenario machine ~threads ~dur =
  let hot = R.cell 0 in
  let threads = max 2 threads in
  Sim.run ?scenario machine ~threads (fun i ->
      while R.now () < dur do
        R.write hot (i + 1);
        R.work 400
      done)

let window_workload ~certain ?scenario machine ts ~dur =
  let module T = (val ts : Ordo_core.Timestamp.S) in
  let payload = R.cell 0 in
  let published = ref 0 in
  Sim.run ?scenario machine ~threads:2 (fun i ->
      if i = 0 then begin
        R.write payload 1;
        published := T.get ()
      end
      else begin
        let rec poll () =
          if R.now () < dur then begin
            let seen = !published in
            if seen = 0 then begin
              R.pause ();
              poll ()
            end
            else begin
              let mine = T.get () in
              let c = T.cmp mine seen in
              if c = 1 || ((not certain) && c = 0) then R.write payload 2
              else begin
                R.pause ();
                poll ()
              end
            end
          end
        in
        poll ()
      end)

let names = [ "occ"; "hekaton"; "tl2"; "rlu"; "oplog"; "race"; "window"; "handshake" ]

let run name ?(report = true) ?scenario machine ts ~threads ~dur : Engine.stats =
  let module T = (val ts : Ordo_core.Timestamp.S) in
  match name with
  | "occ" ->
    db_workload (module Ordo_db.Occ.Make (R) (T)) ~report ?scenario machine ~threads ~dur
  | "hekaton" ->
    db_workload
      (module Ordo_db.Hekaton.Make (R) (T))
      ~report ?scenario machine ~threads ~dur
  | "tl2" -> tl2_workload ~report ?scenario machine ts ~threads ~dur
  | "rlu" -> rlu_workload ~report ?scenario machine ts ~threads ~dur
  | "oplog" -> oplog_workload ~report ?scenario machine ts ~threads ~dur
  | "race" -> race_workload ?scenario machine ~threads ~dur
  | "window" -> window_workload ~certain:false ?scenario machine ts ~dur
  | "handshake" -> window_workload ~certain:true ?scenario machine ts ~dur
  | _ ->
    invalid_arg
      (Printf.sprintf "Workloads.run: unknown workload %S (available: %s)" name
         (String.concat " " names))
