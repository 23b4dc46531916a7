(* One function per table/figure of the paper's evaluation (see DESIGN.md
   for the experiment index), plus the ablation studies.  All experiments
   run on the machine simulator with the Table 1 presets; [full] widens
   the sweeps to paper scale. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Rng = Ordo_util.Rng
module Topology = Ordo_util.Topology
module Report = Ordo_util.Report
module H = Harness

let machine_name (m : Machine.t) = m.Machine.topo.Topology.name

(* ---------- Table 1: machine configurations and measured offsets ------- *)

let tab1 ~full =
  Report.section "Table 1: machines and measured clock offsets";
  let runs = if full then 300 else 60 in
  (* One task per machine; the boundary-cache update happens after the
     join so the cache's final content never depends on task order. *)
  let measured =
    H.par_map
      (fun (m : Machine.t) ->
        let module E = (val Sim.exec m) in
        let module B = Ordo_core.Boundary.Make (E) in
        let cores = H.sample_cores m in
        let matrix = B.offset_matrix ~runs ~cores () in
        let mn = ref max_int and mx = ref 0 in
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j v ->
                if i <> j then begin
                  if v < !mn then mn := v;
                  if v > !mx then mx := v
                end)
              row)
          matrix;
        (m, !mn, !mx))
      H.machines
  in
  let rows =
    List.map
      (fun ((m : Machine.t), mn, mx) ->
        let topo = m.Machine.topo in
        H.set_boundary m mx;
        [
          topo.Topology.name;
          string_of_int (Topology.physical_cores topo);
          string_of_int topo.Topology.smt;
          Printf.sprintf "%.1f" topo.Topology.ghz;
          string_of_int topo.Topology.sockets;
          string_of_int mn;
          string_of_int mx;
        ])
      measured
  in
  Report.table ~title:"simulated machines (offsets in ns; max = ORDO_BOUNDARY)"
    ~header:[ "machine"; "cores"; "SMT"; "GHz"; "sockets"; "min"; "max" ]
    rows;
  (* Live host, for reference: pairwise measurement needs >= 2 CPUs. *)
  let cpus = Ordo_clock.Tsc.num_cpus () in
  if cpus >= 2 then begin
    let module B = Ordo_core.Boundary.Make (Ordo_runtime.Real.Exec) in
    let cores = List.init (min cpus 8) Fun.id in
    let b = B.measure ~runs:(min runs 200) ~cores () in
    Report.kv "live host ORDO_BOUNDARY (ns)" (string_of_int b)
  end
  else Report.kv "live host" (Printf.sprintf "%d CPU online - no core pairs to measure" cpus)

(* ---------- Figure 9: pairwise offset heatmaps ------------------------- *)

let fig9 ~full =
  Report.section "Figure 9: pairwise clock offsets (writer row -> reader column)";
  let runs = if full then 200 else 40 in
  H.par_map
    (fun (m : Machine.t) ->
      let module E = (val Sim.exec m) in
      let module B = Ordo_core.Boundary.Make (E) in
      let cores = H.sample_cores ~count:(if full then 16 else 10) m in
      (m, cores, B.offset_matrix ~runs ~cores ()))
    H.machines
  |> List.iter (fun (m, cores, matrix) ->
         Report.matrix
           ~title:
             (Printf.sprintf "%s (sampled hw threads: %s)" (machine_name m)
                (String.concat "," (List.map string_of_int cores)))
           ~row_label:"w\\r" matrix)

(* ---------- Figure 8a: timestamp cost vs thread count ------------------ *)

let fig8a ~full =
  Report.section "Figure 8a: hardware timestamp cost (ns) vs threads";
  (* All (machine, threads) cells in one flat task list. *)
  let cells =
    List.concat_map (fun m -> List.map (fun t -> (m, t)) (H.cores_for ~full m)) H.machines
  in
  let rates =
    H.par_map
      (fun (m, threads) ->
        H.throughput ~warm:20_000 ~dur:100_000 m ~threads (fun _ _ ->
            ignore (R.get_time ())))
      cells
  in
  let results = List.combine cells rates in
  List.iter
    (fun (m : Machine.t) ->
      let rows =
        List.filter_map
          (fun (((m' : Machine.t), threads), rate) ->
            if m' != m then None
              (* per-op cost = threads / aggregate rate *)
            else Some (threads, [ float_of_int threads /. rate *. 1000. ]))
          results
      in
      Report.series ~title:(machine_name m) ~xlabel:"threads" ~cols:[ "ns/op" ] rows)
    H.machines

(* ---------- Figure 8b: timestamp generation, atomic vs Ordo ------------ *)

let fig8b ~full =
  Report.section "Figure 8b: timestamps generated per microsecond per core";
  List.iter
    (fun (m : Machine.t) ->
      let boundary = H.boundary_of m in
      (* Both sources share the thread counts: every (source, threads)
         cell is one pool task; each builds its clock cell / Ordo source
         inside the task. *)
      let atomic ~threads:_ =
        let clock = R.cell 0 in
        ((fun _ _ -> ignore (R.fetch_add clock 1)), fun _ -> ())
      in
      let ordo ~threads:_ =
        let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
        let last = ref 0 in
        ((fun _ _ -> last := O.new_time !last), fun _ -> ())
      in
      match H.par_sweeps ~full ~warm:20_000 ~dur:100_000 m [ atomic; ordo ] with
      | [ atomics; ordos ] ->
        let rows =
          List.map2
            (fun (threads, a) (_, o) ->
              (threads, [ a /. float_of_int threads; o /. float_of_int threads; o /. a ]))
            atomics ordos
        in
        Report.series
          ~title:(Printf.sprintf "%s (boundary %d ns)" (machine_name m) boundary)
          ~xlabel:"threads"
          ~cols:[ "atomic/core"; "ordo/core"; "ordo/atomic" ]
          rows
      | _ -> assert false)
    H.machines

(* ---------- RLU hash-table benchmark (Figures 1, 11, 12, 16) ----------- *)

let make_rlu_table (module TS : Ordo_core.Timestamp.S) ?defer ~threads ~update_pct () =
  let module Hash = Ordo_rlu.Rlu_hash.Make (R) (TS) in
  let buckets = 256 and keyrange = 2048 in
  let t = Hash.create ?defer ~node_work:200 ~threads ~buckets () in
  for k = 0 to (keyrange / 2) - 1 do
    ignore (Hash.add t (k * 2))
  done;
  let op _ rng =
    let key = Rng.int rng keyrange in
    if Rng.int rng 100 < update_pct then begin
      if Rng.bool rng then ignore (Hash.add t key) else ignore (Hash.remove t key)
    end
    else ignore (Hash.contains t key)
  and finish _ = Hash.flush t in
  (op, finish)

let rlu_series ?full ?defer machine ~update_pct =
  (* Each cell builds its own table and timestamp source inside the task. *)
  match
    H.par_sweeps ?full machine
      [
        (fun ~threads -> make_rlu_table (H.logical_ts ()) ?defer ~threads ~update_pct ());
        (fun ~threads -> make_rlu_table (H.ordo_ts machine) ?defer ~threads ~update_pct ());
      ]
  with
  | [ logical; ordo ] -> List.map2 (fun (n, a) (_, b) -> (n, [ a; b ])) logical ordo
  | _ -> assert false

let fig1 ~full =
  Report.section "Figure 1: RLU vs RLU_ORDO, hash table 98% reads / 2% updates (Phi)";
  Report.series ~title:"ops/us on xeon-phi" ~xlabel:"threads" ~cols:[ "RLU"; "RLU_ORDO" ]
    (rlu_series ~full Machine.phi ~update_pct:2)

let fig11 ~full =
  Report.section "Figure 11: RLU hash table, 2% and 40% updates, four machines";
  List.iter
    (fun m ->
      List.iter
        (fun update_pct ->
          Report.series
            ~title:(Printf.sprintf "%s, %d%% updates (ops/us)" (machine_name m) update_pct)
            ~xlabel:"threads"
            ~cols:[ "RLU"; "RLU_ORDO" ]
            (rlu_series ~full m ~update_pct))
        [ 2; 40 ])
    H.machines

let fig12 ~full =
  Report.section "Figure 12: deferral-based RLU, 40% updates (Xeon)";
  Report.series ~title:"ops/us with defer=16" ~xlabel:"threads"
    ~cols:[ "RLU-defer"; "RLU_ORDO-defer" ]
    (rlu_series ~full ~defer:16 Machine.xeon ~update_pct:40)

let fig16 ~full =
  ignore full;
  Report.section "Figure 16: RLU_ORDO throughput vs ORDO_BOUNDARY scaling (Xeon, 2% upd)";
  let m = Machine.xeon in
  let measured = H.boundary_of m in
  let physical = Topology.physical_cores m.Machine.topo in
  let configs =
    [ ("1-core", 1); ("1-socket", m.Machine.topo.Topology.cores_per_socket); ("8-sockets", physical) ]
  in
  let scales = [ 0.125; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ] in
  (* All (config, scale) cells are independent tasks; normalization to
     the 1x column happens after the join. *)
  let cells = List.concat_map (fun c -> List.map (fun s -> (c, s)) scales) configs in
  let rates =
    H.par_map
      (fun ((_, threads), scale) ->
        let boundary = max 1 (int_of_float (float_of_int measured *. scale)) in
        let op, finish = make_rlu_table (H.ordo_ts ~boundary m) ~threads ~update_pct:2 () in
        H.throughput ~finish m ~threads op)
      cells
  in
  let rows =
    List.map2
      (fun (label, _) per_config ->
        let base =
          match
            List.find_opt (fun (scale, _) -> scale = 1.0) (List.combine scales per_config)
          with
          | Some (_, r) when r <> 0.0 -> r
          | _ -> 1.0
        in
        label :: List.map (fun r -> Printf.sprintf "%.3f" (r /. base)) per_config)
      configs
      (H.chunks (List.length scales) rates)
  in
  Report.table
    ~title:
      (Printf.sprintf "throughput normalized to 1x boundary (%d ns); columns = boundary scale"
         measured)
    ~header:("config" :: List.map (Printf.sprintf "%gx") scales)
    rows

(* ---------- Figure 10: Exim / Oplog ------------------------------------ *)

let fig10 ~full =
  Report.section "Figure 10: Exim mail server over the reverse map (Xeon)";
  let m = Machine.xeon in
  let run (module M : Ordo_oplog.Rmap.S) ~threads =
    let module E = Ordo_oplog.Exim.Make (R) (M) in
    let t = E.create ~threads ~pages:4096 () in
    let seqs = Array.make threads 0 in
    fun i rng ->
      seqs.(i) <- seqs.(i) + 1;
      E.deliver t rng seqs.(i)
  in
  let variants =
    [
      (fun ~threads -> (run (module Ordo_oplog.Rmap.Vanilla (R)) ~threads, fun _ -> ()));
      (fun ~threads ->
        let module Raw = Ordo_core.Timestamp.Raw (R) in
        (run (module Ordo_oplog.Rmap.Logged (R) (Raw)) ~threads, fun _ -> ()));
      (fun ~threads ->
        let module TS = (val H.ordo_ts m) in
        (run (module Ordo_oplog.Rmap.Logged (R) (TS)) ~threads, fun _ -> ()));
    ]
  in
  match H.par_sweeps ~full ~warm:400_000 ~dur:2_000_000 m variants with
  | [ vanilla; raw; ordo ] ->
    Report.series ~title:"messages per millisecond" ~xlabel:"threads"
      ~cols:[ "Vanilla"; "Oplog"; "Oplog_ORDO" ]
      (List.map2
         (fun (n, v) ((_, r), (_, o)) -> (n, [ v *. 1000.; r *. 1000.; o *. 1000. ]))
         vanilla (List.combine raw ordo))
  | _ -> assert false

(* ---------- Figures 13/14: database concurrency control ---------------- *)

let db_schemes machine : (string * (module Ordo_db.Cc_intf.S)) list =
  let module LT1 = (val H.logical_ts ()) in
  let module LT2 = (val H.logical_ts ()) in
  let module OT = (val H.ordo_ts machine) in
  [
    ("Silo", (module Ordo_db.Silo.Make (R)));
    ("TicToc", (module Ordo_db.Tictoc.Make (R)));
    ("OCC", (module Ordo_db.Occ.Make (R) (LT1)));
    ("OCC_ORDO", (module Ordo_db.Occ.Make (R) (OT)));
    ("Hekaton", (module Ordo_db.Hekaton.Make (R) (LT2)));
    ("HEKATON_ORDO", (module Ordo_db.Hekaton.Make (R) (OT)));
  ]

let fig13 ~full =
  Report.section "Figure 13: YCSB read-only transactions (txn/us)";
  let machines = if full then H.machines else [ Machine.xeon; Machine.arm ] in
  (* One task per (machine, threads) cell; the task instantiates all six
     schemes itself ([db_schemes] builds timestamp sources, which must
     not be shared across tasks). *)
  let cells =
    List.concat_map (fun m -> List.map (fun t -> (m, t)) (H.cores_for ~full m)) machines
  in
  let values =
    H.par_map
      (fun (m, threads) ->
        List.map
          (fun (_, (module C : Ordo_db.Cc_intf.S)) ->
            let module Y = Ordo_db.Ycsb.Make (R) (C) in
            let t = Y.create ~threads () in
            H.throughput ~warm:50_000 ~dur:200_000 m ~threads (fun _ rng -> Y.run_tx t rng))
          (db_schemes m))
      cells
  in
  let results = List.combine cells values in
  List.iter
    (fun (m : Machine.t) ->
      let names = List.map fst (db_schemes m) in
      let series =
        List.filter_map
          (fun (((m' : Machine.t), threads), vs) -> if m' == m then Some (threads, vs) else None)
          results
      in
      Report.series ~title:(machine_name m) ~xlabel:"threads" ~cols:names series)
    machines

let fig14 ~full =
  Report.section "Figure 14: TPC-C (60 warehouses, NewOrder+Payment) on Xeon";
  let m = Machine.xeon in
  let names = List.map fst (db_schemes m) in
  let counts = H.cores_for ~full m in
  let per_count =
    H.par_map
      (fun threads ->
        List.map
          (fun (_, (module C : Ordo_db.Cc_intf.S)) ->
            let module T = Ordo_db.Tpcc.Make (R) (C) in
            let t = T.create ~threads () in
            let rate =
              H.throughput ~warm:100_000 ~dur:400_000 m ~threads (fun i rng ->
                  T.run_tx t rng ~tid:i)
            in
            let commits = T.stats_commits t and aborts = T.stats_aborts t in
            (rate, float_of_int aborts /. float_of_int (max 1 (commits + aborts))))
          (db_schemes m))
      counts
  in
  let tput = List.map2 (fun t per -> (t, List.map fst per)) counts per_count in
  let abort = List.map2 (fun t per -> (t, List.map snd per)) counts per_count in
  Report.series ~title:"throughput (txn/us)" ~xlabel:"threads" ~cols:names tput;
  Report.series ~title:"abort rate" ~xlabel:"threads" ~cols:names abort

(* ---------- Figure 15: STAMP / TL2 ------------------------------------- *)

let fig15 ~full =
  Report.section "Figure 15: STAMP kernels, speedup over sequential (Xeon)";
  let m = Machine.xeon in
  (* Kernel descriptors are pure data, so tasks instantiate their own STM
     modules (a [Stamp.Make] closes over a timestamp source, which must
     not be shared across tasks) and select kernels by position. *)
  let kernel_names =
    let module LT = (val H.logical_ts ()) in
    let module St = Ordo_stm.Stamp.Make (R) (LT) in
    List.map (fun k -> k.St.name) St.kernels
  in
  let nk = List.length kernel_names in
  let counts = H.cores_for ~full m in
  let seq_rates =
    H.par_map
      (fun ki ->
        let module LT = (val H.logical_ts ()) in
        let module St = Ordo_stm.Stamp.Make (R) (LT) in
        let inst = St.create (List.nth St.kernels ki) ~threads:1 in
        H.throughput ~warm:50_000 ~dur:200_000 m ~threads:1 (fun _ rng ->
            St.run_seq inst rng))
      (List.init nk Fun.id)
  in
  let cells =
    List.concat_map (fun ki -> List.map (fun t -> (ki, t)) counts) (List.init nk Fun.id)
  in
  let pairs =
    H.par_map
      (fun (ki, threads) ->
        let l =
          let module LT = (val H.logical_ts ()) in
          let module St = Ordo_stm.Stamp.Make (R) (LT) in
          let inst = St.create (List.nth St.kernels ki) ~threads in
          H.throughput ~warm:50_000 ~dur:200_000 m ~threads (fun _ rng -> St.run_tx inst rng)
        in
        let o =
          let module OT = (val H.ordo_ts m) in
          let module St = Ordo_stm.Stamp.Make (R) (OT) in
          let inst = St.create (List.nth St.kernels ki) ~threads in
          H.throughput ~warm:50_000 ~dur:200_000 m ~threads (fun _ rng -> St.run_tx inst rng)
        in
        (l, o))
      cells
  in
  List.iteri
    (fun ki name ->
      let seq = List.nth seq_rates ki in
      let rows =
        List.map2
          (fun threads (l, o) -> (threads, [ l /. seq; o /. seq ]))
          counts
          (List.nth (H.chunks (List.length counts) pairs) ki)
      in
      Report.series ~title:name ~xlabel:"threads" ~cols:[ "TL2"; "TL2_ORDO" ] rows)
    kernel_names

(* ---------- Ablations --------------------------------------------------- *)

let ablate_runs ~full =
  Report.section "Ablation: offset-measurement run count (min-of-runs convergence, Xeon)";
  (* The paper takes the minimum over 100k rounds to filter interrupt and
     scheduling noise out of the one-way delay.  Repeat each
     configuration as independent trials: few rounds leave noisy
     over-estimates in the tail; enough rounds make the estimate tight. *)
  let writer = 110 and reader = 0 in
  let trials = if full then 60 else 25 in
  let runs_list = [ 1; 3; 10; 30; 100 ] in
  (* Every (rounds, trial) pair is an independent task. *)
  let cells =
    List.concat_map (fun runs -> List.init trials (fun trial -> (runs, trial))) runs_list
  in
  let samples =
    H.par_map
      (fun (runs, trial) ->
        (* Distinct machine seeds per trial: noise draws differ. *)
        let m = { Machine.xeon with Machine.seed = Int64.of_int (trial + 1) } in
        let module E = (val Sim.exec m) in
        let module B = Ordo_core.Boundary.Make (E) in
        float_of_int (B.clock_offset ~runs ~writer ~reader ()))
      cells
  in
  let rows =
    List.map2
      (fun runs per_runs ->
        let s = Ordo_util.Stats.summarize (Array.of_list per_runs) in
        [
          string_of_int runs;
          Printf.sprintf "%.0f" s.Ordo_util.Stats.min;
          Printf.sprintf "%.0f" s.Ordo_util.Stats.mean;
          Printf.sprintf "%.0f" s.Ordo_util.Stats.max;
        ])
      runs_list
      (H.chunks trials samples)
  in
  Report.table
    ~title:
      (Printf.sprintf "offset estimate over %d independent trials (outlier socket -> socket 0)"
         trials)
    ~header:[ "rounds"; "min"; "mean"; "max" ]
    rows

let ablate_rtt ~full =
  ignore full;
  Report.section "Ablation: NTP-style RTT/2 averaging vs the paper's directional maximum";
  (* RTT/2 averaging cancels the skew out of the estimate, so the bound it
     produces is *smaller* than the physical offset — unsound for ordering
     (paper Figures 2 vs 5).  Demonstrated on the ARM preset (500 ns
     skew). *)
  let m = Machine.arm in
  let module E = (val Sim.exec m) in
  let module B = Ordo_core.Boundary.Make (E) in
  let early = 0 and late = 48 in
  let d_fwd = B.clock_offset ~runs:100 ~writer:early ~reader:late () in
  let d_bwd = B.clock_offset ~runs:100 ~writer:late ~reader:early () in
  let rtt_estimate = (d_fwd + d_bwd) / 2 in
  let directional = max d_fwd d_bwd in
  let physical = Machine.clock_reset_ns m late - Machine.clock_reset_ns m early in
  Report.table ~title:"ARM cross-socket pair (socket-1 RESET ~500 ns late)"
    ~header:[ "method"; "bound (ns)"; "covers physical skew?" ]
    [
      [ "physical skew"; string_of_int (abs physical); "-" ];
      [
        "RTT/2 averaging";
        string_of_int rtt_estimate;
        (if rtt_estimate > abs physical then "yes" else "NO (unsound)");
      ];
      [
        "max of directions (Ordo)";
        string_of_int directional;
        (if directional > abs physical then "yes" else "NO");
      ];
    ]

let ablate_uncertain ~full =
  ignore full;
  Report.section "Ablation: OCC_ORDO boundary inflation (uncertainty aborts vs waits)";
  let m = Machine.xeon in
  let measured = H.boundary_of m in
  let threads = Topology.physical_cores m.Machine.topo in
  let rows =
    H.par_map
      (fun scale ->
        let boundary = max 1 (int_of_float (float_of_int measured *. scale)) in
        let module OT = (val H.ordo_ts ~boundary m) in
        let module C = Ordo_db.Occ.Make (R) (OT) in
        let module Y = Ordo_db.Ycsb.Make (R) (C) in
        let t = Y.create ~config:Ordo_db.Ycsb.update_heavy ~threads () in
        let rate =
          H.throughput ~warm:50_000 ~dur:200_000 m ~threads (fun _ rng -> Y.run_tx t rng)
        in
        let commits = Y.stats_commits t and aborts = Y.stats_aborts t in
        [
          Printf.sprintf "%gx (%d ns)" scale boundary;
          Printf.sprintf "%.1f" rate;
          Printf.sprintf "%.3f" (float_of_int aborts /. float_of_int (max 1 (commits + aborts)));
        ])
      [ 1.0; 4.0; 16.0; 64.0 ]
  in
  Report.table
    ~title:(Printf.sprintf "YCSB update-heavy at %d threads" threads)
    ~header:[ "boundary"; "txn/us"; "abort rate" ]
    rows

let ablate_rlu_margin ~full =
  ignore full;
  Report.section "Ablation: RLU boundary soundness and commit margin (Section 4.1)";
  (* The commit clock must dominate every reader clock before readers may
     steal.  With the *measured* boundary (which covers the skew) the
     algorithm is safe with or without the extra margin; with an
     undersized boundary, readers on a fast-clock socket steal a
     committing writer's copies too early and observe mixed snapshots.
     ARM preset: socket 1's clocks run ~500 ns behind socket 0's; writers
     run on socket 1, readers on socket 0. *)
  let m = Machine.arm in
  let sound = H.boundary_of m in
  let run ~boundary ~commit_margin =
    let module OT = (val H.ordo_ts ~boundary m) in
    let module Rlu = Ordo_rlu.Rlu.Make (R) (OT) in
    let writers = 6 and readers = 6 in
    let t = Rlu.create ~commit_margin ~threads:96 () in
    let a = Rlu.obj 500 and b = Rlu.obj 500 in
    let violations = ref 0 and reads = ref 0 in
    let writer i () =
      let rng = Rng.create ~seed:(Int64.of_int (i + 3)) () in
      while R.now () < 400_000 do
        Rlu.reader_lock t;
        let amount = Rng.int rng 40 in
        if
          Rlu.try_update t a (fun v -> v - amount)
          && Rlu.try_update t b (fun v -> v + amount)
        then Rlu.reader_unlock t
        else Rlu.abort t
      done
    in
    let reader () =
      while R.now () < 400_000 do
        Rlu.reader_lock t;
        let va = Rlu.deref t a in
        (* Section work between the two reads: the window in which a
           writer whose quiescence wrongly skipped us can publish. *)
        R.work 600;
        let vb = Rlu.deref t b in
        Rlu.reader_unlock t;
        incr reads;
        if va + vb <> 1000 then incr violations
      done
    in
    let jobs =
      List.init writers (fun i -> (48 + i, writer (48 + i)))
      @ List.init readers (fun i -> (i, reader))
    in
    ignore (Sim.run_on m jobs : Ordo_sim.Engine.stats);
    (!violations, !reads)
  in
  let rows =
    H.par_map
      (fun (label, boundary, margin) ->
        let violations, reads = run ~boundary ~commit_margin:margin in
        [
          label;
          string_of_int boundary;
          string_of_int margin;
          string_of_int violations;
          string_of_int reads;
        ])
      [
        ("sound boundary + margin", sound, sound);
        ("sound boundary, no margin", sound, 0);
        ("undersized boundary + margin", 60, 60);
        ("undersized boundary, no margin", 60, 0);
      ]
  in
  Report.table
    ~title:"two-object invariant; writers on the late socket, readers on the early one"
    ~header:[ "config"; "boundary (ns)"; "margin (ns)"; "inconsistent"; "snapshots" ]
    rows

(* ---------- Extensions beyond the paper's figures -------------------- *)

let make_rlu_tree (module TS : Ordo_core.Timestamp.S) ~threads ~update_pct () =
  let module Tr = Ordo_rlu.Rlu_tree.Make (R) (TS) in
  let keyrange = 2048 in
  let rlu = Tr.Rlu.create ~threads () in
  let tree = Tr.create ~node_work:80 () in
  (* Shuffled prefill: an external BST has no rebalancing, so ascending
     inserts would degenerate it into a list. *)
  let keys = Array.init (keyrange / 2) (fun k -> k * 2) in
  Ordo_util.Rng.shuffle (Rng.create ~seed:7L ()) keys;
  Array.iter (fun k -> ignore (Tr.add rlu tree k : bool)) keys;
  let op _ rng =
    let key = Rng.int rng keyrange in
    if Rng.int rng 100 < update_pct then begin
      if Rng.bool rng then ignore (Tr.add rlu tree key) else ignore (Tr.remove rlu tree key)
    end
    else ignore (Tr.contains rlu tree key)
  and finish _ = () in
  (op, finish)

let fig11_tree ~full =
  Report.section "Figure 11 (citrus tree): RLU search tree, Xeon";
  (* Section 6.4: the tree benchmark shows the same ~2x improvement as
     the hash table, with more complex multi-object updates. *)
  List.iter
    (fun update_pct ->
      match
        H.par_sweeps ~full Machine.xeon
          [
            (fun ~threads -> make_rlu_tree (H.logical_ts ()) ~threads ~update_pct ());
            (fun ~threads -> make_rlu_tree (H.ordo_ts Machine.xeon) ~threads ~update_pct ());
          ]
      with
      | [ logical; ordo ] ->
        Report.series
          ~title:(Printf.sprintf "xeon tree, %d%% updates (ops/us)" update_pct)
          ~xlabel:"threads"
          ~cols:[ "RLU"; "RLU_ORDO" ]
          (List.map2 (fun (n, a) (_, b) -> (n, [ a; b ])) logical ordo)
      | _ -> assert false)
    [ 2; 40 ]

let ext_wal ~full =
  Report.section "Extension (Section 7): WAL LSN allocation, logical vs Ordo";
  let m = Machine.xeon in
  let make (module TS : Ordo_core.Timestamp.S) ~threads =
    let module W = Ordo_db.Wal.Make (R) (TS) in
    let w = W.create ~threads () in
    fun i rng ->
      (* log-record build cost + append; thread 0 group-commits now and
         then, like a background flusher *)
      R.work 120;
      ignore (W.append w (Rng.int rng 1000) : int);
      if i = 0 && Rng.int rng 256 = 0 then ignore (W.checkpoint w : int)
  in
  let variants =
    [
      (fun ~threads ->
        let module TS = (val H.logical_ts ()) in
        (make (module TS : Ordo_core.Timestamp.S) ~threads, fun _ -> ()));
      (fun ~threads ->
        let module TS = (val H.ordo_ts m) in
        (make (module TS : Ordo_core.Timestamp.S) ~threads, fun _ -> ()));
    ]
  in
  match H.par_sweeps ~full ~warm:50_000 ~dur:200_000 m variants with
  | [ logical; ordo ] ->
    Report.series ~title:"log appends/us" ~xlabel:"threads"
      ~cols:[ "logical LSN"; "ordo LSN"; "speedup" ]
      (List.map2 (fun (n, l) (_, o) -> (n, [ l; o; o /. l ])) logical ordo)
  | _ -> assert false

let ext_tsstack ~full =
  Report.section "Extension (Section 2/7): timestamped stack vs Treiber stack";
  let m = Machine.xeon in
  (* Baseline: a centralized Treiber stack (CAS on one top-of-stack
     line). *)
  let make_treiber ~threads:_ =
    let top = R.cell [] in
    fun i rng ->
      if Rng.int rng 2 = 0 then begin
        let rec push () =
          let old = R.read top in
          if not (R.cas top old (i :: old)) then push ()
        in
        push ()
      end
      else
        let rec pop () =
          match R.read top with
          | [] -> ()
          | _ :: rest as old -> if not (R.cas top old rest) then pop ()
        in
        pop ()
  in
  let make_ts ~threads =
    let module TS = (val H.ordo_ts m) in
    let module S = Ordo_oplog.Ts_stack.Make (R) (TS) in
    let s = S.create ~threads () in
    fun i rng ->
      if Rng.int rng 2 = 0 then S.push s i else ignore (S.try_pop s : int option)
  in
  let variants =
    [
      (fun ~threads -> (make_treiber ~threads, fun _ -> ()));
      (fun ~threads -> (make_ts ~threads, fun _ -> ()));
    ]
  in
  match H.par_sweeps ~full ~warm:50_000 ~dur:150_000 m variants with
  | [ treiber; ts ] ->
    Report.series ~title:"stack ops/us (50% push / 50% pop)" ~xlabel:"threads"
      ~cols:[ "Treiber"; "TS-stack(ordo)" ]
      (List.map2 (fun (n, t) (_, s) -> (n, [ t; s ])) treiber ts)
  | _ -> assert false

let ext_tpcc_full ~full =
  ignore full;
  Report.section "Extension: full five-transaction TPC-C mix (Xeon, 120 threads)";
  let m = Machine.xeon in
  let threads = 120 in
  (* One task per scheme; each task instantiates its own scheme by
     position so no timestamp source crosses task boundaries. *)
  let n_schemes = List.length (db_schemes m) in
  let rows =
    H.par_map
      (fun si ->
        let name, (module C : Ordo_db.Cc_intf.S) = List.nth (db_schemes m) si in
        let module T = Ordo_db.Tpcc.Make (R) (C) in
        let t = T.create ~threads () in
        let rate =
          H.throughput ~warm:100_000 ~dur:300_000 m ~threads (fun i rng ->
              T.run_tx_full t rng ~tid:i)
        in
        let commits = T.stats_commits t and aborts = T.stats_aborts t in
        [
          name;
          Printf.sprintf "%.2f" rate;
          Printf.sprintf "%.3f" (float_of_int aborts /. float_of_int (max 1 (commits + aborts)));
        ])
      (List.init n_schemes Fun.id)
  in
  Report.table ~title:"45% NewOrder / 43% Payment / 4% OrderStatus / 4% Delivery / 4% StockLevel"
    ~header:[ "scheme"; "txn/us"; "abort rate" ]
    rows

let ablate_pairwise ~full =
  Report.section "Ablation (Section 7): per-pair boundary table vs one global boundary";
  let m = Machine.xeon in
  let module E = (val Sim.exec m) in
  let module B = Ordo_core.Boundary.Make (E) in
  let cores = H.sample_cores ~count:(if full then 16 else 12) m in
  let table = B.pair_matrix ~runs:(if full then 200 else 60) ~cores () in
  let module P = Ordo_core.Pairwise.Make (R) (struct let table = table end) in
  let n = Array.length table in
  (* For each pair class, how much smaller is the usable window? *)
  let topo = m.Machine.topo in
  let arr = Array.of_list cores in
  let intra = ref [] and cross = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let bucket =
        if Topology.same_socket topo arr.(i) arr.(j) then intra else cross
      in
      bucket := float_of_int table.(i).(j) :: !bucket
    done
  done;
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  Report.table ~title:"uncertainty window by pair class (ns)"
    ~header:[ "pair class"; "mean pair boundary"; "global boundary"; "window shrink" ]
    [
      [
        "same socket";
        Printf.sprintf "%.0f" (mean !intra);
        string_of_int P.global_boundary;
        Printf.sprintf "%.1fx" (float_of_int P.global_boundary /. mean !intra);
      ];
      [
        "cross socket";
        Printf.sprintf "%.0f" (mean !cross);
        string_of_int P.global_boundary;
        Printf.sprintf "%.1fx" (float_of_int P.global_boundary /. mean !cross);
      ];
    ];
  let words_full =
    let t = Topology.total_threads topo in
    t * t
  in
  Report.kv "memory cost of the full table (the paper's objection)"
    (Printf.sprintf "%d^2 = %d words (vs 1)" (Topology.total_threads topo) words_full)

(* ---------- Extension: clock-fault dip and recovery -------------------- *)

let ext_hazard ~full =
  Report.section
    "Extension: clock faults under the boundary guard - throughput dip and recovery (AMD)";
  (* Windowed throughput of an OCC workload through a dvfs clock fault:
     the hazard-free guarded run sets the baseline (the guard's sampling
     overhead is the gap to it); the guarded runs absorb the fault and
     keep the checker green (inflate recovers, fallback pays the shared
     counter forever after); the unguarded run keeps its throughput and
     silently corrupts ordering - which only the offline checker sees. *)
  let module Scenario = Ordo_hazard.Scenario in
  let module Timeline = Ordo_hazard.Timeline in
  let module Trace = Ordo_trace.Trace in
  let module Checker = Ordo_trace.Checker in
  let module Guard = Ordo_core.Guard in
  let m = Machine.amd in
  let boundary = H.boundary_of m in
  let threads = 16 in
  let dur = if full then 480_000 else 240_000 in
  let windows = 12 in
  let window = dur / windows in
  let scenario () =
    match Scenario.by_name "dvfs" with
    | Some mk -> mk ~seed:1 ~dur ~threads m.Machine.topo
    | None -> failwith "dvfs scenario missing"
  in
  let guarded_ts pol () : (module Ordo_core.Timestamp.S) =
    let module G =
      Guard.Make
        (R)
        (struct
          include Guard.Defaults

          let boundary = boundary
          let policy = pol
        end)
    in
    (module Ordo_core.Timestamp.Ordo_source (G))
  in
  let run ?scenario ~guarded mk_ts =
    let module TS = (val mk_ts () : Ordo_core.Timestamp.S) in
    let module C = Ordo_db.Occ.Make (R) (TS) in
    let db = C.create ~threads ~rows:48 () in
    let module X = Ordo_db.Cc_intf.Execute (R) (C) in
    let wins = Array.make windows 0 in
    (* The summary needs the *first* hazard and detection, so the ring
       must hold the whole run - size it to the duration, not the default. *)
    Trace.start ~capacity:262_144 ~threads:(Topology.total_threads m.Machine.topo) ();
    ignore
      (Sim.run ?scenario m ~threads (fun i ->
           let rng = Rng.create ~seed:(Int64.of_int ((i * 31) + 7)) () in
           while R.now () < dur do
             X.run db (fun tx ->
                 let k1 = Rng.int rng 48 and k2 = Rng.int rng 48 in
                 let v = C.read tx k1 in
                 if Rng.int rng 100 < 60 then C.write tx k2 (v + 1));
             let w = min (R.now () / window) (windows - 1) in
             wins.(w) <- wins.(w) + 1
           done)
        : Ordo_sim.Engine.stats);
    let t = Trace.stop () in
    let summary = Timeline.summarize t in
    let report =
      if guarded then Checker.check_guard ~boundary t else Checker.check ~boundary t
    in
    (* Engine virtual time accumulates across the runs of one process;
       anchor reported times to this run's first event. *)
    let t0 =
      if Array.length t.Trace.events > 0 then t.Trace.events.(0).Trace.time else 0
    in
    (wins, summary, Checker.ok report, t0, t.Trace.dropped)
  in
  let configs =
    [
      ("no fault, guarded", None, true, guarded_ts Guard.Inflate);
      ("dvfs, guard:inflate", Some (scenario ()), true, guarded_ts Guard.Inflate);
      ("dvfs, guard:fallback", Some (scenario ()), true, guarded_ts Guard.Fallback);
      ("dvfs, unguarded", Some (scenario ()), false, fun () -> H.ordo_ts ~boundary m);
    ]
  in
  (* Each configuration is a self-contained task: it installs its own
     (domain-local) trace sink, runs its simulation under a fresh
     instance, and returns everything the report needs. *)
  let results =
    H.par_map
      (fun (label, scenario, guarded, mk_ts) ->
        let wins, summary, ok, t0, dropped = run ?scenario ~guarded mk_ts in
        (label, wins, summary, ok, t0, dropped))
      configs
  in
  List.iter
    (fun (label, _, _, _, _, dropped) ->
      if dropped > 0 then
        Report.kv
          (Printf.sprintf "%s: trace events dropped (timeline may start late)" label)
          (string_of_int dropped))
    results;
  Report.series
    ~title:
      (Printf.sprintf "OCC txn/us per %d ns window (%d threads, boundary %d ns)" window
         threads boundary)
    ~xlabel:"window end (ns)"
    ~cols:(List.map (fun (l, _, _, _, _, _) -> l) results)
    (List.init windows (fun w ->
         ( (w + 1) * window,
           List.map
             (fun (_, wins, _, _, _, _) ->
               float_of_int wins.(w) /. (float_of_int window /. 1000.))
             results )));
  let rows =
    List.map
      (fun (label, _, s, ok, t0, _) ->
        [
          label;
          (if ok then "pass" else "FAIL");
          string_of_int s.Timeline.detections;
          (match s.Timeline.detection_latency with
          | Some l -> string_of_int l
          | None -> "-");
          (match s.Timeline.final_bound with Some b -> string_of_int b | None -> "-");
          (match s.Timeline.fallback_at with
          | Some at -> string_of_int (at - t0)
          | None -> "-");
        ])
      results
  in
  Report.table
    ~title:"offline checker verdict and guard reaction per configuration"
    ~header:
      [ "config"; "checker"; "detections"; "latency (ns)"; "final bound"; "fallback at" ]
    rows

(* ---------- Cluster: multi-node composed Ordo + sharded KV ------------- *)

let cluster ~full =
  let module Net = Ordo_cluster.Net in
  let module Compose = Ordo_cluster.Compose in
  let module Kv = Ordo_cluster.Kv in
  let module Trace = Ordo_trace.Trace in
  let module Checker = Ordo_trace.Checker in
  Report.section
    "Cluster: sharded KV across nodes - central sequencer vs composed-Ordo timestamps";
  let shards_list = if full then [ 1; 2; 4; 6; 8 ] else [ 1; 2; 4; 8 ] in
  let dur = if full then 400_000 else 150_000 in
  let sources = [ Kv.Logical; Kv.Ordo ] in
  let cells =
    List.concat_map (fun src -> List.map (fun s -> (src, s)) shards_list) sources
  in
  (* Each cell builds its whole cluster (nodes, links, measurement, run)
     inside the task, so cells are independent and the tables are
     byte-identical for any --jobs count. *)
  let results =
    H.par_map
      (fun (src, shards) ->
        let spec = Net.Spec.make ~machine:"amd" shards in
        let c = Compose.measure spec in
        let boundary =
          match src with Kv.Ordo -> c.Compose.boundary | Kv.Logical -> 0
        in
        let cfg = { Kv.default with Kv.dur_ns = dur; source = src } in
        Trace.start ~capacity:65536 ();
        let r = Kv.run ~boundary spec cfg in
        let t = Trace.stop () in
        let rep = Checker.check ~boundary t in
        (r, rep, c.Compose.boundary))
      cells
  in
  let fmt_row ((r : Kv.result), (rep : Checker.report), cb) shards =
    [
      string_of_int shards;
      string_of_int cb;
      string_of_int r.Kv.committed;
      Printf.sprintf "%.2f" r.Kv.throughput;
      Printf.sprintf "%.0f" r.Kv.p50_ns;
      Printf.sprintf "%.0f" r.Kv.p99_ns;
      string_of_int r.Kv.aborted;
      string_of_int r.Kv.messages;
      string_of_int r.Kv.commit_waits;
      (if Checker.ok rep then "ok"
       else Printf.sprintf "%d violations" (List.length rep.Checker.violations));
    ]
  in
  let header =
    [
      "shards"; "boundary"; "committed"; "txn/us"; "p50 ns"; "p99 ns"; "aborts";
      "msgs"; "waits"; "checker";
    ]
  in
  List.iteri
    (fun i src ->
      let rows =
        List.map2 fmt_row
          (H.chunks (List.length shards_list) results |> Fun.flip List.nth i)
          shards_list
      in
      Report.table
        ~title:
          (Printf.sprintf "cross-shard KV scaling, %s source (open loop, %d ns arrivals)"
             (Kv.source_name src) Kv.default.Kv.arrival_ns)
        ~header rows)
    sources;
  (* The composed source is an ordinary Timestamp.S, so single-machine
     substrates run unchanged inside any node of the cluster. *)
  let spec = Net.Spec.make ~machine:"amd" 3 in
  let c = Compose.measure spec in
  let ts = Compose.source ~boundary:c.Compose.boundary () in
  let net : unit Net.t = Net.create spec in
  let demo =
    List.map
      (fun node ->
        Trace.start ~capacity:65536 ();
        let stats =
          Net.run_node net node (fun machine ->
              Ordo_workloads.Workloads.run "occ" ~report:false machine ts ~threads:8
                ~dur:60_000)
        in
        let t = Trace.stop () in
        let rep = Checker.check ~boundary:c.Compose.boundary t in
        (node, stats, rep))
      [ 0; 1; 2 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "OCC substrate, unchanged, on each node under the composed source (boundary %d ns)"
         c.Compose.boundary)
    ~header:[ "node"; "clock offset ns"; "events"; "commits"; "checker" ]
    (List.map
       (fun (node, (stats : Ordo_sim.Engine.stats), (rep : Checker.report)) ->
         [
           string_of_int node;
           string_of_int (Net.offset_truth net node);
           string_of_int stats.Ordo_sim.Engine.events;
           string_of_int rep.Checker.committed;
           (if Checker.ok rep then "ok" else "VIOLATIONS");
         ])
       demo);
  (* Negative control: the seeded link-asymmetry fixture under the
     unsound RTT/2 boundary must be flagged; the composed boundary on the
     same topology must stay clean. *)
  let spec = Net.Spec.asymmetric_fixture () in
  let c = Compose.measure spec in
  let cfg = { Kv.default with Kv.dur_ns = 100_000; source = Kv.Ordo } in
  let verdict boundary =
    Trace.start ~capacity:65536 ();
    let _ = Kv.run ~boundary spec cfg in
    let t = Trace.stop () in
    Checker.check ~boundary t
  in
  let flagged = verdict c.Compose.rtt2_boundary in
  let clean = verdict c.Compose.boundary in
  Report.kv "asymmetry fixture, rtt/2 boundary"
    (Printf.sprintf "%d ns -> %d violation(s) flagged" c.Compose.rtt2_boundary
       (List.length flagged.Checker.violations));
  Report.kv "asymmetry fixture, composed boundary"
    (Printf.sprintf "%d ns -> %s" c.Compose.boundary
       (if Checker.ok clean then "0 violations" else "UNEXPECTED violations"))

(* ---------- Live: the work-stealing pool on real OCaml 5 domains ------- *)

(* Default output is a determinism-insensitive invariant smoke on a fixed
   2-worker pool: every line is a host-independent verdict string (no
   times, no measured boundary values), so CI can diff it byte-for-byte
   and it stays honest on a 1-CPU runner.  The throughput table — Ordo
   source vs the shared fetch-and-add sequencer on the same pool, next to
   the simulated rates — is opt-in via --live / ORDO_LIVE, with --jobs
   giving the worker count. *)

let live_smoke ~full =
  let workers = 2 in
  let boundary = Ordo_sched.Live.boundary ~runs:(if full then 25 else 8) ~workers () in
  let module T = (val Ordo_sched.Live.ordo_source ~boundary ()) in
  let module P = Ordo_sched.Pool.Make (Ordo_runtime.Real.Exec) (T) in
  let module Trace = Ordo_trace.Trace in
  let module Checker = Ordo_trace.Checker in
  let tasks = 64 in
  Trace.start ~capacity:65536 ();
  let sum, certified, pool =
    P.run ~workers (fun pool ->
        let ps = List.init tasks (fun i -> P.spawn pool (fun () -> i)) in
        let sum = List.fold_left (fun acc p -> acc + P.await pool p) 0 ps in
        let a = P.spawn pool (fun () -> 1) in
        let b = P.spawn pool (fun () -> P.await pool a + 1) in
        ignore (P.await pool b : int);
        (sum, P.cmp_resolved a b, pool))
  in
  let t = Trace.stop () in
  let rep = Checker.check ~boundary t in
  let st = P.stats pool in
  let executed = Array.fold_left ( + ) 0 st.P.executed in
  Report.kv "workers" (string_of_int workers);
  Report.kv "join sum"
    (if sum = tasks * (tasks - 1) / 2 then "ok" else "WRONG");
  Report.kv "certified dependency order"
    (if certified = -1 then "certainly-before" else "VIOLATION");
  Report.kv "every task executed exactly once"
    (* tasks + the a/b chain + the root task *)
    (if executed = tasks + 3 then "ok" else Printf.sprintf "MISSING (%d)" executed);
  Report.kv "scheduler trace vs stock checker"
    (if Checker.ok rep && rep.Checker.committed >= tasks then "ok" else "VIOLATIONS")

let live_rates ~full =
  let workers = max 2 !H.jobs in
  (* Time-boxed, not count-boxed: an Ordo [advance] spins one boundary
     per stamp, and on an oversubscribed host the measured boundary
     includes preemption delays — a fixed op count could take minutes. *)
  let dur = if full then 1.0 else 0.25 in
  let live_rate (module T : Ordo_core.Timestamp.S) =
    let module P = Ordo_sched.Pool.Make (Ordo_runtime.Real.Exec) (T) in
    let stop = Unix.gettimeofday () +. dur in
    let t0 = Unix.gettimeofday () in
    let counts =
      P.run ~workers (fun pool ->
          P.fork_join pool
            (List.init workers (fun _ () ->
                 let n = ref 0 in
                 while Unix.gettimeofday () < stop do
                   for _ = 1 to 64 do
                     ignore (T.advance () : int)
                   done;
                   n := !n + 64
                 done;
                 !n)))
    in
    let wall = Unix.gettimeofday () -. t0 in
    float_of_int (List.fold_left ( + ) 0 counts) /. wall
  in
  let sim_rate src =
    (* The same generation loop on the simulated AMD preset at the same
       thread count — the numbers the live table sits next to. *)
    Sim.with_fresh_instance (fun () ->
        let machine = Machine.amd in
        let module TS =
          (val match src with
               | `Ordo -> H.ordo_ts machine
               | `Seq -> H.logical_ts ())
        in
        H.throughput machine ~threads:workers (fun _ _ -> ignore (TS.advance () : int)))
  in
  let boundary = Ordo_sched.Live.boundary ~workers () in
  let rows =
    List.map
      (fun (label, src) ->
        let rate =
          match src with
          | `Ordo -> live_rate (Ordo_sched.Live.ordo_source ~boundary ())
          | `Seq -> live_rate (Ordo_sched.Live.sequencer_source ())
        in
        (label, rate, sim_rate src))
      [ ("ordo", `Ordo); ("sequencer", `Seq) ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "timestamp generation on the live pool, %d workers (boundary %d ns) vs simulated amd"
         workers boundary)
    ~header:[ "source"; "live stamps/s"; "sim stamps/us" ]
    (List.map
       (fun (label, live, sim) -> [ label; Report.human live; Printf.sprintf "%.2f" sim ])
       rows)

let live ~full =
  Report.section "Live: Ordo-timestamped work-stealing pool on OCaml 5 domains";
  live_smoke ~full;
  if !H.live then live_rates ~full
  else
    Report.kv "throughput table" "skipped (opt in with --live or ORDO_LIVE=1; --jobs N sets workers)"

(* ---------- Correctness: DPOR model checking of the lock-free layer ----- *)

(* Interleavings-explored vs pruned for every Mcheck target: the DPOR
   numbers are exact and deterministic (same explorer, same seed), the
   exhaustive column is the honest denominator where the unreduced space
   fits the budget — spinlock and mcs always, barrier only under [full]
   (its unreduced space is ~1.9M interleavings), and never for
   deque/oplog/guard, whose unreduced spaces exceed any sane budget.
   The mutant rows then show the cost of *finding* a seeded bug: how
   many interleavings the explorer visits before the counterexample. *)
let mcheck ~full =
  let module Mc = Ordo_mcheck.Mcheck in
  let module Suites = Ordo_mcheck.Suites in
  let module Mutants = Ordo_mutants.Mutants in
  Report.section "Correctness: DPOR model checking of the lock-free layer";
  let cfg mode =
    { Mc.default with Mc.mode; spin_bound = 8; max_interleavings = 4_000_000 }
  in
  let exhaustive_ok name = name = "spinlock" || name = "mcs" || (full && name = "barrier") in
  let rows =
    List.map
      (fun (t : Suites.target) ->
        let d =
          match t.t_run (cfg Mc.Dpor) with
          | Mc.Verified s -> s
          | Mc.Violation _ | Mc.Budget_exceeded _ ->
            failwith (t.t_name ^ ": expected Verified under DPOR")
        in
        let ex =
          if exhaustive_ok t.t_name then
            match t.t_run (cfg Mc.Exhaustive) with
            | Mc.Verified s -> Some s.Mc.interleavings
            | Mc.Violation _ | Mc.Budget_exceeded _ ->
              failwith (t.t_name ^ ": expected Verified under exhaustive")
          else None
        in
        [
          t.t_name;
          string_of_int d.Mc.interleavings;
          string_of_int d.Mc.steps_total;
          string_of_int d.Mc.max_depth;
          (match ex with
          | Some n -> string_of_int n
          | None when t.t_name = "barrier" -> "~1.9M (--full)"
          | None -> "> budget");
          (match ex with
          | Some n -> Printf.sprintf "%.0fx" (float_of_int n /. float_of_int d.Mc.interleavings)
          | None -> "-");
        ])
      Suites.all
  in
  Report.table
    ~title:"genuine targets: DPOR-explored vs unreduced interleaving space"
    ~header:[ "target"; "dpor"; "steps"; "max-depth"; "exhaustive"; "pruning" ]
    rows;
  let mrows =
    List.map
      (fun (t : Suites.target) ->
        match t.t_run (cfg Mc.Dpor) with
        | Mc.Violation (v, s) ->
          [
            t.t_name;
            "killed";
            string_of_int (s.Mc.interleavings + 1);
            string_of_int (Array.length v.Mc.schedule);
            string_of_int v.Mc.switches;
            v.Mc.reason;
          ]
        | Mc.Verified _ -> [ t.t_name; "SURVIVED"; "-"; "-"; "-"; "-" ]
        | Mc.Budget_exceeded _ -> [ t.t_name; "BUDGET"; "-"; "-"; "-"; "-" ])
      Mutants.all
  in
  Report.table
    ~title:"seeded mutants: interleavings visited before the counterexample"
    ~header:[ "mutant"; "verdict"; "to-kill"; "cex steps"; "switches"; "reason" ]
    mrows

(* ---------- Service: replicated session front-end ---------------------- *)

(* End-to-end composition: Sessions traffic over replica groups with epoch
   group commit, admission control, primary->backup replication and
   lease-based failover.  Three tables: (1) one Ordo commit-wait per
   epoch vs per cross-shard transaction; (2) the price of replication
   (replicas 1 = unreplicated); (3) a chaos run that kills a primary
   mid-2PC and must degrade, promote, recover and still satisfy the
   stock offline checker with exactly-once effects. *)
let service ~full =
  let module Net = Ordo_cluster.Net in
  let module Compose = Ordo_cluster.Compose in
  let module Svc = Ordo_service.Service in
  let module Chaos = Ordo_service.Chaos in
  let module Sessions = Ordo_workloads.Sessions in
  let module Node_fault = Ordo_hazard.Node_fault in
  let module Trace = Ordo_trace.Trace in
  let module Checker = Ordo_trace.Checker in
  Report.section "Service: replicated, admission-controlled session front-end";
  let sessions_list = if full then [ 120; 240; 480 ] else [ 60; 120; 240 ] in
  let dur = if full then 250_000 else 100_000 in
  (* One cell = one whole cluster (spec, boundary measurement, run,
     offline check) built inside the task, so cells are independent and
     the tables are byte-identical for any --jobs count. *)
  let cell ?fault ~replicas ~epoch sessions =
    let spec = Net.Spec.make ~machine:"amd" ~replicas (2 * replicas) in
    let c = Compose.measure spec in
    let cfg =
      {
        Svc.default with
        Svc.profile = { Sessions.default with Sessions.sessions; dur_ns = dur };
        epoch_ns = epoch;
      }
    in
    Trace.start ~capacity:262_144 ();
    let r =
      match fault with
      | None -> Svc.run ~boundary:c.Compose.boundary spec cfg
      | Some f -> Svc.run ~boundary:c.Compose.boundary ~fault:f spec cfg
    in
    let rep = Checker.check ~boundary:c.Compose.boundary (Trace.stop ()) in
    (r, rep)
  in
  let invariants r = if Svc.violations r = [] then "ok" else "VIOLATED" in
  let verdict (rep : Checker.report) =
    if Checker.ok rep then "ok"
    else Printf.sprintf "%d violations" (List.length rep.Checker.violations)
  in
  (* (1) epoch group commit vs per-transaction commit wait. *)
  let series = [ ("epoch group-commit", Svc.default.Svc.epoch_ns); ("per-txn wait", 0) ] in
  let cells =
    List.concat_map (fun (_, e) -> List.map (fun s -> (e, s)) sessions_list) series
  in
  let results =
    H.par_map (fun (epoch, sessions) -> cell ~replicas:2 ~epoch sessions) cells
  in
  let header =
    [
      "sessions"; "committed"; "cross"; "waits"; "wait ns"; "ops/us"; "p50 ns";
      "p99 ns"; "invariants"; "checker";
    ]
  in
  List.iteri
    (fun i (label, e) ->
      let rows =
        List.map2
          (fun ((r : Svc.result), rep) sessions ->
            [
              string_of_int sessions;
              string_of_int r.Svc.committed;
              string_of_int r.Svc.cross_committed;
              string_of_int r.Svc.commit_waits;
              string_of_int r.Svc.wait_ns;
              Printf.sprintf "%.2f" r.Svc.throughput;
              Printf.sprintf "%.0f" r.Svc.p50_ns;
              Printf.sprintf "%.0f" r.Svc.p99_ns;
              invariants r;
              verdict rep;
            ])
          (List.nth (H.chunks (List.length sessions_list) results) i)
          sessions_list
      in
      Report.table
        ~title:
          (Printf.sprintf "2 groups x 2 replicas, %s (epoch_ns=%d)" label e)
        ~header rows)
    series;
  (* (2) replication on/off at fixed load. *)
  let reps = if full then [ 1; 2; 3 ] else [ 1; 2 ] in
  let sess = List.nth sessions_list 1 in
  let rres =
    H.par_map (fun replicas -> cell ~replicas ~epoch:Svc.default.Svc.epoch_ns sess) reps
  in
  Report.table
    ~title:(Printf.sprintf "replication factor at %d sessions (epoch group commit)" sess)
    ~header:
      [
        "replicas"; "committed"; "ops/us"; "p99 ns"; "rep shipped"; "rep applied";
        "msgs"; "invariants"; "checker";
      ]
    (List.map2
       (fun replicas ((r : Svc.result), rep) ->
         [
           string_of_int replicas;
           string_of_int r.Svc.committed;
           Printf.sprintf "%.2f" r.Svc.throughput;
           Printf.sprintf "%.0f" r.Svc.p99_ns;
           string_of_int r.Svc.rep_shipped;
           string_of_int r.Svc.rep_applied;
           string_of_int r.Svc.messages;
           invariants r;
           verdict rep;
         ])
       reps rres);
  (* (3) chaos: kill a primary mid-run; the group must degrade, promote a
     backup past the promotion floor, re-join the victim by snapshot and
     end exactly-once with the stock checker clean. *)
  let chaos =
    H.par_map
      (fun name ->
        let replicas = 2 in
        let fault =
          match Node_fault.by_name name with
          | Some preset -> preset ~seed:1 ~dur ~groups:2 ~replicas
          | None -> invalid_arg name
        in
        (name, cell ~fault ~replicas ~epoch:Svc.default.Svc.epoch_ns sess))
      (if full then [ "primary_kill"; "rolling" ] else [ "primary_kill" ])
  in
  List.iter
    (fun ((r : Svc.result), _) ->
      H.add_net_work ~pops:r.Svc.net_pops ~restamps:r.Svc.net_restamps)
    (results @ rres @ List.map snd chaos);
  List.iter
    (fun (name, ((r : Svc.result), rep)) ->
      Report.table
        ~title:(Printf.sprintf "chaos scenario %s at %d sessions" name sess)
        ~header:
          [
            "committed"; "failed"; "promotions"; "degraded reads"; "snapshots";
            "rep stale"; "invariants"; "checker";
          ]
        [
          [
            string_of_int r.Svc.committed;
            string_of_int r.Svc.failed;
            string_of_int r.Svc.promotions;
            string_of_int r.Svc.degraded_reads;
            string_of_int r.Svc.snapshots;
            string_of_int r.Svc.rep_stale;
            invariants r;
            verdict rep;
          ];
        ];
      List.iter (fun e -> print_endline ("  " ^ Chaos.describe_event e)) r.Svc.timeline)
    chaos
