(* Database CC schemes: serial semantics, serializability smokes (exact
   counters, snapshot audits), and the YCSB / TPC-C drivers — run against
   every scheme through the common signature. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Rng = Ordo_util.Rng
module Cc = Ordo_db.Cc_intf

let tiny =
  Machine.make
    { Ordo_util.Topology.name = "tiny"; sockets = 2; cores_per_socket = 4; smt = 1; ghz = 2.0 }
    ~socket_reset_ns:[| 0; 150 |] ~noise_prob:0.0 ~core_jitter_ns:0

module Logical = Ordo_core.Timestamp.Logical (R) ()
module Logical2 = Ordo_core.Timestamp.Logical (R) ()
module O = Ordo_core.Ordo.Make (R) (struct let boundary = 400 end)
module Ordo_ts = Ordo_core.Timestamp.Ordo_source (O)

let schemes : (module Cc.S) list =
  [
    (module Ordo_db.Occ.Make (R) (Logical));
    (module Ordo_db.Occ.Make (R) (Ordo_ts));
    (module Ordo_db.Hekaton.Make (R) (Logical2));
    (module Ordo_db.Hekaton.Make (R) (Ordo_ts));
    (module Ordo_db.Silo.Make (R));
    (module Ordo_db.Tictoc.Make (R));
  ]

let for_each_scheme f () = List.iter (fun (module C : Cc.S) -> f (module C : Cc.S)) schemes

(* ---- serial semantics ---- *)

let serial_roundtrip (module C : Cc.S) =
  let module Exec = Cc.Execute (R) (C) in
  let db = C.create ~threads:1 ~rows:8 () in
  Exec.run db (fun tx ->
      C.write tx 3 42;
      C.write tx 5 7);
  let v3, v5, v0 = Exec.run db (fun tx -> (C.read tx 3, C.read tx 5, C.read tx 0)) in
  Alcotest.(check int) (C.name ^ " write/read") 42 v3;
  Alcotest.(check int) (C.name ^ " second row") 7 v5;
  Alcotest.(check int) (C.name ^ " untouched row") 0 v0

let serial_read_own_write (module C : Cc.S) =
  let module Exec = Cc.Execute (R) (C) in
  let db = C.create ~threads:1 ~rows:4 () in
  let seen =
    Exec.run db (fun tx ->
        C.write tx 1 10;
        let a = C.read tx 1 in
        C.write tx 1 (a + 5);
        C.read tx 1)
  in
  Alcotest.(check int) (C.name ^ " read-own-write") 15 seen;
  let final = Exec.run db (fun tx -> C.read tx 1) in
  Alcotest.(check int) (C.name ^ " committed") 15 final

let serial_rmw_sequence (module C : Cc.S) =
  let module Exec = Cc.Execute (R) (C) in
  let db = C.create ~threads:1 ~rows:2 () in
  for _ = 1 to 50 do
    Exec.run db (fun tx -> C.write tx 0 (C.read tx 0 + 1))
  done;
  Alcotest.(check int) (C.name ^ " 50 rmw") 50 (Exec.run db (fun tx -> C.read tx 0));
  Alcotest.(check int) (C.name ^ " 51 commits") 51 (C.stats_commits db)

(* ---- concurrency ---- *)

let concurrent_counter (module C : Cc.S) =
  let module Exec = Cc.Execute (R) (C) in
  let threads = 6 and per = 100 in
  let db = C.create ~threads ~rows:4 () in
  ignore
    (Sim.run tiny ~threads (fun _ ->
         for _ = 1 to per do
           Exec.run db (fun tx -> C.write tx 0 (C.read tx 0 + 1))
         done));
  let total =
    let module E2 = Cc.Execute (R) (C) in
    E2.run db (fun tx -> C.read tx 0)
  in
  Alcotest.(check int) (C.name ^ " serializable counter") (threads * per) total

let snapshot_audit (module C : Cc.S) =
  (* Transfers keep rows 0+1 constant; concurrent audits must agree. *)
  let module Exec = Cc.Execute (R) (C) in
  let threads = 4 in
  let db = C.create ~threads ~rows:2 () in
  Exec.run db (fun tx ->
      C.write tx 0 500;
      C.write tx 1 500);
  let violations = ref 0 in
  ignore
    (Sim.run tiny ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int (i + 31)) () in
         if i < 2 then
           while R.now () < 100_000 do
             let amount = Rng.int rng 30 in
             Exec.run db (fun tx ->
                 C.write tx 0 (C.read tx 0 - amount);
                 C.write tx 1 (C.read tx 1 + amount))
           done
         else
           while R.now () < 100_000 do
             let a, b = Exec.run db (fun tx -> (C.read tx 0, C.read tx 1)) in
             if a + b <> 1000 then incr violations
           done));
  Alcotest.(check int) (C.name ^ " audits consistent") 0 !violations

let stats_move (module C : Cc.S) =
  let module Exec = Cc.Execute (R) (C) in
  let threads = 6 in
  let db = C.create ~threads ~rows:2 () in
  ignore
    (Sim.run tiny ~threads (fun _ ->
         for _ = 1 to 50 do
           Exec.run db (fun tx -> C.write tx 0 (C.read tx 0 + 1))
         done));
  Alcotest.(check int) (C.name ^ " commits counted") 300 (C.stats_commits db);
  Alcotest.(check bool) (C.name ^ " had conflicts") true (C.stats_aborts db > 0)

(* ---- drivers ---- *)

let ycsb_runs (module C : Cc.S) =
  let module Y = Ordo_db.Ycsb.Make (R) (C) in
  let threads = 4 in
  let t = Y.create ~config:{ Ordo_db.Ycsb.read_only with Ordo_db.Ycsb.rows = 256 } ~threads () in
  ignore
    (Sim.run tiny ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int (i + 41)) () in
         for _ = 1 to 50 do
           Y.run_tx t rng
         done));
  Alcotest.(check int) (C.name ^ " ycsb commits") 200 (Y.stats_commits t)

let ycsb_mixed_runs (module C : Cc.S) =
  let module Y = Ordo_db.Ycsb.Make (R) (C) in
  let threads = 4 in
  let config = { Ordo_db.Ycsb.update_heavy with Ordo_db.Ycsb.rows = 128 } in
  let t = Y.create ~config ~threads () in
  ignore
    (Sim.run tiny ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int (i + 43)) () in
         for _ = 1 to 50 do
           Y.run_tx t rng
         done));
  Alcotest.(check bool) (C.name ^ " mixed commits >= txs") true (Y.stats_commits t >= 200)

let tpcc_money_conservation (module C : Cc.S) =
  (* Payment moves [amount] into warehouse+district YTD and out of the
     customer balance; NewOrder never touches balances.  After any mix,
     sum(warehouse YTD) = -sum(customer balances). *)
  let module T = Ordo_db.Tpcc.Make (R) (C) in
  let module Exec = Cc.Execute (R) (C) in
  let config = { Ordo_db.Tpcc.default with Ordo_db.Tpcc.warehouses = 4; stock = 50; order_slots = 16 } in
  let threads = 4 in
  let t = T.create ~config ~threads () in
  ignore
    (Sim.run tiny ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int (i + 51)) () in
         for _ = 1 to 40 do
           T.run_tx t rng ~tid:i
         done));
  let cfg = config in
  let read_row key =
    let module E = Cc.Execute (R) (C) in
    E.run t.T.db (fun tx -> C.read tx key)
  in
  let wh_ytd = ref 0 and cust = ref 0 in
  for w = 0 to cfg.Ordo_db.Tpcc.warehouses - 1 do
    wh_ytd := !wh_ytd + read_row (T.warehouse_row cfg w);
    for d = 0 to cfg.Ordo_db.Tpcc.districts - 1 do
      for c = 0 to cfg.Ordo_db.Tpcc.customers - 1 do
        cust := !cust + read_row (T.customer_row cfg w d c)
      done
    done
  done;
  Alcotest.(check int) (C.name ^ " money conserved") !wh_ytd (- !cust)

let tpcc_full_mix (module C : Cc.S) =
  (* The five-transaction mix completes and commits everything. *)
  let module T = Ordo_db.Tpcc.Make (R) (C) in
  let config =
    { Ordo_db.Tpcc.default with Ordo_db.Tpcc.warehouses = 4; stock = 50; order_slots = 16 }
  in
  let threads = 4 in
  let t = T.create ~config ~threads () in
  ignore
    (Sim.run tiny ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int (i + 71)) () in
         for _ = 1 to 30 do
           T.run_tx_full t rng ~tid:i
         done));
  Alcotest.(check bool)
    (C.name ^ " full mix commits >= txs")
    true
    (T.stats_commits t >= threads * 30)

(* ---- transaction footprints ---- *)

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* [Txset]'s write set against Stdlib [Hashtbl] over random replace/reset
   programs: after every step the two iterate in the same order, hold the
   same count and agree on the step's key; at the end they agree on every
   key in range.  Up to 400 keys, so the buckets double several times. *)
let test_txset_matches_hashtbl =
  qtest ~count:200 "txset: write set iterates and finds like Hashtbl"
    QCheck2.Gen.(
      list_size (int_range 0 600)
        (frequency
           [ (40, map (fun kv -> Some kv) (pair (int_range (-20) 400) (int_range 0 1000)));
             (1, return None) ]))
    (fun program ->
      let fp = Ordo_db.Txset.create () and h = Hashtbl.create 16 in
      let order_of_fp () =
        let acc = ref [] in
        Ordo_db.Txset.iter_writes (fun k v -> acc := (k, v) :: !acc) fp;
        !acc
      in
      let order_of_h () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.rev in
      let find k =
        let e = Ordo_db.Txset.find fp k in
        if e < 0 then None else Some (Ordo_db.Txset.value fp e)
      in
      let step = function
        | Some (k, v) ->
          Ordo_db.Txset.replace fp k v;
          Hashtbl.replace h k v;
          find k = Hashtbl.find_opt h k
        | None ->
          Ordo_db.Txset.clear fp;
          Hashtbl.reset h;
          true
      in
      List.for_all
        (fun op ->
          step op
          && Ordo_db.Txset.writes fp = Hashtbl.length h
          && List.rev (order_of_fp ()) = order_of_h ())
        program
      && List.for_all (fun k -> find k = Hashtbl.find_opt h k) (List.init 421 (fun i -> i - 20)))

(* OCC and Silo keep a transaction's footprint in per-thread arrays, so
   once a context has seen a footprint as large, reads and writes
   allocate nothing, and a commit allocates only its couple of closures.
   Measured outside a run, where cell operations are plain loads and
   stores. *)
let occ_like : (module Cc.S) list =
  [
    (module Ordo_db.Occ.Make (R) (Logical));
    (module Ordo_db.Occ.Make (R) (Ordo_ts));
    (module Ordo_db.Silo.Make (R));
  ]

(* The bound on one NewOrder-shaped commit (17 reads, 18 writes), in
   minor words.  Its lock and install closures take 17. *)
let new_order_commit_words = 24.0

let test_footprint_allocation () =
  List.iter
    (fun (module C : Cc.S) ->
      let db = C.create ~threads:1 ~rows:64 () in
      (* A NewOrder footprint: the warehouse, a district read and written,
         15 stock rows read and written, and one order row written. *)
      let new_order tx =
        ignore (C.read tx 0 : int);
        C.write tx 1 (C.read tx 1 + 1);
        for k = 10 to 24 do
          C.write tx k (C.read tx k + 1)
        done;
        C.write tx 40 7
      in
      (* Warm the context: its arrays grow to this footprint. *)
      for _ = 1 to 2 do
        let tx = C.begin_tx db in
        new_order tx;
        ignore (C.commit tx : bool)
      done;
      let tx = C.begin_tx db in
      let w0 = Gc.minor_words () in
      new_order tx;
      ignore (C.read tx 1 : int);
      let access = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) (C.name ^ " reads and writes allocate nothing") 0.0 access;
      let w0 = Gc.minor_words () in
      let ok = C.commit tx in
      let commit = Gc.minor_words () -. w0 in
      Alcotest.(check bool) (C.name ^ " commits") true ok;
      if commit > new_order_commit_words then
        Alcotest.failf "%s: a NewOrder commit allocated %.0f minor words (bound %.0f)" C.name commit
          new_order_commit_words)
    occ_like

(* ---- write-ahead log ---- *)

let wal_flavors : (string * (module Ordo_core.Timestamp.S)) list =
  [ ("logical", (module Logical)); ("ordo", (module Ordo_ts)) ]

let test_wal_basics () =
  List.iter
    (fun (name, (module T : Ordo_core.Timestamp.S)) ->
      let module W = Ordo_db.Wal.Make (R) (T) in
      let w = W.create ~threads:1 () in
      let l1 = W.append w 100 in
      let l2 = W.append w 200 in
      Alcotest.(check bool) (name ^ " LSNs increase") true (l2 > l1);
      Alcotest.(check int) (name ^ " checkpoint count") 2 (W.checkpoint w);
      (match W.durable w with
      | [ a; b ] ->
        Alcotest.(check int) (name ^ " order: first payload") 100 a.W.payload;
        Alcotest.(check int) (name ^ " order: second payload") 200 b.W.payload
      | _ -> Alcotest.fail "wrong durable length");
      Alcotest.(check int) (name ^ " durable_count") 2 (W.durable_count w);
      Alcotest.(check int) (name ^ " empty checkpoint") 0 (W.checkpoint w))
    wal_flavors

let test_wal_concurrent_program_order () =
  List.iter
    (fun (name, (module T : Ordo_core.Timestamp.S)) ->
      let module W = Ordo_db.Wal.Make (R) (T) in
      let threads = 4 and per = 50 in
      let w = W.create ~threads () in
      ignore
        (Sim.run tiny ~threads (fun i ->
             for j = 0 to per - 1 do
               ignore (W.append w ((i * 1000) + j) : int)
             done;
             if i = 0 then ignore (W.checkpoint w : int)));
      ignore (W.checkpoint w : int);
      Alcotest.(check int) (name ^ " all durable") (threads * per) (W.durable_count w);
      (* Per-thread program order is preserved in the durable log. *)
      let seen = Array.make threads (-1) in
      List.iter
        (fun r ->
          let core = r.W.payload / 1000 and j = r.W.payload mod 1000 in
          if j <= seen.(core) then
            Alcotest.failf "%s: program order broken for thread %d at %d" name core j;
          seen.(core) <- j)
        (W.durable w))
    wal_flavors

(* The WAL's recovery-order contract, as a property over injected skew:
   stamp any two records further apart in real time than the measured
   ORDO_BOUNDARY and they must land in the durable log in that order, for
   *any* per-socket clock offsets.  Threads append in phases separated by
   well over the boundary, so every cross-phase record pair is
   constrained; within a phase only per-thread program order applies
   (checked by the test above). *)
let test_wal_skew_recovery_order =
  qtest "wal: appends beyond the boundary recover in stamp order"
    QCheck2.Gen.(pair (int_range 0 5000) (int_range 0 3000))
    (fun (skew1, skew2) ->
      Sim.with_fresh_instance @@ fun () ->
      let machine =
        Machine.make
          {
            Ordo_util.Topology.name = "skewbox";
            sockets = 3;
            cores_per_socket = 2;
            smt = 1;
            ghz = 2.0;
          }
          ~socket_reset_ns:[| 0; skew1; skew2 |] ~noise_prob:0.0 ~core_jitter_ns:0
      in
      let boundary = Ordo_workloads.Workloads.measure_boundary machine in
      let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
      let module T = Ordo_core.Timestamp.Ordo_source (O) in
      let module W = Ordo_db.Wal.Make (R) (T) in
      let threads = 6 and phases = 3 and per = 2 in
      let gap = (2 * boundary) + 2_000 in
      let w = W.create ~threads () in
      ignore
        (Sim.run machine ~threads (fun _ ->
             for p = 0 to phases - 1 do
               R.work gap;
               for _ = 1 to per do
                 ignore (W.append w p : int)
               done
             done));
      ignore (W.checkpoint w : int);
      W.durable_count w = threads * phases * per
      &&
      let highest = ref (-1) in
      List.for_all
        (fun r ->
          let ok = r.W.payload >= !highest in
          highest := max !highest r.W.payload;
          ok)
        (W.durable w))

let suite =
  [
    ("serial roundtrip (all schemes)", `Quick, for_each_scheme serial_roundtrip);
    ("serial read-own-write (all)", `Quick, for_each_scheme serial_read_own_write);
    ("serial rmw sequence (all)", `Quick, for_each_scheme serial_rmw_sequence);
    ("concurrent counter (all)", `Quick, for_each_scheme concurrent_counter);
    ("snapshot audit (all)", `Quick, for_each_scheme snapshot_audit);
    ("stats move (all)", `Quick, for_each_scheme stats_move);
    ("ycsb read-only (all)", `Quick, for_each_scheme ycsb_runs);
    ("ycsb mixed (all)", `Quick, for_each_scheme ycsb_mixed_runs);
    ("tpcc money conservation (all)", `Quick, for_each_scheme tpcc_money_conservation);
    ("tpcc full five-transaction mix (all)", `Quick, for_each_scheme tpcc_full_mix);
    test_txset_matches_hashtbl;
    ("occ and silo footprints allocate nothing per access", `Quick, test_footprint_allocation);
    ("wal basics (both flavors)", `Quick, test_wal_basics);
    ("wal concurrent program order", `Quick, test_wal_concurrent_program_order);
    test_wal_skew_recovery_order;
  ]
