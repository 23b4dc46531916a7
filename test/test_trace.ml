(* Tests for the Ordo_trace subsystem: determinism of the observational
   sink, exactness of the online counters under ring wrap-around, Chrome
   export well-formedness, and the offline ordering-invariant checker
   (positive on a clean OCC history, negative on injected clock skew and
   on synthetic violations). *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Engine = Ordo_sim.Engine
module Rng = Ordo_util.Rng
module Trace = Ordo_trace.Trace
module Metrics = Ordo_trace.Metrics
module Chrome = Ordo_trace.Chrome
module Checker = Ordo_trace.Checker

let check = Alcotest.check

(* A small contended workload: every thread hammers one shared counter.
   Deterministic for a fixed machine/thread count. *)
let counter_race ?(threads = 8) ?(iters = 300) machine =
  let c = R.cell 0 in
  Sim.run machine ~threads (fun _ ->
      for _ = 1 to iters do
        ignore (R.fetch_add c 1 : int)
      done)

(* ---- determinism: tracing is purely observational ---- *)

let test_trace_is_observational () =
  let plain = counter_race Machine.amd in
  Trace.start ();
  let traced = counter_race Machine.amd in
  let t = Trace.stop () in
  check Alcotest.int "same end_vtime" plain.Engine.end_vtime traced.Engine.end_vtime;
  check Alcotest.int "same event count" plain.Engine.events traced.Engine.events;
  check Alcotest.bool "trace not empty" true (Array.length t.Trace.events > 0)

(* ---- engine instrumentation sanity ---- *)

let test_engine_counters () =
  Trace.start ();
  ignore (counter_race Machine.amd : Engine.stats);
  let t = Trace.stop () in
  let total, lat = Metrics.totals t in
  check Alcotest.bool "transfers recorded" true (Metrics.transfers_total total > 0);
  check Alcotest.bool "invalidations recorded" true (total.Trace.invalidations > 0);
  check Alcotest.bool "rmw stalls recorded" true (total.Trace.stall_ns > 0);
  check Alcotest.bool "latency samples" true (Ordo_util.Stats.Online.count lat > 0);
  (* events arrive sorted by (time, seq) *)
  let sorted = ref true in
  Array.iteri
    (fun i (e : Trace.event) ->
      if i > 0 then begin
        let p = t.Trace.events.(i - 1) in
        if p.time > e.time || (p.time = e.time && p.seq > e.seq) then sorted := false
      end)
    t.Trace.events;
  check Alcotest.bool "events sorted" true !sorted

let test_clock_reads_traced () =
  Trace.start ();
  ignore
    (Sim.run Machine.amd ~threads:4 (fun _ ->
         for _ = 1 to 50 do
           ignore (R.get_time () : int)
         done)
      : Engine.stats);
  let t = Trace.stop () in
  let total, _ = Metrics.totals t in
  check Alcotest.int "all clock reads captured" 200 total.Trace.clock_reads

(* ---- ring wrap: events drop, counters stay exact ---- *)

let test_ring_wrap_counters_exact () =
  Trace.start ~capacity:16 ();
  ignore (counter_race Machine.amd : Engine.stats);
  let small = Trace.stop () in
  Trace.start ~capacity:65_536 ();
  ignore (counter_race Machine.amd : Engine.stats);
  let big = Trace.stop () in
  check Alcotest.bool "small ring dropped events" true (small.Trace.dropped > 0);
  check Alcotest.int "big ring dropped nothing" 0 big.Trace.dropped;
  let ts, _ = Metrics.totals small and tb, _ = Metrics.totals big in
  check Alcotest.int "transfer counters exact under wrap"
    (Metrics.transfers_total tb) (Metrics.transfers_total ts);
  check Alcotest.int "invalidation counters exact under wrap"
    tb.Trace.invalidations ts.Trace.invalidations

let test_ring_wrap_drop_accounting () =
  (* Same deterministic run at two capacities: the big ring keeps the
     whole stream, so the small ring's [dropped] must equal exactly the
     events it is missing, its per-core online counters must match the
     lossless ones field for field, and what it did retain must be the
     per-thread *suffixes* of the full stream (newest kept, oldest
     evicted). *)
  Trace.start ~capacity:32 ();
  ignore (counter_race Machine.amd : Engine.stats);
  let small = Trace.stop () in
  Trace.start ~capacity:1_048_576 ();
  ignore (counter_race Machine.amd : Engine.stats);
  let big = Trace.stop () in
  check Alcotest.int "big ring lossless" 0 big.Trace.dropped;
  check Alcotest.int "drop accounting exact"
    (Array.length big.Trace.events - Array.length small.Trace.events)
    small.Trace.dropped;
  check Alcotest.bool "per-core online stats identical under wrap" true
    (small.Trace.cores = big.Trace.cores);
  let by_tid (t : Trace.t) tid =
    Array.to_list t.Trace.events
    |> List.filter (fun (e : Trace.event) -> e.Trace.tid = tid)
    |> Array.of_list
  in
  let tids =
    Array.fold_left
      (fun acc (e : Trace.event) -> if List.mem e.Trace.tid acc then acc else e.Trace.tid :: acc)
      [] small.Trace.events
  in
  check Alcotest.bool "some threads wrapped" true (tids <> []);
  (* The two runs share one process, so absolute virtual times carry a
     constant offset and cell ids a constant renaming; everything else —
     the globally-unique seq, the kind and payload — must match the full
     stream's per-thread suffix exactly, and the time offset must be one
     single constant. *)
  List.iter
    (fun tid ->
      let s = by_tid small tid and b = by_tid big tid in
      let n = Array.length s and m = Array.length b in
      if n > m then Alcotest.failf "thread %d kept more events than emitted" tid;
      if n = 0 then Alcotest.failf "thread %d retained nothing" tid;
      let shift = b.(m - n).Trace.time - s.(0).Trace.time in
      Array.iteri
        (fun k (es : Trace.event) ->
          let eb = b.(m - n + k) in
          if
            es.Trace.seq <> eb.Trace.seq
            || es.Trace.kind <> eb.Trace.kind
            || es.Trace.b <> eb.Trace.b
            || es.Trace.c <> eb.Trace.c
            || eb.Trace.time - es.Trace.time <> shift
          then
            Alcotest.failf "thread %d retained events are not a suffix of the full stream"
              tid)
        s)
    tids

(* ---- hottest-line report ---- *)

let test_hottest_lines () =
  Trace.start ();
  ignore (counter_race Machine.amd : Engine.stats);
  let t = Trace.stop () in
  let hot = Metrics.hottest ~n:3 t in
  check Alcotest.bool "at least one hot line" true (hot <> []);
  check Alcotest.bool "at most three" true (List.length hot <= 3);
  let busy (l : Trace.line_stat) = l.transfer_ns + l.stall_ns in
  let rec descending = function
    | a :: (b :: _ as rest) -> busy a >= busy b && descending rest
    | _ -> true
  in
  check Alcotest.bool "sorted by heat" true (descending hot)

(* ---- spans and Chrome export ---- *)

let test_chrome_export () =
  Trace.start ();
  ignore
    (Sim.run Machine.amd ~threads:4 (fun _ ->
         for _ = 1 to 20 do
           R.span_begin "test.section";
           R.probe "test.tick" 1 2;
           R.work 30;
           R.span_end "test.section"
         done)
      : Engine.stats);
  let t = Trace.stop () in
  let json = Chrome.to_string t in
  check Alcotest.bool "json object wrapper" true
    (String.length json > 16 && String.sub json 0 16 = {|{"traceEvents":[|});
  let count_sub sub =
    let n = ref 0 and len = String.length sub in
    for i = 0 to String.length json - len do
      if String.sub json i len = sub then incr n
    done;
    !n
  in
  let begins = count_sub {|"ph":"B"|} and ends = count_sub {|"ph":"E"|} in
  check Alcotest.bool "spans present" true (begins > 0);
  check Alcotest.int "begin/end balanced" begins ends;
  check Alcotest.bool "probes present" true (count_sub {|"ph":"i"|} > 0)

(* ---- collection: Trace.stop against a sort of the emission log ---- *)

let prop ?(count = 300) ?print name gen p =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen p)

let kinds =
  Trace.
    [| Transfer; Invalidate; Rmw_stall; Clock_read; Pause; Span_begin; Span_end; Probe; Hazard |]

(* One emission: which of the program's tids emits, how far that tid's
   clock moves (sometimes backwards), and the event's kind and payload. *)
type step = { who : int; dt : int; kind : int; pa : int; pb : int; pc : int }

let step_gen =
  QCheck2.Gen.(
    map
      (fun (who, dt, kind, (pa, pb, pc)) -> { who; dt; kind; pa; pb; pc })
      (quad (int_range 0 69) (int_range (-3) 4)
         (int_range 0 (Array.length kinds - 1))
         (triple (int_range 0 9) (int_range 0 (Trace.n_classes - 1)) (int_range 0 99))))

(* Emissions that bring the first tid's count to a multiple of
   [capacity], at least twice it: its ring wraps and its window then
   starts exactly at slot 0. *)
let pad_first_tid capacity tids steps =
  let tids = Array.of_list tids in
  let first = fst tids.(0) in
  let n =
    List.length (List.filter (fun s -> fst tids.(s.who mod Array.length tids) = first) steps)
  in
  let target = max (2 * capacity) ((n + capacity - 1) / capacity * capacity) in
  steps @ List.init (target - n) (fun _ -> { who = 0; dt = 1; kind = 0; pa = 0; pb = 0; pc = 0 })

(* A random emission program: ring capacity 1–64 (rings wrap), tables
   pre-sized for 1–8 threads, clocks starting in 0..8 (times tie across
   tids).  Mostly up to six tids drawn from 0..200 (so the tables grow),
   sometimes up to 70 from 0..300 (more than 64 runs to merge); in a
   quarter of the programs the first tid's ring wraps exactly at slot 0. *)
let program_gen =
  QCheck2.Gen.(
    let tids n hi = list_size (int_range 1 n) (pair (int_range 0 hi) (int_range 0 8)) in
    map
      (fun (capacity, threads, (tids, steps), pad) ->
        (capacity, threads, tids, if pad then pad_first_tid capacity tids steps else steps))
      (quad (int_range 1 64) (int_range 1 8)
         (pair (frequency [ (2, tids 6 200); (1, tids 70 300) ]) (list_size (int_range 0 400) step_gen))
         (frequency [ (3, return false); (1, return true) ])))

let print_program (capacity, threads, tids, steps) =
  Printf.sprintf "capacity %d, threads %d, tids [%s], %d steps: %s" capacity threads
    (String.concat "; " (List.map (fun (tid, t0) -> Printf.sprintf "%d@%d" tid t0) tids))
    (List.length steps)
    (String.concat " "
       (List.map
          (fun s -> Printf.sprintf "%d%+d:%d(%d,%d,%d)" s.who s.dt s.kind s.pa s.pb s.pc)
          steps))

(* The reference shares no code with the sink: every emission is logged
   with the seq it must get (its index in the program), each tid keeps
   its last [capacity] emissions, and the survivors are sorted by
   (time, seq).  A probe whose tag id is a reserved guard tag's (ids
   0–4) comes out as a guard.  The per-core counters must add up to each
   tid's emissions, cores ascending by id, and the per-line stats are
   folded from the log.  [lines] is unordered, so it is compared as a set
   keyed by line id; the ranking is [Metrics.hottest]'s, checked below
   against a full sort. *)
let stop_matches_reference (capacity, threads, tids, steps) =
  let tids = Array.of_list tids in
  let clock = Array.map snd tids in
  Trace.start ~capacity ~threads ();
  let log =
    List.mapi
      (fun seq s ->
        let who = s.who mod Array.length tids in
        clock.(who) <- clock.(who) + s.dt;
        let tid = fst tids.(who) and time = clock.(who) and kind = kinds.(s.kind) in
        Trace.emit ~tid ~time kind ~a:s.pa ~b:s.pb ~c:s.pc;
        let kind = if kind = Trace.Probe && s.pa < 5 then Trace.Guard else kind in
        { Trace.seq; time; tid; kind; a = s.pa; b = s.pb; c = s.pc })
      steps
  in
  let t = Trace.stop () in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let older = Option.value ~default:[] (Hashtbl.find_opt by_tid e.tid) in
      Hashtbl.replace by_tid e.tid (e :: older))
    log;
  let kept, dropped =
    Hashtbl.fold
      (fun _ newest_first (kept, dropped) ->
        let n = List.length newest_first in
        ( List.filteri (fun i _ -> i < capacity) newest_first @ kept,
          dropped + max 0 (n - capacity) ))
      by_tid ([], 0)
  in
  let expected =
    List.sort
      (fun (x : Trace.event) (y : Trace.event) -> compare (x.time, x.seq) (y.time, y.seq))
      kept
  in
  let cores =
    Hashtbl.fold (fun tid es acc -> (tid, List.length es) :: acc) by_tid [] |> List.sort compare
  in
  let core_total (c : Trace.core_stat) =
    Array.fold_left ( + ) 0 c.transfers + c.invalidations + c.stalls + c.clock_reads + c.pauses
    + c.probes + c.hazards + c.guards
  in
  let lines = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let tr, inv, st, tns = Option.value ~default:(0, 0, 0, 0) (Hashtbl.find_opt lines e.a) in
      match e.kind with
      | Trace.Transfer -> Hashtbl.replace lines e.a (tr + 1, inv, st, tns + e.c)
      | Trace.Invalidate -> Hashtbl.replace lines e.a (tr, inv + 1, st, tns)
      | Trace.Rmw_stall -> Hashtbl.replace lines e.a (tr, inv, st + e.b, tns)
      | _ -> ())
    log;
  let lines =
    Hashtbl.fold (fun line (tr, inv, st, tns) acc -> (line, tr, inv, st, tns) :: acc) lines []
    |> List.sort compare
  in
  Array.to_list t.Trace.events = expected
  && t.Trace.dropped = dropped
  && Array.to_list (Array.map (fun (c : Trace.core_stat) -> (c.core, core_total c)) t.Trace.cores)
     = cores
  && List.sort compare
       (Array.to_list
          (Array.map
             (fun (l : Trace.line_stat) ->
               (l.line, l.transfers, l.invalidations, l.stall_ns, l.transfer_ns))
             t.Trace.lines))
     = lines

let test_stop_differential =
  prop "stop = per-tid suffixes sorted by (time, seq)" ~count:500 ~print:print_program
    program_gen stop_matches_reference

(* Rings start at 16,384 events below a larger capacity and double up
   to it: a tid that outgrows two doublings and then wraps past a
   capacity that is not a power of two, beside one that stops
   mid-growth, must still give the reference's window. *)
let test_ring_growth () =
  let steps =
    List.init 120_000 (fun i ->
        let who = if i mod 6 = 0 then 1 else 0 in
        { who; dt = i mod 3; kind = i mod Array.length kinds; pa = i mod 10; pb = 0; pc = i mod 100 })
  in
  check Alcotest.bool "grown rings match the reference" true
    (stop_matches_reference (50_000, 2, [ (0, 0); (5, 3) ], steps))

(* [Metrics.hottest ~n] against the first [n] of a full sort by heat
   (transfer plus stall ns) descending, then line id.  Heats come from a
   few small values so ties are common; line ids are distinct and
   shuffled; n runs past the line count. *)
let hottest_gen =
  QCheck2.Gen.(
    let line_gen = pair (int_range 0 3) (int_range 0 3) in
    list_size (int_range 0 40) line_gen >>= fun heats ->
    let l = List.length heats in
    triple (return heats) (shuffle_l (List.init l Fun.id)) (int_range 0 (l + 2)))

let hottest_is_sorted_prefix (heats, ids, n) =
  let lines =
    List.map2
      (fun (tns, st) line ->
        { Trace.line; transfers = 0; invalidations = 0; stall_ns = st; transfer_ns = tns })
      heats ids
    |> Array.of_list
  in
  let t = { Trace.events = [||]; tags = [||]; dropped = 0; cores = [||]; lines; names = [] } in
  let key (l : Trace.line_stat) = (-(l.transfer_ns + l.stall_ns), l.line) in
  let sorted = List.sort (fun a b -> compare (key a) (key b)) (Array.to_list lines) in
  List.map key (Metrics.hottest ~n t) = List.map key (List.filteri (fun i _ -> i < n) sorted)

let test_hottest_prefix =
  prop "Metrics.hottest = prefix of a full sort" ~count:500
    ~print:(fun (heats, ids, n) ->
      Printf.sprintf "n %d, lines [%s]" n
        (String.concat "; "
           (List.map2 (fun (tns, st) id -> Printf.sprintf "%d:%d+%d" id tns st) heats ids)))
    hottest_gen hottest_is_sorted_prefix

(* The guard's probe tags are interned first, so a probe reclassifies by
   its tag id alone. *)
let test_guard_probe_reclassified () =
  Trace.start ();
  Trace.emit ~tid:0 ~time:1 Trace.Probe ~a:(Trace.intern Trace.tag_guard_ts) ~b:7 ~c:8;
  Trace.emit ~tid:0 ~time:2 Trace.Probe ~a:(Trace.intern "x") ~b:7 ~c:8;
  let t = Trace.stop () in
  let got = Array.map (fun (e : Trace.event) -> (Trace.tag_name t e.a, e.kind)) t.Trace.events in
  check Alcotest.bool "guard tag -> Guard, other tag stays Probe" true
    (got = [| (Trace.tag_guard_ts, Trace.Guard); ("x", Trace.Probe) |]);
  check Alcotest.(pair int int) "guards, probes" (1, 1)
    (t.Trace.cores.(0).guards, t.Trace.cores.(0).probes)

(* ---- checker: positive and negative ---- *)

let measure_boundary m =
  let module E = (val Sim.exec m) in
  let module B = Ordo_core.Boundary.Make (E) in
  B.measure ~runs:20 ~cores:[ 0; 7; 8; 15; 16; 24; 31 ] ()

let occ_workload machine ~boundary ~threads ~dur =
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
  let module T = Ordo_core.Timestamp.Ordo_source (O) in
  let module C = Ordo_db.Occ.Make (R) (T) in
  let db = C.create ~threads ~rows:12 () in
  let module X = Ordo_db.Cc_intf.Execute (R) (C) in
  ignore
    (Sim.run machine ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int ((i * 31) + 7)) () in
         while R.now () < dur do
           X.run db (fun tx ->
               let k1 = Rng.int rng 12 and k2 = Rng.int rng 12 in
               let v = C.read tx k1 in
               if Rng.int rng 100 < 60 then C.write tx k2 (v + 1))
         done)
      : Engine.stats)

let test_checker_occ_clean () =
  let machine = Machine.amd in
  let boundary = measure_boundary machine in
  Trace.start ();
  occ_workload machine ~boundary ~threads:8 ~dur:60_000;
  let t = Trace.stop () in
  let r = Checker.check ~boundary t in
  check Alcotest.bool "history passes" true (Checker.ok r);
  check Alcotest.bool "clock reads seen" true (r.Checker.clock_reads > 0);
  check Alcotest.bool "new_time calls seen" true (r.Checker.new_times > 0);
  check Alcotest.bool "transactions reconstructed" true (r.Checker.committed > 0);
  check Alcotest.bool "conflict edges found" true (r.Checker.edges > 0)

let inject_skew (m : Machine.t) extra =
  let per_socket = m.Machine.topo.Ordo_util.Topology.cores_per_socket in
  {
    m with
    Machine.reset_ns =
      Array.mapi
        (fun p r -> if p / per_socket > 0 then r + extra else r)
        m.Machine.reset_ns;
  }

let test_checker_detects_skew () =
  let machine = Machine.amd in
  (* Boundary measured before the skew appears — the Ordo deployment
     assumption the checker exists to police. *)
  let boundary = measure_boundary machine in
  let skewed = inject_skew machine (boundary + 5_000) in
  Trace.start ();
  occ_workload skewed ~boundary ~threads:8 ~dur:60_000;
  let t = Trace.stop () in
  let r = Checker.check ~boundary t in
  check Alcotest.bool "skew detected" false (Checker.ok r);
  let has_inversion =
    List.exists
      (function Checker.Clock_inversion _ -> true | _ -> false)
      r.Checker.violations
  in
  check Alcotest.bool "clock inversion reported" true has_inversion;
  (* the report names the offending event pair *)
  List.iter
    (function
      | Checker.Clock_inversion { earlier; later; delta } ->
        check Alcotest.bool "physical order holds" true
          (earlier.Trace.time <= later.Trace.time);
        check Alcotest.bool "delta exceeds boundary" true (delta > boundary)
      | _ -> ())
    r.Checker.violations;
  let contains hay needle =
    let nl = String.length needle in
    let found = ref false in
    for i = 0 to String.length hay - nl do
      if String.sub hay i nl = needle then found := true
    done;
    !found
  in
  check Alcotest.bool "describe names the offending pair" true
    (List.exists (fun line -> contains line "core") (Checker.describe r))

let test_checker_new_time_short () =
  Trace.start ();
  ignore
    (Sim.run Machine.amd ~threads:1 (fun _ ->
         (* a forged new_time probe whose result does not clear t + boundary *)
         R.probe "ordo.new_time" 1000 1100)
      : Engine.stats);
  let t = Trace.stop () in
  let r = Checker.check ~boundary:200 t in
  let short =
    List.exists
      (function
        | Checker.New_time_short { arg = 1000; result = 1100; _ } -> true
        | _ -> false)
      r.Checker.violations
  in
  check Alcotest.bool "short new_time flagged" true short

let test_checker_empty_trace () =
  Trace.start ();
  let t = Trace.stop () in
  let r = Checker.check ~boundary:100 t in
  check Alcotest.bool "empty trace passes" true (Checker.ok r);
  check Alcotest.int "no reads" 0 r.Checker.clock_reads;
  Alcotest.check_raises "negative boundary" (Invalid_argument "Checker.check: negative boundary")
    (fun () -> ignore (Checker.check ~boundary:(-1) t : Checker.report));
  Alcotest.check_raises "negative guard boundary"
    (Invalid_argument "Checker.check_guard: negative boundary") (fun () ->
      ignore (Checker.check_guard ~boundary:(-1) t : Checker.report))

(* ---- checker: differential against the list-based reference ---- *)

(* One emission of a generated probe stream: which tid, how far its clock
   moves (sometimes backwards), an operation and two payloads. *)
type op = { tid : int; dt : int; op : int; x : int; y : int }

let op_gen =
  QCheck2.Gen.(
    map
      (fun ((tid, dt), (op, x, y)) -> { tid; dt; op; x; y })
      (pair
         (pair (int_range 0 3) (int_range (-1) 3))
         (triple (int_range 0 20) (int_range 0 9) (int_range 0 40))))

let print_ops (boundary, ops) =
  Printf.sprintf "boundary %d, %d ops: %s" boundary (List.length ops)
    (String.concat " "
       (List.map (fun o -> Printf.sprintf "%d%+d:%d(%d,%d)" o.tid o.dt o.op o.x o.y) ops))

(* Emit a stream of tx.*, clock, new_time, guard and hazard events over
   4 tids and 3 keys.  Installs write versions 1-3, so they repeat, and
   reads see versions 0-4, so some read the initial version and some a
   version never installed; aborts, re-opened tids and cycles all
   occur. *)
let emit_ops ops =
  Trace.start ~capacity:4096 ~threads:4 ();
  let tag = Trace.intern in
  let clock = Array.make 4 0 in
  List.iter
    (fun o ->
      clock.(o.tid) <- Int.max 0 (clock.(o.tid) + o.dt);
      let probe name b c =
        Trace.emit ~tid:o.tid ~time:clock.(o.tid) Trace.Probe ~a:(tag name) ~b ~c
      in
      let read v c = Trace.emit ~tid:o.tid ~time:clock.(o.tid) Trace.Clock_read ~a:v ~b:0 ~c in
      match o.op with
      | 0 | 1 | 2 -> probe "tx.begin" o.y 0
      | 3 | 4 | 5 | 6 | 7 -> probe "tx.read" (o.x mod 3) (o.y mod 5)
      | 8 | 9 | 10 | 11 -> probe "tx.install" (o.x mod 3) (1 + (o.y mod 3))
      | 12 | 13 | 14 -> probe "tx.commit" o.y 0
      | 15 -> probe "tx.abort" 0 0
      | 16 -> read o.y (o.x mod 4)
      | 17 -> probe "ordo.new_time" o.x (o.x + (o.y / 4))
      | 18 ->
        read o.y (o.x mod 3);
        probe Trace.tag_guard_ts o.y o.x
      | 19 when o.x mod 2 = 0 -> probe Trace.tag_guard_ts o.y o.x
      | 19 ->
        let tag = if o.x mod 4 = 1 then Trace.tag_guard_bound else Trace.tag_guard_remeasure in
        probe tag o.y 0
      | _ ->
        Trace.emit ~tid:o.tid ~time:clock.(o.tid) Trace.Hazard ~a:Trace.hz_step ~b:o.tid ~c:o.y)
    ops;
  Trace.stop ()

(* Equal counts; equal invariant 1 and 2 violations in order; edge
   inversions equal as a multiset; and a cycle exactly when the
   reference has one, which must be a cycle of the reference's edges. *)
let same_report (got : Checker.report) ((want : Checker.report), edges) =
  let counts (r : Checker.report) =
    [ r.boundary; r.clock_reads; r.new_times; r.stamps; r.hazards; r.guard_events; r.committed;
      r.aborted; r.edges; r.ambiguous ]
  in
  let part (r : Checker.report) =
    let edge = function Checker.Edge_inversion _ -> true | _ -> false in
    let first = function Checker.Edge_inversion _ | Checker.Conflict_cycle _ -> false | _ -> true in
    ( List.filter first r.violations,
      List.sort compare (List.filter edge r.violations),
      List.find_map (function Checker.Conflict_cycle c -> Some c | _ -> None) r.violations )
  in
  let first_g, edges_g, cycle_g = part got and first_w, edges_w, cycle_w = part want in
  let is_cycle (txs : Checker.tx list) =
    let seqs = List.map (fun (tx : Checker.tx) -> tx.commit_seq) txs in
    let next = List.tl seqs @ [ List.hd seqs ] in
    List.length (List.sort_uniq compare seqs) = List.length seqs
    && List.for_all2 (fun u w -> List.mem (u, w) edges) seqs next
  in
  counts got = counts want && first_g = first_w && edges_g = edges_w
  && match (cycle_g, cycle_w) with
     | None, None -> true
     | Some c, Some _ -> c <> [] && is_cycle c
     | _ -> false

let checker_matches_reference (boundary, ops) =
  let t = emit_ops ops in
  same_report (Checker.check ~boundary t) (Checker_ref.check ~boundary t)
  && same_report (Checker.check_guard ~boundary t) (Checker_ref.check_guard ~boundary t)

let test_checker_differential =
  prop "checker = list-based reference on generated probe streams" ~count:1000 ~print:print_ops
    QCheck2.Gen.(pair (int_range 0 12) (list_size (int_range 0 160) op_gen))
    checker_matches_reference

(* Write skew: each tx reads the initial version of the key the other
   installs, so each precedes the other (ops 0, 3, 8 and 12 of
   [emit_ops]: begin, read, install version 1, commit). *)
let test_checker_reports_cycle () =
  let ops =
    [
      { tid = 0; dt = 1; op = 0; x = 0; y = 1 }; { tid = 1; dt = 1; op = 0; x = 0; y = 1 };
      { tid = 0; dt = 1; op = 3; x = 1; y = 0 }; { tid = 1; dt = 1; op = 3; x = 0; y = 0 };
      { tid = 0; dt = 1; op = 8; x = 0; y = 0 }; { tid = 1; dt = 1; op = 8; x = 1; y = 0 };
      { tid = 0; dt = 1; op = 12; x = 0; y = 10 }; { tid = 1; dt = 1; op = 12; x = 0; y = 11 };
    ]
  in
  let r = Checker.check ~boundary:100 (emit_ops ops) in
  check Alcotest.(pair int int) "committed, edges" (2, 2) (r.Checker.committed, r.Checker.edges);
  match r.Checker.violations with
  | [ Checker.Conflict_cycle [ a; b ] ] ->
    check Alcotest.(list int) "both txs, one each" [ 0; 1 ]
      (List.sort compare [ a.Checker.tx_tid; b.Checker.tx_tid ])
  | _ -> Alcotest.failf "expected one 2-cycle, got: %s" (String.concat "; " (Checker.describe r))

(* ---- the enabled gate ---- *)

(* The gate follows the calling domain's sink: off with none installed,
   on only in the domain that started tracing or adopted its handle, and
   off everywhere once the sink is stopped, even in a domain that still
   holds it or adopts it afterwards.  (Its one-load fast path is a
   count of the domains holding a sink; a domain that adopts and hands the
   sink back must leave that count where it found it.) *)
let test_enabled_gate () =
  let in_domain f = Domain.join (Domain.spawn f) in
  check Alcotest.bool "off with no sink" false (Trace.enabled ());
  Trace.start ();
  check Alcotest.bool "on where it started" true (Trace.enabled ());
  check Alcotest.bool "off in a domain that adopted nothing" false
    (in_domain Trace.enabled);
  let h = Trace.active_handle () in
  let adopted =
    in_domain (fun () ->
        let own = Trace.active_handle () in
        Trace.adopt h;
        let on = Trace.enabled () in
        Trace.adopt own;
        (on, Trace.enabled ()))
  in
  check Alcotest.(pair bool bool) "on once adopted, off once handed back" (true, false) adopted;
  let holding = Semaphore.Binary.make false and stopped = Semaphore.Binary.make false in
  let holder =
    Domain.spawn (fun () ->
        Trace.adopt h;
        let before = Trace.enabled () in
        Semaphore.Binary.release holding;
        Semaphore.Binary.acquire stopped;
        (before, Trace.enabled ()))
  in
  Semaphore.Binary.acquire holding;
  ignore (Trace.stop () : Trace.t);
  Semaphore.Binary.release stopped;
  check Alcotest.(pair bool bool) "a domain holding the sink: on, then off after stop"
    (true, false) (Domain.join holder);
  check Alcotest.bool "off after stop" false (Trace.enabled ());
  check Alcotest.bool "off in other domains after stop" false (in_domain Trace.enabled);
  Trace.adopt h;
  check Alcotest.bool "off while a stopped handle is adopted" false (Trace.enabled ());
  Trace.adopt (in_domain Trace.active_handle);
  check Alcotest.bool "off once it is dropped" false (Trace.enabled ())

let suite =
  [
    ("enabled gate follows the sink", `Quick, test_enabled_gate);
    ("tracing is observational", `Quick, test_trace_is_observational);
    ("engine counters", `Quick, test_engine_counters);
    ("clock reads traced", `Quick, test_clock_reads_traced);
    ("ring wrap keeps counters exact", `Quick, test_ring_wrap_counters_exact);
    ("ring wrap drop accounting", `Quick, test_ring_wrap_drop_accounting);
    ("hottest lines sorted", `Quick, test_hottest_lines);
    ("chrome export balanced", `Quick, test_chrome_export);
    test_stop_differential;
    ("rings grow to their capacity, then wrap", `Quick, test_ring_growth);
    test_hottest_prefix;
    ("guard probe reclassified by tag id", `Quick, test_guard_probe_reclassified);
    ("checker passes clean OCC", `Quick, test_checker_occ_clean);
    ("checker detects injected skew", `Quick, test_checker_detects_skew);
    ("checker flags short new_time", `Quick, test_checker_new_time_short);
    ("checker on empty trace", `Quick, test_checker_empty_trace);
    test_checker_differential;
    ("checker reports a write-skew cycle", `Quick, test_checker_reports_cycle);
  ]
