(* perfbench: one workload, measured end to end and layer by layer.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans DIR]

   1. For S host seconds, interleaved (see [measure]): measured passes,
      untraced, the first a warm-up whose outputs are checked but whose
      timings are not used; set-up alone, [setups] times in all, each on
      a fresh simulator instance (setup_s is their median); and at least
      [min_traced] traced passes: the stock Trace sink on, the counting
      wrappers in, the stock Checker on each trace.  Every pass's
      deterministic outputs must equal the first's exactly.  A speed
      probe precedes every timed piece.
   2. The last line of stdout is one JSON object: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.  Host times
      are scaled to the reference host speed by the run's mean probe
      time.

   Any failed output check prints "CHECK FAILED: ..." and exits 1.  With
   --spans DIR each traced pass writes its spans to DIR/spans-NAME.tsv. *)

module W = Ordo_perfbench.Workloads
module Ledger = Ordo_perfbench.Ledger

let fi = float_of_int

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "ops/s");
    ("check_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_ops_per_us", "ops/us");
    ("sim_p50_us", "us");
    ("sim_p99_us", "us");
    ("ok_ratio", "ratio");
  ]

let per_layer =
  [
    ("simcore.events", "count");
    ("simcore.setup_events", "count");
    ("simcore.events_per_s", "1/s");
    ("simcore.minor_words_per_event", "words");
    ("simcore.end_vtime_us", "us");
    ("core.boundary_ns", "ns");
    ("core.measure_s", "s");
    ("core.get_calls", "count");
    ("core.advance_calls", "count");
    ("core.after_calls", "count");
    ("core.cmp_calls", "count");
    ("core.cmp_uncertain_ratio", "ratio");
    ("core.ts_vns", "ns");
    ("oplog.update_calls", "count");
    ("oplog.update_vns", "ns");
    ("oplog.lookup_calls", "count");
    ("oplog.lookup_vns", "ns");
    ("oplog.drain_s", "s");
    ("db.attempts", "count");
    ("db.commits", "count");
    ("db.aborts", "count");
    ("db.commit_ratio", "ratio");
    ("db.attempt_vns", "ns");
    ("db.retry_vns", "ns");
    ("cluster.boundary_ns", "ns");
    ("cluster.measure_s", "s");
    ("cluster.messages", "count");
    ("cluster.msgs_per_op", "ratio");
    ("cluster.dropped", "count");
    ("service.run_s", "s");
    ("service.epochs", "count");
    ("service.epoch_txns", "count");
    ("service.commit_waits", "count");
    ("service.wait_ns", "ns");
    ("service.rep_shipped", "count");
    ("service.rep_applied", "count");
    ("service.rep_stale", "count");
    ("service.cross_commit_ratio", "ratio");
    ("service.admitted", "count");
    ("service.shed", "count");
    ("service.shed_ratio", "ratio");
    ("service.depth_hw", "count");
    ("service.promotions", "count");
    ("service.degraded_reads", "count");
    ("service.snapshots", "count");
    ("workloads.issued", "count");
    ("workloads.sessions_opened", "count");
    ("workloads.reconnects", "count");
    ("workloads.storm_ops", "count");
    ("trace.events", "count");
    ("trace.dropped", "count");
    ("trace.stop_s", "s");
    ("trace.checker_s", "s");
    ("trace.checker_committed", "count");
    ("trace.checker_edges", "count");
    ("trace.overhead_pct", "%");
    ("host.probe_ms", "ms");
  ]

(* Every timed piece starts from a compacted heap, so that one piece's
   garbage does not bill the next and the heap does not drift over a run. *)
let settled f =
  Gc.compact ();
  f ()

let setups = 21
let min_traced = 3

type measured = {
  setup : (float * float) list;  (** (set-up s, boundary measurement s) *)
  first : W.pass;  (** the warm-up pass *)
  timed : W.pass list;  (** the measured passes whose host timings count *)
  rss_mb : float;
  traced : W.pass list;
  probes : float list;  (** host s of each speed probe *)
}

(* The host this benchmark was built on swings by up to 1.6x in speed for
   seconds to minutes at a time (other tenants), so every kind of sample
   is spread over the whole window and host times are means over it:
   set-ups in step with the window, and traced passes taking about half
   of it, between the measured passes.  Every timed piece after the warm-up is preceded by a speed probe
   ([Ledger.probe]).  The peak RSS is read after the warm-up pass, which
   has a measured pass's footprint, and before the probe's table exists
   and the first traced pass, which needs far more memory. *)
let measure (w : W.workload) ~seed ~seconds =
  let t0 = Ledger.now () in
  let first = settled (fun () -> w.W.pass ~traced:false ~seed) in
  let rss_mb = Ledger.peak_rss_mb () in
  let probes = ref [] in
  let settled f =
    probes := Ledger.probe () :: !probes;
    settled f
  in
  let same (p : W.pass) what =
    W.check (p.W.out = first.W.out) "%s: %s of seed %d disagrees with the first pass" w.W.name what
      seed;
    p
  in
  let setup = ref [] in
  let set_up_to n =
    while List.length !setup < min n setups do
      setup := settled w.W.setup :: !setup
    done
  in
  let rec loop timed traced traced_s =
    let elapsed = Ledger.now () -. t0 in
    let n_traced = List.length traced in
    if elapsed >= seconds && List.length timed >= 3 && n_traced >= min_traced then (timed, traced)
    else begin
      set_up_to (1 + int_of_float (float_of_int setups *. elapsed /. seconds));
      if traced_s <= 0.5 *. elapsed || (elapsed >= seconds && n_traced < min_traced) then begin
        let tr, dt = Ledger.timed (fun () -> settled (fun () -> w.W.pass ~traced:true ~seed)) in
        loop timed (same tr "a traced pass" :: traced) (traced_s +. dt)
      end
      else
        let p = settled (fun () -> w.W.pass ~traced:false ~seed) in
        loop (same p "a measured pass" :: timed) traced traced_s
    end
  in
  let timed, traced = loop [] [] 0.0 in
  set_up_to setups;
  { setup = !setup; first; timed; rss_mb; traced; probes = !probes }

(* Mean host time of one pass: summed over its runs, averaged over
   passes. *)
let mean f (passes : W.pass list) =
  let total (p : W.pass) = List.fold_left (fun acc x -> acc +. f x) 0.0 p.W.parts in
  List.fold_left (fun acc p -> acc +. total p) 0.0 passes /. float_of_int (List.length passes)

let probe_s m = List.fold_left ( +. ) 0.0 m.probes /. fi (List.length m.probes)

(* Host seconds at the reference speed: scaled by how much slower than
   the reference the probe ran, on average over the run. *)
let metrics (w : W.workload) (m : measured) ~trace =
  let out = m.first.W.out in
  let probe_s = probe_s m in
  let host s = s *. Ledger.probe_ref_s /. probe_s in
  let run_s = host (mean (fun x -> x.W.run) m.timed) in
  let tr = List.hd m.traced in
  let layer k = Option.value (List.assoc_opt k tr.W.layers) ~default:0.0 in
  let engine = w.W.layer_kind = `Engine in
  let measure_s = host (Ledger.median (List.map snd m.setup)) in
  let values =
    if not trace then
      [
        ("setup_s", host (Ledger.median (List.map fst m.setup)));
        ("host_ops_per_s", fi out.W.ops /. run_s);
        ("check_s", host (mean (fun x -> x.W.stop +. x.W.checker) m.traced));
        ("peak_rss_mb", m.rss_mb);
        ("sim_ops_per_us", out.W.sim_ops_per_us);
        ("sim_p50_us", out.W.p50_ns /. 1000.0);
        ("sim_p99_us", out.W.p99_ns /. 1000.0);
        ("ok_ratio", fi (out.W.issued - out.W.gave_up) /. fi out.W.issued);
      ]
    else
      let measured =
        [
          ("simcore.events", fi out.W.events);
          ("simcore.setup_events", fi out.W.setup_events);
          ("simcore.events_per_s", fi out.W.events /. run_s);
          ( "simcore.minor_words_per_event",
            if out.W.events = 0 then 0.0 else m.first.W.minor_words /. fi out.W.events );
          ("simcore.end_vtime_us", if engine then fi out.W.end_vtime /. 1000.0 else 0.0);
          ("core.measure_s", if engine then measure_s else 0.0);
          ("cluster.measure_s", if engine then 0.0 else measure_s);
          ( "oplog.drain_s",
            host
              (List.fold_left (fun acc (p : W.pass) -> acc +. p.W.drain_s) 0.0 m.timed
              /. fi (List.length m.timed)) );
          ("service.run_s", if engine then 0.0 else run_s);
          ("trace.stop_s", host (mean (fun x -> x.W.stop) m.traced));
          ("trace.checker_s", host (mean (fun x -> x.W.checker) m.traced));
          ("trace.overhead_pct", 100.0 *. ((host (mean (fun x -> x.W.run) m.traced) /. run_s) -. 1.0));
          ("host.probe_ms", 1000.0 *. probe_s);
        ]
      in
      List.map
        (fun (k, _) -> (k, match List.assoc_opt k measured with Some v -> v | None -> layer k))
        per_layer
  in
  let units = if trace then per_layer else end_to_end in
  List.map
    (fun (k, v) ->
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" k);
      (k, v, List.assoc k units))
    values

let json ~attempted values =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {" attempted;
  List.iteri
    (fun i (k, v, u) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" (if i = 0 then "" else ", ") k v u)
    values;
  Buffer.add_string b "}}";
  Buffer.contents b

let main ~workload ~seed ~seconds ~trace =
  match W.find workload with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" workload
      (String.concat ", " (List.map (fun w -> w.W.name) W.all));
    2
  | Some w ->
    (match measure w ~seed ~seconds with
    | exception W.Check_failed msg ->
      print_endline ("CHECK FAILED: " ^ msg);
      prerr_endline ("CHECK FAILED: " ^ msg);
      1
    | m ->
      let out = m.first.W.out in
      Printf.eprintf
        "%s seed %d: %d measured and %d traced passes; %d ops of %d issued; %d latency \
         samples; %d engine events; peak RSS %.0f MB with the traced passes; mean probe %.2f ms\n"
        w.W.name seed (List.length m.timed) (List.length m.traced) out.W.ops out.W.issued
        out.W.samples out.W.events (Ledger.peak_rss_mb ()) (1000.0 *. probe_s m);
      print_endline (json ~attempted:out.W.issued (metrics w m ~trace));
      0)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of measured passes");
      ("--trace", Arg.Set_int trace, "0|1 print end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.String (fun d -> W.spans_path := Some d), "DIR write the traced pass's spans here");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  exit (main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
